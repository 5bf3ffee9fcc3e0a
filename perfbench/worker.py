"""Child process of the benchmark: one CLI job or one library sweep.

    python3 perfbench/worker.py RESULT TRACE cli OUTPUT ARGV...
    python3 perfbench/worker.py RESULT TRACE sweep POINTS_FILE WARM_UNTIL

`cli` runs `wigner_nonstd.cli.main(ARGV + --output OUTPUT)` once in this
fresh interpreter, as a CLI user does. `sweep` runs the points of
POINTS_FILE through the public library API: one cold pass, then, if
WARM_UNTIL is not 0, passes over the same points with the caches the cold
pass filled, at least one and as many as end by WARM_UNTIL. WARM_UNTIL is
on the system-wide monotonic clock, which the parent shares. RESULT
receives the timings as JSON: the process's CPU time (user + system,
counted from the fork that started it) at the end of main() for `cli`,
and each point's CPU time and each pass's elapsed time for `sweep`. TRACE is "-" for an untraced run; otherwise the span recorder is
installed after the import, before the first call, and its statistics are
written to that file.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _run_cli(argv: list[str], output: str) -> dict:
    from wigner_nonstd import cli

    out: dict = {}
    try:
        out["rc"] = cli.main(argv + ["--output", output])
    except Exception:
        out["rc"] = None
        out["error"] = traceback.format_exc(limit=3)
    out["t_end"] = time.monotonic()
    out["cpu_end"] = time.process_time()
    return out


def _fbar_parity_residual(tensor, twice_sum: int) -> float:
    """Even j1+j2+j3: the 3-symbols are real; odd: purely imaginary."""
    import numpy as np

    part = tensor.imag if (twice_sum // 2) % 2 == 0 else tensor.real
    return float(np.max(np.abs(part))) if part.size else 0.0


def _sweep_point(point: dict) -> dict:
    from wigner_nonstd import HalfInt, SpinSpace, nonstandard

    # names are looked up on the module at call time, so a tracer sees them
    r = point["r"]
    spaces = [SpinSpace(HalfInt(t), r) for t in (point["tj1"], point["tj2"], point["tj3"])]
    ortho = nonstandard.verify_cg_orthonormality(spaces[0], spaces[1]).worst()
    tensor = nonstandard.fbar_tensor(*spaces)
    eigen = nonstandard.verify_eigenbasis(spaces[2]).residuals
    return {
        "coupling.orthonormality": ortho,
        "fbar.parity": _fbar_parity_residual(tensor, sum(sp.j.twice for sp in spaces)),
        "alpha.eigen": max(eigen["u_eigen"], eigen["casimir_eigen"], eigen["diagonalized_u"]),
        "alpha.unitarity": eigen["overlap_unitary"],
    }


def _sweep_pass(points: list[dict]) -> tuple[list[float], list[dict], float]:
    """CPU seconds per point, residuals per point, and the pass's elapsed seconds."""
    times, residuals = [], []
    began = time.perf_counter()
    for point in points:
        start = time.process_time()
        try:
            residuals.append(_sweep_point(point))
        except Exception:
            residuals.append({"error": traceback.format_exc(limit=3)})
        times.append(time.process_time() - start)
    return times, residuals, time.perf_counter() - began


def _run_sweep(points_file: str, warm_until: float) -> dict:
    import wigner_nonstd  # noqa: F401  (import is set-up, not part of the pass)

    with open(points_file, encoding="utf-8") as fh:
        points = json.load(fh)
    passes = [_sweep_pass(points)]
    if warm_until:
        while True:
            began = time.monotonic()
            passes.append(_sweep_pass(points))
            now = time.monotonic()
            if now + (now - began) > warm_until:
                break
    return {"times": [t for t, _, _ in passes], "residuals": [r for _, r, _ in passes],
            "elapsed": [e for _, _, e in passes]}


def main(argv: list[str]) -> int:
    result_file, trace_file, mode, *rest = argv
    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if mode == "cli":
        out = _run_cli(rest[1:], rest[0])
    elif mode == "sweep":
        out = _run_sweep(rest[0], float(rest[1]))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")

    from wigner_nonstd.verify import DEFAULT_TOLERANCES

    out["tolerances"] = DEFAULT_TOLERANCES
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    if tracer is not None:
        tracer.read_caches()
        tracer.uninstall()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
