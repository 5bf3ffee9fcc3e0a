"""End-to-end and per-layer benchmark of the wigner-nonstd package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src. One
client drives the package in a closed loop: one job or call at a time,
each repetition in a fresh interpreter, so "cold" means every cache is
cold. BLAS threads and WIGNER_NONSTD_THREADS are pinned to 1.

Workloads (inputs are generated from --seed; see BENCHMARK.json for why):
  tables      five CLI table/export jobs, each a fresh process writing --output
  verify      one CLI `verify --k 2-22` job on the default j and r grid
  sweep       153 library points (CG orthonormality, fbar tensor, eigenbasis),
              one cold pass per process
  sweep_warm  the same points again, pass after pass, in a process that has
              run them once
  all         the four above in turn

A run first times the import of `wigner_nonstd.cli` in several fresh
interpreters (setup_s, the median), then repeats whole passes of the
workload for about --seconds. cpu_s sums, over the pass's units (CLI
jobs or sweep points), each unit's median time across the passes;
peak_rss_mb is the median over passes of the largest peak RSS of any
process in the pass.

Times are CPU seconds (user + system) of the measured process, as `time`
reports them: a CLI job from the fork that starts its interpreter to the
end of main(), the set-up from that fork to the end of the import, a
sweep point from its first call to its last. On a shared virtual machine
the elapsed time also counts the spells in which the host runs other
guests on our CPU (steal time), which come and go over minutes and made
elapsed times of the same code differ by more than a quarter from run to
run; the CPU clock leaves those spells out. Elapsed times are kept in the
results file and shown in the summary. Outputs are checked with invariants
(perfbench/checks.py); a failed check, a nonzero exit or an exception
counts as a failed operation.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics from traced passes (perfbench/tracer.py),
each paired with an untraced pass for the tracing overhead. A summary and
the run's metadata go to stderr; the full record goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_output, check_sweep_point  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
SPAWNER = HERE / "spawner.py"

FIXED_ENV = {
    "WIGNER_NONSTD_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 9
# Every process is killed after this long; a whole run must end within 180 s.
PROCESS_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0
WORKLOADS = ("tables", "verify", "sweep", "sweep_warm")
VERIFY_K = "2-22"
SWEEP_MAX_TWICE_J = 16
# modules whose share of a traced pass's timed work is reported
MODULES = ("cli", "verify", "quon", "su2gen", "nonstandard", "standard_wra")


# ---------------------------------------------------------------------------
# inputs

@dataclass(frozen=True)
class Job:
    """One CLI job: its output check kind, argv (without --output) and format."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    r_count: int


def seeded_r_values(rng: random.Random, count: int, taken: set) -> list[Fraction]:
    """Distinct winding parameters p/q with |p| < 1000 and 1 <= q < 100."""
    values = []
    while len(values) < count:
        value = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        if value not in taken:
            taken.add(value)
            values.append(value)
    return values


def tables_jobs(seed: int) -> list[Job]:
    """Sizes keep every job near a second, so a run repeats each one several times."""
    rng, taken = random.Random(seed), set()
    r_cg, r_fbar, r_ops = (",".join(map(str, seeded_r_values(rng, n, taken))) for n in (2, 3, 2))
    return [
        Job("cg", ("tabulate-cg", "--j1", "4", "--j2", "4", f"--r={r_cg}"), "json", 2),
        Job("cg", ("tabulate-cg", "--j1", "4", "--j2", "4", f"--r={r_cg}", "--format", "csv"),
            "csv", 2),
        Job("fbar", ("tabulate-fbar", "--j1", "6", "--j2", "6", "--j3", "6", f"--r={r_fbar}"),
            "json", 3),
        Job("standard", ("tabulate-standard", "--symbol", "threejm",
                         "--j1", "10", "--j2", "10", "--j3", "10"), "json", 1),
        Job("export", ("export-ops", "--j", "64", f"--r={r_ops}"), "json", 2),
    ]


def verify_jobs(seed: int) -> list[Job]:
    return [Job("verify", ("verify", "--k", VERIFY_K, "--seed", str(seed)), "json", 4)]


def sweep_points(seed: int) -> list[dict]:
    """One point per pair 2j1 <= 2j2 <= 16; the seed picks j3, r and the order.

    Fixing the (j1, j2) pairs keeps the work per pass independent of the
    seed: the cost is set by the labels, not by r.
    """
    rng, taken = random.Random(seed), set()
    points = []
    for tj1 in range(SWEEP_MAX_TWICE_J + 1):
        for tj2 in range(tj1, SWEEP_MAX_TWICE_J + 1):
            tj3 = rng.choice(range(tj2 - tj1, tj1 + tj2 + 1, 2))
            r = seeded_r_values(rng, 1, taken)[0]
            points.append({"tj1": tj1, "tj2": tj2, "tj3": tj3, "r": float(r)})
    rng.shuffle(points)
    return points


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    env = dict(os.environ)
    env.update(FIXED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Spawned:
    t_spawn: float
    t_exit: float
    exit_code: int
    max_rss_mb: float
    cpu_s: float
    result: dict | None
    trace: dict | None
    log: str


class Runner:
    """Runs one child at a time through perfbench/spawner.py.

    The spawner reaps each child with os.wait4, which gives the child's
    own peak RSS only when the process that started it stayed small.
    """

    def __init__(self, run_start: float) -> None:
        self.deadline = run_start + RUN_DEADLINE_S
        self.counter = 0
        self.spawner = subprocess.Popen([sys.executable, str(SPAWNER)], env=child_env(), cwd=ROOT,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """End the spawner; a child it still waits for is killed by its timeout."""
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str], log_file: Path):
        """Run one child to completion; returns (spawn time, exit time, exit code,
        peak RSS MB, CPU seconds)."""
        timeout = max(1.0, min(PROCESS_TIMEOUT_S, self.deadline - time.monotonic()))
        request = {"argv": argv, "log": str(log_file), "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(reply)
        return (reply["t_spawn"], reply["t_exit"], reply["exit_code"],
                reply["max_rss_kb"] / 1024.0, reply["cpu_s"])

    def worker(self, mode_args: list[str], traced: bool) -> Spawned:
        self.counter += 1
        stem = OUT / f"proc{self.counter}"
        result_file, trace_file, log_file = (stem.with_suffix(s) for s in (".result", ".trace", ".log"))
        argv = [sys.executable, str(WORKER), str(result_file),
                str(trace_file) if traced else "-", *mode_args]
        t_spawn, t_exit, code, rss, cpu = self.spawn(argv, log_file)
        spawned = Spawned(t_spawn, t_exit, code, rss, cpu,
                          _load(result_file), _load(trace_file) if traced else None,
                          log_file.read_text(encoding="utf-8", errors="replace"))
        for path in (result_file, trace_file, log_file):
            path.unlink(missing_ok=True)
        return spawned

    def setup_probe(self) -> tuple[float, float]:
        """CPU and elapsed seconds from spawning a fresh interpreter to
        `import wigner_nonstd.cli` done."""
        program = ("import time, wigner_nonstd.cli; "
                   "print(repr(time.monotonic()), repr(time.process_time()))")
        log_file = OUT / "setup.log"
        t_spawn, _, code, _, _ = self.spawn([sys.executable, "-c", program], log_file)
        text = log_file.read_text(encoding="utf-8", errors="replace")
        log_file.unlink()
        if code != 0:
            raise RuntimeError(f"import of wigner_nonstd.cli failed:\n{text}")
        t_end, cpu = map(float, text.split()[-2:])
        return cpu, t_end - t_spawn


def _load(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    """One pass over a workload's units (CLI jobs or sweep points)."""

    times: list = field(default_factory=list)    # CPU seconds per unit
    busy_s: float = 0.0     # elapsed seconds of the pass's timed work, for the tracing metrics
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(self.times)

    def add_process(self, spawned: Spawned) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, spawned.max_rss_mb)
        if spawned.trace is not None:
            self.traces.append(spawned.trace)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)


def cli_pass(runner: Runner, jobs: list[Job], traced: bool) -> Pass:
    """Each job once in a fresh process, as a CLI user runs it.

    A job's time runs from spawning its interpreter to the end of main(),
    so it includes interpreter start and import.
    """
    out = Pass()
    for index, job in enumerate(jobs):
        output = OUT / f"job{index}.{job.fmt}"
        spawned = runner.worker(["cli", str(output), *job.argv], traced)
        out.add_process(spawned)
        res = spawned.result or {}
        out.times.append(res.get("cpu_end", spawned.cpu_s))
        out.busy_s += res.get("t_end", spawned.t_exit) - spawned.t_spawn
        out.attempted += 1
        what = job.argv[0]
        if spawned.exit_code != 0 or not res:
            out.fail(what, [f"worker exit {spawned.exit_code}: {spawned.log[-500:]}"])
        elif res["rc"] != 0:
            out.fail(what, [f"exit {res['rc']} {res.get('error', '')}"])
        else:
            problems = check_output(job.kind, str(output), job.fmt, res["tolerances"], job.r_count)
            if problems:
                out.fail(what, problems)
        output.unlink(missing_ok=True)
    return out


def sweep_pass(runner: Runner, points_file: Path, n_points: int, warm_until: float,
               traced: bool) -> Pass:
    """One fresh process: a cold pass over the points, then warm passes until warm_until.

    Without warm passes (warm_until 0) the unit times are the cold pass's;
    with them, each point's fastest warm time.
    """
    out = Pass()
    spawned = runner.worker(["sweep", str(points_file), repr(warm_until)], traced)
    out.add_process(spawned)
    res = spawned.result
    out.attempted = n_points
    if spawned.exit_code != 0 or not res:
        out.times = [spawned.cpu_s]
        out.failed = out.attempted
        out.problems.append(f"sweep worker exit {spawned.exit_code}: {spawned.log[-500:]}")
        return out
    out.attempted = len(res["times"]) * n_points
    timed = res["times"][1:] if warm_until else res["times"]
    out.times = [min(unit) for unit in zip(*timed)]
    out.busy_s = sum(res["elapsed"])
    for index, residuals in enumerate(res["residuals"]):
        phase = f"warm pass {index}" if index else "cold pass"
        for point_index, point in enumerate(residuals):
            problems = check_sweep_point(point, res["tolerances"])
            if problems:
                out.fail(f"sweep {phase} point {point_index}", problems)
    return out


def median_sum(passes: list[Pass]) -> float:
    """Sum over units of each unit's median time across the passes.

    With the few passes a run has room for, the median varied less from
    run to run than the fastest time did.
    """
    return sum(statistics.median(times) for times in zip(*(p.times for p in passes)))


# ---------------------------------------------------------------------------
# per-layer metrics

def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-process span statistics of one pass."""
    merged = {"stats": {}, "details": {}, "counts": {}, "cache": {}, "absent": set()}
    for trace in traces:
        merged["absent"].update(trace["absent"])
        for name, s in trace["stats"].items():
            into = merged["stats"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += s[key]
        for name, buckets in trace["details"].items():
            into = merged["details"].setdefault(name, {})
            for key, value in buckets.items():
                into[key] = into.get(key, 0.0) + value
        for name, value in trace["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, info in trace["cache"].items():
            into = merged["cache"].setdefault(name, {"hits": 0, "misses": 0})
            into["hits"] += info["hits"]
            into["misses"] += info["misses"]
    return merged


SUITE_LABELS = ("quon", "spin", "alpha", "coupling", "fbar", "recoupling",
                "wigner_eckart", "standard")
CHECK_SPANS = ("nonstandard.verify_cg_orthonormality", "nonstandard.verify_eigenbasis",
               "nonstandard.verify_fbar_symmetry", "nonstandard.recoupling_invariance_check",
               "nonstandard.wigner_eckart_check")
EXACT_SPANS = ("standard_wra.cg", "standard_wra.threejm", "standard_wra.sixj",
               "standard_wra.ninej")


def layer_metrics(trace: dict, traced_busy: float, untraced_busy: float) -> tuple[dict, set, set]:
    """Per-layer metrics of one traced pass, the names whose sources are absent,
    and the names whose sources this workload never called.

    Every name the tracer wrapped has an entry in stats, called or not; a
    metric none of whose sources could be wrapped is absent.
    """
    stats, counts = trace["stats"], trace["counts"]
    metrics: dict[str, float] = {}
    missing: set[str] = set()
    idle: set[str] = set()

    def put(name: str, value: float, sources) -> None:
        metrics[name] = value
        if not any(s in stats for s in sources):
            missing.add(name)
        elif not any(stats[s]["calls"] for s in sources if s in stats):
            idle.add(name)

    def spans(name: str, *sources: str, key: str = "total_s") -> None:
        put(name, sum(stats[s][key] for s in sources if s in stats), sources)

    def module_spans(module: str) -> list[str]:
        return [n for n in stats if n.startswith(module + ".")]

    def module_sum(name: str, module: str, key: str) -> None:
        put(name, sum(stats[n][key] for n in module_spans(module)), module_spans(module))

    module_sum("cli.self_s", "cli", "self_s")
    spans("cli.write_s", "cli.write_output")
    put("cli.rows", counts.get("cli.rows", 0), ("cli._table_json", "cli._table_csv"))
    put("cli.bytes", counts.get("cli.bytes", 0), ("cli.write_output",))
    suites = [f"verify.{label}" for label in SUITE_LABELS]
    for suite in suites:
        spans(f"{suite}_s", suite)
    put("verify.checks", counts.get("verify.checks", 0), suites)
    for attr in ("build_rep", "build_ur", "relation_residuals", "cyclicity_residual"):
        spans(f"quon.{attr}_s", f"quon.{attr}")
    by_k = trace["details"].get("quon.relation_residuals", {})
    put("quon.relation_residuals_max_k_s", by_k[max(by_k, key=int)] if by_k else 0.0,
        ("quon.relation_residuals",))
    module_sum("quon.calls", "quon", "calls")
    spans("su2gen.build_spin_ops_s", "su2gen.build_spin_ops")
    spans("su2gen.quon_restriction_report_s", "su2gen.quon_restriction_report")
    spans("nonstandard.basis_matrix_s", "nonstandard.basis_matrix")
    spans("nonstandard.cg_nonstandard_tensor_self_s", "nonstandard.cg_nonstandard_tensor",
          key="self_s")
    spans("nonstandard.fbar_tensor_self_s", "nonstandard.fbar_tensor", key="self_s")
    spans("nonstandard.check_s", *CHECK_SPANS)
    hits = sum(c["hits"] for c in trace["cache"].values())
    lookups = hits + sum(c["misses"] for c in trace["cache"].values())
    metrics["nonstandard.tensor_hit_ratio"] = hits / lookups if lookups else 0.0
    if not trace["cache"]:
        missing.add("nonstandard.tensor_hit_ratio")
    elif not lookups:
        idle.add("nonstandard.tensor_hit_ratio")
    spans("standard_wra.cg_tensor_s", "standard_wra.cg_tensor")
    spans("standard_wra.threejm_tensor_s", "standard_wra.threejm_tensor")
    spans("standard_wra.exact_s", *EXACT_SPANS)
    module_sum("standard_wra.calls", "standard_wra", "calls")
    covered = sum(s["self_s"] for s in stats.values())
    metrics["trace.coverage"] = covered / traced_busy
    metrics["trace.overhead_ratio"] = traced_busy / untraced_busy
    for module in MODULES:
        metrics[f"share.{module}"] = sum(stats[n]["self_s"] for n in module_spans(module)) / traced_busy
    return metrics, missing, idle


# ---------------------------------------------------------------------------
# metadata

def metadata(args: argparse.Namespace, workload: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the shape of numpy's build report differs between versions
        blas_version = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "fixed_env": FIXED_ENV,
        "load": "closed loop, one client, one job or call at a time",
    }


# ---------------------------------------------------------------------------
# running a workload

def run_workload(args: argparse.Namespace, workload: str) -> dict:
    start = time.monotonic()
    runner = Runner(start)
    try:
        return measure(args, workload, runner, start)
    finally:
        runner.close()


def measure(args: argparse.Namespace, workload: str, runner: Runner, start: float) -> dict:
    setup_cpu, setup_elapsed = zip(*(runner.setup_probe() for _ in range(SETUP_PROBES)))
    if workload in ("sweep", "sweep_warm"):
        points = sweep_points(args.seed)
        points_file = OUT / "sweep-points.json"
        points_file.write_text(json.dumps(points), encoding="utf-8")

        def one_pass(traced: bool) -> Pass:
            # A warm pass is short, so sweep_warm's warm passes fill the run,
            # one process per run: each point gets many repetitions for a
            # steady fastest time. An untraced process leaves half of what
            # is left to its traced twin.
            warm_until = 0.0
            if workload == "sweep_warm":
                now = time.monotonic()
                share = 2 if args.trace and not traced else 1
                warm_until = now + (start + args.seconds - now) / share
            return sweep_pass(runner, points_file, len(points), warm_until, traced)
    else:
        jobs = tables_jobs(args.seed) if workload == "tables" else verify_jobs(args.seed)

        def one_pass(traced: bool) -> Pass:
            return cli_pass(runner, jobs, traced)

    plain: list[Pass] = []
    traced: list[Pass] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        plain.append(one_pass(False))
        if args.trace:
            traced.append(one_pass(True))
        now = time.monotonic()
        longest = max(longest, now - began)
        if now + longest > start + args.seconds:
            break

    every = plain + traced
    record = {
        "meta": metadata(args, workload),
        "setup_s": setup_cpu,
        "setup_elapsed_s": setup_elapsed,
        "passes": [{k: getattr(p, k) for k in ("cpu_s", "busy_s", "times", "peak_rss_mb",
                                                "attempted", "failed")}
                   for p in every],
        "problems": [q for p in every for q in p.problems][:50],
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
        "end_to_end": {
            "setup_s": statistics.median(setup_cpu),
            "cpu_s": median_sum(plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        },
        "elapsed_s": {"setup": statistics.median(setup_elapsed),
                      "pass": statistics.median(p.busy_s for p in plain)},
    }
    if args.trace:
        per_pass, absent_metrics, absent_names = [], set(), set()
        idle_metrics = None
        for untraced_pass, traced_pass in zip(plain, traced):
            merged = merge_traces(traced_pass.traces)
            metrics, missing, idle = layer_metrics(merged, traced_pass.busy_s,
                                                   untraced_pass.busy_s)
            per_pass.append(metrics)
            absent_metrics |= missing
            absent_names |= merged["absent"]
            idle_metrics = idle if idle_metrics is None else idle_metrics & idle
        record["per_layer"] = {name: statistics.median(m[name] for m in per_pass)
                               for name in per_pass[0]}
        record["absent_metrics"] = sorted(absent_metrics)
        record["absent_names"] = sorted(absent_names)
        # every per-layer metric is reported on every workload; one whose
        # layer this workload bypasses reports its measured 0 and is listed here
        record["not_called"] = sorted(idle_metrics)
    return record


def summarize(workload: str, record: dict, spec: dict) -> None:
    e2e, attempted, failed = record["end_to_end"], record["attempted"], record["failed"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    parts = [f"{name} {value:.4g} {units.get(name, '')}".rstrip() for name, value in e2e.items()]
    parts.append(f"error_rate {failed / attempted:.4g} ({failed}/{attempted} operations)")
    parts.append("elapsed: setup_s {setup:.4g} s, wall_s {pass:.4g} s".format(**record["elapsed_s"]))
    print(f"{workload:7s} " + "  ".join(parts), file=sys.stderr)
    for problem in record["problems"][:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    if "per_layer" in record:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["per_layer"].items():
            mark = ("  (absent)" if name in record["absent_metrics"]
                    else "  (not called on this workload)" if name in record["not_called"]
                    else "")
            print(f"  {name:45s} {value:12.6g} {layer_units.get(name, 'share')}{mark}",
                  file=sys.stderr)
        if record["absent_names"]:
            print(f"  names not found in the package: {', '.join(record['absent_names'])}",
                  file=sys.stderr)


def result_line(records: dict[str, dict], spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for workload, record in records.items():
        values = record["per_layer"] if trace else record["end_to_end"]
        prefix = "" if len(records) == 1 else f"{workload}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wigner_nonstd" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for workload in workloads:
        record = run_workload(args, workload)
        records[workload] = record
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / "results" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps({"meta": record["meta"]}), file=sys.stderr)
        summarize(workload, record, spec)
    print(json.dumps(result_line(records, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
