"""Outside correctness checks on what the program wrote.

Each check reads an output file the way a user would and tests an
invariant of its content, not a byte digest, so last-bit changes in the
values do not count as failures. Tolerances are the package's own
`verify.DEFAULT_TOLERANCES`, passed in by the caller. Every check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

# Relative agreement required between an "exact" string and its float value.
EXACT_REL_TOL = 1e-12


def read_table(path: str, fmt: str) -> list[tuple[tuple[str, ...], complex, str | None]]:
    """Rows of a tabulate-* output as (labels, value, exact string or None)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return [(tuple(row["labels"]), complex(*row["value"]), row.get("exact"))
                for row in payload["rows"]]
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    header, body = records[0], records[1:]
    n_labels = header.index("re")
    has_exact = header[-1] == "exact"
    return [(tuple(rec[:n_labels]), complex(float(rec[n_labels]), float(rec[n_labels + 1])),
             rec[-1] if has_exact else None)
            for rec in body]


def _dim(label: str) -> int:
    return int(2 * Fraction(label)) + 1


def _max_unitarity_defect(w: np.ndarray) -> float:
    eye = np.eye(w.shape[0])
    return float(max(np.max(np.abs(w.conj().T @ w - eye)), np.max(np.abs(w @ w.conj().T - eye))))


def check_cg_table(rows, tolerances: dict, r_count: int) -> list[str]:
    """Rebuild W[(alpha1 alpha2), (j alpha)] for each r and test its unitarity."""
    groups: dict[str, dict] = defaultdict(dict)
    for (j1, j2, j, r, a1, a2, a), value, _ in rows:
        groups[r][(a1, a2), (j, a)] = value
    problems = []
    if len(groups) != r_count:
        problems.append(f"cg: expected {r_count} r values, found {len(groups)}")
    tol = tolerances["coupling.orthonormality"]
    d12 = _dim(rows[0][0][0]) * _dim(rows[0][0][1]) if rows else 0
    for r, entries in groups.items():
        # any consistent ordering will do: unitarity survives permutations
        row_keys = sorted({key[0] for key in entries})
        col_keys = sorted({key[1] for key in entries})
        if not len(row_keys) == len(col_keys) == d12 or len(entries) != d12 * d12:
            problems.append(f"cg r={r}: {len(entries)} entries do not form a "
                            f"{d12}x{d12} coupling matrix")
            continue
        row_index = {key: i for i, key in enumerate(row_keys)}
        col_index = {key: i for i, key in enumerate(col_keys)}
        w = np.zeros((d12, d12), dtype=complex)
        for (row_key, col_key), value in entries.items():
            w[row_index[row_key], col_index[col_key]] = value
        defect = _max_unitarity_defect(w)
        if not defect <= tol:
            problems.append(f"cg r={r}: unitarity defect {defect:.3e} > {tol:.1e}")
    if sum(len(e) for e in groups.values()) != len(rows):
        problems.append("cg: duplicate label rows")
    return problems


def check_fbar_table(rows, tolerances: dict, r_count: int) -> list[str]:
    """Realness parity: real for integer j1+j2+j3 even, imaginary for odd."""
    tol = tolerances["fbar.parity"]
    worst = 0.0
    for (j1, j2, j3, *_), value, _ in rows:
        twice_sum = int(2 * (Fraction(j1) + Fraction(j2) + Fraction(j3)))
        part = value.imag if (twice_sum // 2) % 2 == 0 else value.real
        worst = max(worst, abs(part))
    problems = []
    if rows:
        j1, j2, j3 = rows[0][0][:3]
        expected = _dim(j1) * _dim(j2) * _dim(j3) * r_count
        if len(rows) != expected:
            problems.append(f"fbar: {len(rows)} rows, expected {expected}")
    else:
        problems.append("fbar: no rows")
    if not worst <= tol:
        problems.append(f"fbar: parity residual {worst:.3e} > {tol:.1e}")
    return problems


def exact_value(text: str) -> float:
    """Float of an exact string such as "-sqrt(5/72)", "1/18" or "0"."""
    sign = -1.0 if text.startswith("-") else 1.0
    body = text.lstrip("-")
    if body.startswith("sqrt(") and body.endswith(")"):
        return sign * math.sqrt(Fraction(body[5:-1]))
    return sign * float(Fraction(body))


def check_standard_table(rows, tolerances: dict, r_count: int) -> list[str]:
    """Every row's exact string must agree with its value column."""
    problems = []
    if rows:
        expected = math.prod(_dim(j) for j in rows[0][0][:3])
        if len(rows) != expected:
            problems.append(f"standard: {len(rows)} rows, expected {expected}")
    else:
        problems.append("standard: no rows")
    for labels, value, exact in rows:
        if exact is None:
            problems.append(f"standard {labels}: no exact string")
            break
        target = exact_value(exact)
        if value.imag != 0.0 or abs(value.real - target) > EXACT_REL_TOL * max(1.0, abs(target)):
            problems.append(f"standard {labels}: value {value} disagrees with exact {exact}")
            break
    return problems


def check_export_ops(path: str, tolerances: dict, r_count: int) -> list[str]:
    """J+ = H U_r, U_r unitary, and J^2 = J-J+ + J3^2 + J3 = j(j+1)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = []
    exports = payload["exports"]
    if len(exports) != r_count:
        problems.append(f"export-ops: expected {r_count} exports, found {len(exports)}")
    for export in exports:
        ops = {name: np.array(entries, dtype=float).view(complex)[..., 0]
               for name, entries in export["operators"].items()}
        jf = float(Fraction(export["j"]))
        dim = _dim(export["j"])
        if any(op.shape != (dim, dim) for op in ops.values()):
            problems.append(f"export-ops j={export['j']}: operator shape is not {dim}x{dim}")
            continue
        eye = np.eye(dim)
        polar = max(float(np.max(np.abs(ops["j_plus"] - ops["h"] @ ops["u_r"]))),
                    float(np.max(np.abs(ops["u_r"].conj().T @ ops["u_r"] - eye))))
        j3 = ops["j3"]
        rebuilt = ops["j_minus"] @ ops["j_plus"] + j3 @ j3 + j3
        casimir = max(float(np.max(np.abs(ops["j_squared"] - jf * (jf + 1.0) * eye))),
                      float(np.max(np.abs(ops["j_squared"] - rebuilt))))
        where = f"export-ops j={export['j']} r={export['r']}"
        if not polar <= tolerances["spin.structure"]:
            problems.append(f"{where}: J+ = H U_r residual {polar:.3e}")
        if not casimir <= tolerances["spin.casimir"]:
            problems.append(f"{where}: Casimir residual {casimir:.3e}")
    return problems


def expected_verify_checks(config: dict) -> int:
    """Number of checks the suites emit for a report's config.

    Mirrors the grids of the eight suites: quon relations and cyclicity per
    k (w_infinity for k <= 6), five spin checks per (j, r) plus the quon
    restriction for k <= 10, two alpha checks per (j, r), 16 coupling pairs
    (two checks each) plus one random draw per r, two fbar checks per r,
    recoupling for the first two r, Wigner-Eckart for 7 j x 2 ranks, and
    three exact-layer checks.
    """
    n_j = int(2 * Fraction(config["j_max"])) + 1
    n_r = len(config["r_values"])
    ks = config["k_values"]
    quon = len(ks) * (2 + n_r) + sum(1 for k in ks if k <= 6)
    spin = 5 * n_j * n_r + n_r * sum(1 for k in ks if k <= 10)
    alpha = 2 * n_j * n_r
    coupling = 2 * 16 * n_r + n_r
    fbar = 2 * n_r
    recoupling = min(2, n_r)
    wigner_eckart = 7 * 2 * n_r + 7 * 2
    standard = 3
    return quon + spin + alpha + coupling + fbar + recoupling + wigner_eckart + standard


def check_verify_report(path: str, tolerances: dict, r_count: int) -> list[str]:
    """all_pass is true, the check count is as expected, and no residual exceeds its default tolerance."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    expected = expected_verify_checks(report["config"])
    if report["total"] != expected or len(report["checks"]) != expected:
        problems.append(f"verify: {report['total']} checks, expected {expected}")
    if report["all_pass"] is not True or report["failed"] != 0:
        problems.append(f"verify: all_pass={report['all_pass']} failed={report['failed']}")
    for check in report["checks"]:
        if not check["residual"] <= tolerances[check["check"]]:
            problems.append(f"verify {check['check']} {check['parameters']}: "
                            f"residual {check['residual']:.3e}")
    return problems


TABLE_CHECKS = {"cg": check_cg_table, "fbar": check_fbar_table, "standard": check_standard_table}


def check_output(kind: str, path: str, fmt: str, tolerances: dict, r_count: int) -> list[str]:
    """Dispatch on the job kind: cg, fbar, standard, export or verify.

    An output too malformed to check is itself a problem, not a crash.
    """
    try:
        if kind == "export":
            return check_export_ops(path, tolerances, r_count)
        if kind == "verify":
            return check_verify_report(path, tolerances, r_count)
        return TABLE_CHECKS[kind](read_table(path, fmt), tolerances, r_count)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_sweep_point(point: dict, tolerances: dict) -> list[str]:
    """One sweep point's residuals within the package's default tolerances."""
    if "error" in point:
        return [point["error"].strip().splitlines()[-1]]
    return [f"{name} {value:.3e} > {tolerances[name]:.1e}"
            for name, value in point.items() if not value <= tolerances[name]]
