"""Invariant suites behind the `verify` command.

Each suite sweeps one family of identities over a configured grid and
reduces every parameter point to a named residual. All checks are pure;
the only state is the seeded generator used for random label sampling,
whose seed is recorded in the report. The suites run in order in one
thread: their time goes to Python under the GIL (Fraction arithmetic,
small matrices), so threads would buy nothing. Results are sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .halfint import HalfInt, coupled_j_values, m_values, triangle
from .quon import (
    build_rep,
    build_ur,
    build_v,
    cyclicity_residual,
    relation_residuals,
    wrap_phase,
)
from .standard_wra import IncompatibleRadicalError, RadicalSum, cg, sixj, threejm
from .su2gen import (
    SpinSpace,
    build_spin_ops,
    casimir_identities,
    quon_restriction_report,
    verify_su2,
)
from .nonstandard import (
    alpha_labels,
    cg_nonstandard_tensor,
    fbar_tensor,
    recoupling_invariance_check,
    spherical_tensor_from_j,
    verify_cg_orthonormality,
    verify_eigenbasis,
    verify_fbar_symmetry,
    wigner_eckart_check,
)

DEFAULT_TOLERANCES: dict[str, float] = {
    "quon.relations": 1e-12,
    "quon.nilpotency": 0.0,
    "quon.cyclicity": 1e-10,
    "quon.w_infinity": 1e-10,
    "spin.cyclicity": 1e-10,
    "spin.commutators": 1e-11,
    "spin.structure": 1e-12,
    "spin.casimir": 1e-11,
    "spin.quon_restriction": 1e-12,
    "spin.u_spectrum": 1e-10,
    "alpha.eigen": 1e-10,
    "alpha.unitarity": 1e-12,
    "coupling.orthonormality": 1e-10,
    "coupling.orthonormality_random": 1e-10,
    "coupling.interchange": 1e-10,
    "fbar.symmetry": 1e-10,
    "fbar.parity": 1e-10,
    "recoupling.sixj": 1e-9,
    "wigner_eckart.residual": 1e-9,
    "wigner_eckart.r_independent": 1e-9,
    "standard.cg_orthogonality": 0.0,
    "standard.threejm_symmetry": 0.0,
    "standard.sixj_symmetry": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    """One named residual with its tolerance and parameter point."""

    name: str
    parameters: dict
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "parameters": self.parameters,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


@dataclass
class VerifyConfig:
    """Grid over which the suites run; tol, when set, overrides every default."""

    j_max: HalfInt = HalfInt(25)
    r_values: tuple[float, ...] = (0.0, 0.37, 1.0, 2.5)
    k_values: tuple[int, ...] = tuple(range(2, 13))
    tol: float | None = None
    seed: int = 20260823

    def tolerance(self, name: str) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOLERANCES[name]

    def j_sweep(self) -> list[HalfInt]:
        return [HalfInt(t) for t in range(self.j_max.twice + 1)]


# ---------------------------------------------------------------------------
# quon suite

def _w_infinity_residual(k: int) -> float:
    """Worst sine-bracket residual over all m, n in [0, k-1]^2, on dense k^2 x k^2 matrices."""
    rep = build_rep(k)
    u = build_ur(rep, 0.0).dense()
    v = np.diag(build_v(rep).ravel())
    top = 2 * (k - 1)
    u_pow = [np.eye(rep.dim, dtype=complex)]
    v_pow = [np.eye(rep.dim, dtype=complex)]
    for _ in range(top):
        u_pow.append(u_pow[-1] @ u)
        v_pow.append(v_pow[-1] @ v)
    t = {
        (m1, m2): rep.deformation.q_power(m1 * m2) * (u_pow[m1] @ v_pow[m2])
        for m1 in range(top + 1)
        for m2 in range(top + 1)
    }
    worst = 0.0
    grid = list(itertools.product(range(k), repeat=2))
    for m1, m2 in grid:
        t_m = t[(m1, m2)]
        for n1, n2 in grid:
            cross = (m1 * n2 - m2 * n1) % k
            coeff = -2j * math.sin(2.0 * math.pi * cross / k)
            t_n = t[(n1, n2)]
            res = t_m @ t_n - t_n @ t_m - coeff * t[(m1 + n1, m2 + n2)]
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def quon_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    for k in config.k_values:
        rep = build_rep(k)
        res = relation_residuals(rep)
        nil_keys = [key for key in res if key.endswith("nilpotent")]
        out.append(CheckResult(
            "quon.relations", {"k": k},
            max(v for key, v in res.items() if key not in nil_keys),
            config.tolerance("quon.relations")))
        out.append(CheckResult(
            "quon.nilpotency", {"k": k},
            max(res[key] for key in nil_keys),
            config.tolerance("quon.nilpotency")))
        for r in config.r_values:
            out.append(CheckResult(
                "quon.cyclicity", {"k": k, "r": r},
                cyclicity_residual(rep, wrap_phase(k, r)),
                config.tolerance("quon.cyclicity")))
    for k in config.k_values:
        if k <= 6:
            out.append(CheckResult(
                "quon.w_infinity", {"k": k},
                _w_infinity_residual(k),
                config.tolerance("quon.w_infinity")))
    return out


# ---------------------------------------------------------------------------
# spin suite

def _spin_cyclicity_residual(space: SpinSpace) -> float:
    ops = build_spin_ops(space)
    target = space.wrap_factor * np.eye(space.dim, dtype=complex)
    return float(np.max(np.abs(np.linalg.matrix_power(ops.u_r, space.dim) - target)))


def _u_spectrum_residual(space: SpinSpace) -> float:
    """Greedy multiset match of eigvals(U_r) against the predicted phases."""
    ops = build_spin_ops(space)
    computed = list(np.linalg.eigvals(ops.u_r))
    worst = 0.0
    for label in alpha_labels(space):
        gaps = [abs(value - label.eigenvalue) for value in computed]
        best = min(range(len(gaps)), key=gaps.__getitem__)
        worst = max(worst, gaps[best])
        computed.pop(best)
    return worst


_COMMUTATOR_KEYS = ("comm_j3_jplus", "comm_j3_jminus", "comm_jplus_jminus")


def spin_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    for j in config.j_sweep():
        for r in config.r_values:
            space = SpinSpace(j, r)
            ops = build_spin_ops(space)
            su2_report = verify_su2(ops).residuals
            jt = str(j)
            out.append(CheckResult(
                "spin.commutators", {"j": jt, "r": r},
                max(su2_report[key] for key in _COMMUTATOR_KEYS),
                config.tolerance("spin.commutators")))
            out.append(CheckResult(
                "spin.structure", {"j": jt, "r": r},
                max(v for key, v in su2_report.items() if key not in _COMMUTATOR_KEYS),
                config.tolerance("spin.structure")))
            out.append(CheckResult(
                "spin.casimir", {"j": jt, "r": r},
                casimir_identities(ops).worst(),
                config.tolerance("spin.casimir")))
            out.append(CheckResult(
                "spin.cyclicity", {"j": jt, "r": r},
                _spin_cyclicity_residual(space),
                config.tolerance("spin.cyclicity")))
            out.append(CheckResult(
                "spin.u_spectrum", {"j": jt, "r": r},
                _u_spectrum_residual(space),
                config.tolerance("spin.u_spectrum")))
    for k in config.k_values:
        if k <= 10:
            rep = build_rep(k)
            for r in config.r_values:
                out.append(CheckResult(
                    "spin.quon_restriction", {"k": k, "r": r},
                    quon_restriction_report(rep, r).worst(),
                    config.tolerance("spin.quon_restriction")))
    return out


# ---------------------------------------------------------------------------
# alpha-scheme suite

def alpha_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    for j in config.j_sweep():
        for r in config.r_values:
            report = verify_eigenbasis(SpinSpace(j, r)).residuals
            jt = str(j)
            out.append(CheckResult(
                "alpha.eigen", {"j": jt, "r": r},
                max(report["u_eigen"], report["casimir_eigen"], report["diagonalized_u"]),
                config.tolerance("alpha.eigen")))
            out.append(CheckResult(
                "alpha.unitarity", {"j": jt, "r": r},
                report["overlap_unitary"],
                config.tolerance("alpha.unitarity")))
    return out


def _interchange_residual(j1: HalfInt, j2: HalfInt, r: float) -> float:
    """Swap symmetry of the coupling coefficients against (-1)^(j1+j2-j)."""
    sp1, sp2 = SpinSpace(j1, r), SpinSpace(j2, r)
    worst = 0.0
    for j in coupled_j_values(j1, j2):
        sp = SpinSpace(j, r)
        direct = cg_nonstandard_tensor(sp1, sp2, sp)
        swapped = np.transpose(cg_nonstandard_tensor(sp2, sp1, sp), (1, 0, 2))
        sign = -1.0 if ((j1.twice + j2.twice - j.twice) // 2) % 2 else 1.0
        worst = max(worst, float(np.max(np.abs(swapped - sign * direct))))
    return worst


def coupling_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    small = [HalfInt(t) for t in range(4)]
    for r in config.r_values:
        for j1, j2 in itertools.product(small, repeat=2):
            out.append(CheckResult(
                "coupling.orthonormality", {"j1": str(j1), "j2": str(j2), "r": r},
                verify_cg_orthonormality(SpinSpace(j1, r), SpinSpace(j2, r)).worst(),
                config.tolerance("coupling.orthonormality")))
            out.append(CheckResult(
                "coupling.interchange", {"j1": str(j1), "j2": str(j2), "r": r},
                _interchange_residual(j1, j2, r),
                config.tolerance("coupling.interchange")))
    rng = np.random.default_rng(config.seed)
    samples = 100
    for r in config.r_values:
        worst = 0.0
        for _ in range(samples):
            j1 = HalfInt(int(rng.integers(0, 9)))
            j2 = HalfInt(int(rng.integers(0, 9)))
            worst = max(worst, verify_cg_orthonormality(
                SpinSpace(j1, r), SpinSpace(j2, r)).worst())
        out.append(CheckResult(
            "coupling.orthonormality_random",
            {"samples": samples, "seed": config.seed, "j_max": "4", "r": r},
            worst, config.tolerance("coupling.orthonormality_random")))
    return out


def fbar_suite(config: VerifyConfig) -> list[CheckResult]:
    """Permutation/conjugation rules and realness parity, j1+j2+j3 <= 9/2."""
    out = []
    triples = [
        (t1, t2, t3)
        for t1 in range(10) for t2 in range(10) for t3 in range(10)
        if t1 + t2 + t3 <= 9
    ]
    for r in config.r_values:
        worst_sym = 0.0
        worst_parity = 0.0
        for t1, t2, t3 in triples:
            spaces = (SpinSpace(HalfInt(t1), r), SpinSpace(HalfInt(t2), r),
                      SpinSpace(HalfInt(t3), r))
            worst_sym = max(worst_sym, verify_fbar_symmetry(*spaces).worst())
            tensor = fbar_tensor(*spaces)
            if ((t1 + t2 + t3) // 2) % 2 == 0:
                worst_parity = max(worst_parity, float(np.max(np.abs(tensor.imag))))
            else:
                worst_parity = max(worst_parity, float(np.max(np.abs(tensor.real))))
        out.append(CheckResult(
            "fbar.symmetry", {"sum_max": "9/2", "r": r},
            worst_sym, config.tolerance("fbar.symmetry")))
        out.append(CheckResult(
            "fbar.parity", {"sum_max": "9/2", "r": r},
            worst_parity, config.tolerance("fbar.parity")))
    return out


def _recoupling_paths(limit: HalfInt) -> list[tuple[HalfInt, ...]]:
    """All (j1, j2, j3, j12, j23, j) with every entry <= limit and triads valid."""
    values = [HalfInt(t) for t in range(limit.twice + 1)]
    paths = []
    for j1, j2, j3 in itertools.product(values, repeat=3):
        for j12 in coupled_j_values(j1, j2):
            if j12.twice > limit.twice:
                continue
            for j23 in coupled_j_values(j2, j3):
                if j23.twice > limit.twice:
                    continue
                for j in coupled_j_values(j12, j3):
                    if j.twice > limit.twice or not triangle(j1, j23, j):
                        continue
                    paths.append((j1, j2, j3, j12, j23, j))
    return paths


def recoupling_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    paths = _recoupling_paths(HalfInt(3))
    for r in config.r_values[:2]:
        worst = 0.0
        for j1, j2, j3, j12, j23, j in paths:
            report = recoupling_invariance_check(j1, j2, j3, j12, j23, j, r)
            worst = max(worst, report.worst())
        out.append(CheckResult(
            "recoupling.sixj", {"args_max": "3/2", "paths": len(paths), "r": r},
            worst, config.tolerance("recoupling.sixj")))
    return out


def wigner_eckart_suite(config: VerifyConfig) -> list[CheckResult]:
    out = []
    reduced: dict[tuple[str, int], list[complex]] = {}
    for t in range(7):
        j = HalfInt(t)
        for rank in (1, 2):
            for r in config.r_values:
                ops = build_spin_ops(SpinSpace(j, r))
                result = wigner_eckart_check(spherical_tensor_from_j(ops, rank))
                out.append(CheckResult(
                    "wigner_eckart.residual", {"j": str(j), "rank": rank, "r": r},
                    result.residual, config.tolerance("wigner_eckart.residual")))
                reduced.setdefault((str(j), rank), []).append(result.reduced_element)
    for (jt, rank), values in sorted(reduced.items()):
        spread = max(abs(v - values[0]) for v in values)
        out.append(CheckResult(
            "wigner_eckart.r_independent", {"j": jt, "rank": rank},
            spread, config.tolerance("wigner_eckart.r_independent")))
    return out


# ---------------------------------------------------------------------------
# standard-layer exactness suite (zero rational residue)

def _exact_cg_orthogonality_violations(limit: HalfInt) -> int:
    """Count label sets where either orthonormality relation has a residue."""
    bad = 0
    values = [HalfInt(t) for t in range(limit.twice + 1)]
    for j1, j2 in itertools.product(values, repeat=2):
        pairs = [(m1, m2) for m1 in m_values(j1) for m2 in m_values(j2)]
        coupled = [(j, m) for j in coupled_j_values(j1, j2) for m in m_values(j)]
        for (j, m), (jp, mp) in itertools.product(coupled, repeat=2):
            total = RadicalSum()
            for m1, m2 in pairs:
                total.add(cg(j1, j2, m1, m2, j, m) * cg(j1, j2, m1, m2, jp, mp))
            if j == jp and m == mp:
                total.add_term(Fraction(-1), Fraction(1))
            if not total.is_zero():
                bad += 1
        for (m1, m2), (m1p, m2p) in itertools.product(pairs, repeat=2):
            total = RadicalSum()
            for j, m in coupled:
                total.add(cg(j1, j2, m1, m2, j, m) * cg(j1, j2, m1p, m2p, j, m))
            if m1 == m1p and m2 == m2p:
                total.add_term(Fraction(-1), Fraction(1))
            if not total.is_zero():
                bad += 1
    return bad


def _exact_threejm_symmetry_violations(limit: HalfInt) -> int:
    """Cyclic, odd-permutation and m-negation rules as exact equalities."""
    bad = 0
    values = [HalfInt(t) for t in range(limit.twice + 1)]
    for j1, j2, j3 in itertools.product(values, repeat=3):
        if not triangle(j1, j2, j3):
            continue
        sign_exp = (j1.twice + j2.twice + j3.twice) // 2
        for m1 in m_values(j1):
            for m2 in m_values(j2):
                m3 = -(m1 + m2)
                if abs(m3.twice) > j3.twice:
                    continue
                base = threejm(j1, j2, j3, m1, m2, m3)
                signed = -base if sign_exp % 2 else base
                try:
                    checks = (
                        threejm(j2, j3, j1, m2, m3, m1) == base,
                        threejm(j3, j1, j2, m3, m1, m2) == base,
                        threejm(j2, j1, j3, m2, m1, m3) == signed,
                        threejm(j1, j2, j3, -m1, -m2, -m3) == signed,
                    )
                    if not all(checks):
                        bad += 1
                except IncompatibleRadicalError:
                    bad += 1
    return bad


def _exact_sixj_symmetry_violations(limit: HalfInt) -> int:
    """Column permutations and row-pair swaps as exact equalities."""
    bad = 0
    values = [HalfInt(t) for t in range(limit.twice + 1)]
    for args in itertools.product(values, repeat=6):
        j1, j2, j3, j4, j5, j6 = args
        base = sixj(j1, j2, j3, j4, j5, j6)
        columns = ((j1, j4), (j2, j5), (j3, j6))
        ok = True
        for perm in itertools.permutations(range(3)):
            top = [columns[p][0] for p in perm]
            bottom = [columns[p][1] for p in perm]
            if sixj(top[0], top[1], top[2], bottom[0], bottom[1], bottom[2]) != base:
                ok = False
        swaps = (
            (j4, j5, j3, j1, j2, j6),
            (j4, j2, j6, j1, j5, j3),
            (j1, j5, j6, j4, j2, j3),
        )
        for swapped in swaps:
            if sixj(*swapped) != base:
                ok = False
        if not ok:
            bad += 1
    return bad


def standard_suite(config: VerifyConfig) -> list[CheckResult]:
    limit = HalfInt(4)
    return [
        CheckResult("standard.cg_orthogonality", {"args_max": "2"},
                    float(_exact_cg_orthogonality_violations(limit)),
                    config.tolerance("standard.cg_orthogonality")),
        CheckResult("standard.threejm_symmetry", {"args_max": "2"},
                    float(_exact_threejm_symmetry_violations(limit)),
                    config.tolerance("standard.threejm_symmetry")),
        CheckResult("standard.sixj_symmetry", {"args_max": "2"},
                    float(_exact_sixj_symmetry_violations(limit)),
                    config.tolerance("standard.sixj_symmetry")),
    ]


# ---------------------------------------------------------------------------

SUITES = (
    quon_suite,
    spin_suite,
    alpha_suite,
    coupling_suite,
    fbar_suite,
    recoupling_suite,
    wigner_eckart_suite,
    standard_suite,
)


def run_suites(config: VerifyConfig) -> list[CheckResult]:
    """Run every suite and return results in a deterministic order."""
    results = [item for suite in SUITES for item in suite(config)]
    results.sort(key=lambda c: (c.name, sorted((k, str(v)) for k, v in c.parameters.items())))
    return results


def report_dict(results: list[CheckResult], config: VerifyConfig) -> dict:
    failed = [c for c in results if not c.passed]
    return {
        "config": {
            "j_max": str(config.j_max),
            "r_values": list(config.r_values),
            "k_values": list(config.k_values),
            "tol_override": config.tol,
            "seed": config.seed,
        },
        "total": len(results),
        "failed": len(failed),
        "all_pass": not failed,
        "checks": [c.as_dict() for c in results],
    }
