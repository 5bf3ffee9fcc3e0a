"""Invariant suites behind the `verify` command.

Each suite sweeps one family of identities over a grid and yields a
(check, point, residual) triple for every residual it computes. Rows are
made in one place, the _suite reducer, as the dicts the report prints: it
keeps one row per (check, point) at its largest residual, a NaN at any
point winning so that the row fails, under the check's default tolerance
or config.tol. The j, r and k grids come from VerifyConfig; each suite's
fixed cap on them is one module-level value (the *_MAX constants and
RANDOM_SAMPLES below), and the report's cap strings are derived from
those values. All checks are pure; the only state is the seeded generator
used for random label sampling, the standard library's random.Random
(Mersenne Twister), whose stream for an int seed is the same on every
CPython 3 version and platform; the seed is recorded in the report. The
suites run in order in one thread: their time goes to Python under the
GIL (Fraction arithmetic, small matrices), so threads would buy nothing.
Results are sorted.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .halfint import HalfInt, coupled_j_values, m_values, triangle
from .quon import (
    QuonRep,
    build_rep,
    build_ur,
    cyclicity_residual,
    relation_residuals,
    w_algebra_residual,
)
from .standard_wra import RadicalSum, cg, sixj, threejm
from .su2gen import (
    ResidualReport,
    SpinOperatorSet,
    SpinSpace,
    build_spin_ops,
    casimir_identities,
    quon_restriction_report,
    restrict_fock_operator,
    verify_su2,
    winding_turns,
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

# Fixed caps on each suite's grid, whatever j_max, k_values and r_values say.
W_INFINITY_K_MAX = 6             # the sine bracket is checked on dense k^2 x k^2 matrices
RESTRICTION_K_MAX = 10
COUPLING_J_MAX = HalfInt(3)      # 3/2
RANDOM_J_MAX = HalfInt(8)        # 4, for the seeded random coupling draws
RANDOM_SAMPLES = 100
FBAR_SUM_MAX = HalfInt(9)        # 9/2, on j1 + j2 + j3
RECOUPLING_J_MAX = HalfInt(3)    # 3/2, on every argument of a recoupling path
RECOUPLING_R_COUNT = 2           # recoupling runs on the first r values only
WIGNER_ECKART_J_MAX = HalfInt(6)  # 3
STANDARD_J_MAX = HalfInt(4)      # 2, on every argument of the exact symbols


@dataclass
class VerifyConfig:
    """Grid over which the suites run; tol, when set, overrides every default."""

    j_max: HalfInt = HalfInt(25)
    r_values: tuple[float, ...] = (0.0, 0.37, 1.0, 2.5)
    k_values: tuple[int, ...] = tuple(range(2, 13))
    tol: float | None = None
    seed: int = 20260823


# What a suite generator yields: (check name, parameter point, residual).
_Residuals = Iterator[tuple[str, dict, float]]


def _suite(generate: Callable[[VerifyConfig], _Residuals]) -> Callable[..., list[dict]]:
    """The list-returning suite that reduces generate's residuals to report rows.

    One row per (check, point), at its largest residual; a NaN at any point
    wins, and fails the row's "pass". Residual and tolerance are made plain
    floats, whose repr the CSV writer prints (a numpy float's repr is not).
    """
    @functools.wraps(generate)
    def suite(config: VerifyConfig) -> list[dict]:
        worst: dict[tuple[str, tuple], float] = {}
        for name, point, residual in generate(config):
            key = (name, tuple(point.items()))
            prior = worst.get(key, residual)
            worst[key] = prior if math.isnan(prior) or prior >= residual else residual
        rows = []
        for (name, point), residual in worst.items():
            tolerance = float(DEFAULT_TOLERANCES[name] if config.tol is None else config.tol)
            rows.append({"check": name, "parameters": dict(point), "residual": float(residual),
                         "tolerance": tolerance, "pass": bool(residual <= tolerance)})
        return rows
    return suite


def _each(name: str, point: dict, report: ResidualReport) -> _Residuals:
    """Every named residual of report, under check name at point."""
    return ((name, point, value) for value in report.residuals.values())


def _spins(limit: HalfInt) -> list[HalfInt]:
    """0, 1/2, 1, ..., limit."""
    return [HalfInt(t) for t in range(limit.twice + 1)]


# ---------------------------------------------------------------------------
# quon suite

def _multiplet_wrap_residual(rep: QuonRep, turns: Fraction, r: float) -> float:
    """|U_r's wrap entry on the diagonal multiplet - the spin layer's e^(i phi_r)|.

    cyclicity_residual holds for any turns; this ties them to phi_r = 2 pi j r.
    """
    block, _ = restrict_fock_operator(build_ur(rep, turns), rep.k)
    return float(abs(block[0, rep.k - 1] - SpinSpace(HalfInt(rep.k - 1), r).wrap_factor))


@_suite
def quon_suite(config: VerifyConfig) -> _Residuals:
    for k in config.k_values:
        rep = build_rep(k)
        for key, value in relation_residuals(rep).items():
            name = "quon.nilpotency" if key.endswith("nilpotent") else "quon.relations"
            yield name, {"k": k}, value
        for r in config.r_values:
            turns = Fraction(*winding_turns(HalfInt(k - 1), r))
            yield "quon.cyclicity", {"k": k, "r": r}, cyclicity_residual(rep, turns)
            yield "quon.cyclicity", {"k": k, "r": r}, _multiplet_wrap_residual(rep, turns, r)
        if k <= W_INFINITY_K_MAX:
            yield "quon.w_infinity", {"k": k}, w_algebra_residual(rep, 0.0)


# ---------------------------------------------------------------------------
# spin suite

def _spin_cyclicity_residual(ops: SpinOperatorSet) -> float:
    space = ops.space
    target = space.wrap_factor * np.eye(space.dim, dtype=complex)
    return float(np.max(np.abs(np.linalg.matrix_power(ops.u_r, space.dim) - target)))


def _u_spectrum_gaps(ops: SpinOperatorSet) -> Iterator[float]:
    """Greedy multiset match of eigvals(U_r) against the predicted phases, one gap per label."""
    computed = list(np.linalg.eigvals(ops.u_r))
    for label in alpha_labels(ops.space):
        gaps = [abs(value - label.eigenvalue) for value in computed]
        best = min(range(len(gaps)), key=gaps.__getitem__)
        yield gaps[best]
        computed.pop(best)


@_suite
def spin_suite(config: VerifyConfig) -> _Residuals:
    for j in _spins(config.j_max):
        for r in config.r_values:
            ops = build_spin_ops(SpinSpace(j, r))
            point = {"j": str(j), "r": r}
            for key, value in verify_su2(ops).residuals.items():
                name = "spin.commutators" if key.startswith("comm_") else "spin.structure"
                yield name, point, value
            yield from _each("spin.casimir", point, casimir_identities(ops))
            yield "spin.cyclicity", point, _spin_cyclicity_residual(ops)
            for gap in _u_spectrum_gaps(ops):
                yield "spin.u_spectrum", point, gap
    for k in config.k_values:
        if k <= RESTRICTION_K_MAX:
            rep = build_rep(k)
            for r in config.r_values:
                yield from _each("spin.quon_restriction", {"k": k, "r": r},
                                 quon_restriction_report(rep, r))


# ---------------------------------------------------------------------------
# alpha-scheme suite

@_suite
def alpha_suite(config: VerifyConfig) -> _Residuals:
    for j in _spins(config.j_max):
        for r in config.r_values:
            point = {"j": str(j), "r": r}
            for key, value in verify_eigenbasis(SpinSpace(j, r)).residuals.items():
                name = "alpha.unitarity" if key == "overlap_unitary" else "alpha.eigen"
                yield name, point, value


@_suite
def coupling_suite(config: VerifyConfig) -> _Residuals:
    for r in config.r_values:
        for j1, j2 in itertools.product(_spins(COUPLING_J_MAX), repeat=2):
            point = {"j1": str(j1), "j2": str(j2), "r": r}
            sp1, sp2 = SpinSpace(j1, r), SpinSpace(j2, r)
            yield from _each("coupling.orthonormality", point, verify_cg_orthonormality(sp1, sp2))
            # swap symmetry of the coupling coefficients against (-1)^(j1+j2-j)
            for j in coupled_j_values(j1, j2):
                sp = SpinSpace(j, r)
                direct = cg_nonstandard_tensor(sp1, sp2, sp)
                swapped = np.transpose(cg_nonstandard_tensor(sp2, sp1, sp), (1, 0, 2))
                sign = -1.0 if ((j1.twice + j2.twice - j.twice) // 2) % 2 else 1.0
                yield "coupling.interchange", point, float(np.max(np.abs(swapped - sign * direct)))
    rng = random.Random(config.seed)
    for r in config.r_values:
        point = {"samples": RANDOM_SAMPLES, "seed": config.seed, "j_max": str(RANDOM_J_MAX), "r": r}
        # a repeated draw gives the same residual, so each distinct pair runs once, in draw order
        draws = [HalfInt(rng.randrange(RANDOM_J_MAX.twice + 1)) for _ in range(2 * RANDOM_SAMPLES)]
        for j1, j2 in dict.fromkeys(zip(draws[::2], draws[1::2])):
            yield from _each("coupling.orthonormality_random", point,
                             verify_cg_orthonormality(SpinSpace(j1, r), SpinSpace(j2, r)))


@_suite
def fbar_suite(config: VerifyConfig) -> _Residuals:
    """Permutation/conjugation rules and realness parity, j1 + j2 + j3 <= FBAR_SUM_MAX."""
    triples = [js for js in itertools.product(_spins(FBAR_SUM_MAX), repeat=3)
               if sum(j.twice for j in js) <= FBAR_SUM_MAX.twice]
    for r in config.r_values:
        point = {"sum_max": str(FBAR_SUM_MAX), "r": r}
        for js in triples:
            spaces = tuple(SpinSpace(j, r) for j in js)
            yield from _each("fbar.symmetry", point, verify_fbar_symmetry(*spaces))
            tensor = fbar_tensor(*spaces)
            # the symbol is real when j1 + j2 + j3 is even, imaginary when odd
            stray = tensor.real if (sum(j.twice for j in js) // 2) % 2 else tensor.imag
            yield "fbar.parity", point, float(np.max(np.abs(stray)))


def _recoupling_paths(limit: HalfInt) -> list[tuple[HalfInt, ...]]:
    """All (j1, j2, j3, j12, j23, j) with every entry <= limit and triads valid."""
    def coupled(a: HalfInt, b: HalfInt) -> list[HalfInt]:
        return [c for c in coupled_j_values(a, b) if c.twice <= limit.twice]

    paths = []
    for j1, j2, j3 in itertools.product(_spins(limit), repeat=3):
        for j12 in coupled(j1, j2):
            for j23 in coupled(j2, j3):
                for j in coupled(j12, j3):
                    if triangle(j1, j23, j):
                        paths.append((j1, j2, j3, j12, j23, j))
    return paths


@_suite
def recoupling_suite(config: VerifyConfig) -> _Residuals:
    paths = _recoupling_paths(RECOUPLING_J_MAX)
    for r in config.r_values[:RECOUPLING_R_COUNT]:
        point = {"args_max": str(RECOUPLING_J_MAX), "paths": len(paths), "r": r}
        for path in paths:
            yield from _each("recoupling.sixj", point, recoupling_invariance_check(*path, r))


@_suite
def wigner_eckart_suite(config: VerifyConfig) -> _Residuals:
    for j, rank in itertools.product(_spins(WIGNER_ECKART_J_MAX), (1, 2)):
        point = {"j": str(j), "rank": rank}
        first = None
        for r in config.r_values:
            ops = build_spin_ops(SpinSpace(j, r))
            result = wigner_eckart_check(spherical_tensor_from_j(ops, rank))
            first = result.reduced_element if first is None else first
            yield "wigner_eckart.residual", {**point, "r": r}, result.residual
            yield "wigner_eckart.r_independent", point, abs(result.reduced_element - first)


# ---------------------------------------------------------------------------
# standard-layer exactness suite (zero rational residue)

def _residue_count(rows: list) -> int:
    """Ordered pairs of rows whose exact dot product is not delta (1 for a row with itself, else 0).

    The dot product is symmetric, so each unordered pair is summed once and
    counted twice.
    """
    bad = 0
    for (i, a), (k, b) in itertools.combinations_with_replacement(enumerate(rows), 2):
        total = RadicalSum()
        for x, y in zip(a, b):
            total.add_term(x.sign * y.sign, x.magnitude_squared * y.magnitude_squared)
        if i == k:
            total.add_term(Fraction(-1), Fraction(1))
        if not total.is_zero():
            bad += 1 if i == k else 2
    return bad


def _exact_cg_orthogonality_violations(limit: HalfInt) -> int:
    """Count the residues of both orthonormality relations of the CG matrix.

    The relations say the CG matrix, rows (m1, m2) and columns (j, m), has
    orthonormal columns and orthonormal rows. The matrix is block-diagonal
    in m = m1 + m2, so the count is its nonzero entries off the blocks plus
    each block's row and column pairs with a residue; the pairs that span
    two blocks have disjoint supports once the off-block entries are zero.
    """
    bad = 0
    for j1, j2 in itertools.product(_spins(limit), repeat=2):
        coupled = [(j, m) for j in coupled_j_values(j1, j2) for m in m_values(j)]
        labels = [(m1, m2) for m1 in m_values(j1) for m2 in m_values(j2)]
        matrix = np.array([[cg(j1, j2, m1, m2, j, m) for j, m in coupled] for m1, m2 in labels],
                          dtype=object)
        row_m = np.array([m1.twice + m2.twice for m1, m2 in labels])
        col_m = np.array([m.twice for _, m in coupled])
        in_block = row_m[:, None] == col_m[None, :]
        bad += sum(not value.is_zero() for value in matrix[~in_block])
        for m in m_values(j1 + j2):
            block = matrix[np.ix_(row_m == m.twice, col_m == m.twice)]
            bad += _residue_count(block.tolist()) + _residue_count(block.T.tolist())
    return bad


def _interned(values: np.ndarray, ids: dict) -> np.ndarray:
    """values as ints: each exact value becomes the id in ids of the first value equal to it.

    ids is keyed by (sign, numerator, denominator) of the value's square, which
    Fraction keeps in lowest terms, so two entries are equal exactly when their
    ids are; an int tuple hashes several times faster than a Fraction.
    """
    keys = ((value.sign, value.magnitude_squared.numerator, value.magnitude_squared.denominator)
            for value in values.flat)
    return np.fromiter((ids.setdefault(key, len(ids)) for key in keys),
                       dtype=np.intp, count=values.size).reshape(values.shape)


def _exact_threejm_symmetry_violations(limit: HalfInt) -> int:
    """Cyclic, odd-permutation and m-negation rules as exact equalities.

    The symbol is computed once on the (j, m)^3 grid; its cyclic and
    swapped images are transposes and its m-negated image a gather, each
    compared with the symbol or with its (-1)^(j1+j2+j3)-signed copy.
    """
    pairs = [(j, m) for j in _spins(limit) for m in m_values(j)]
    values = np.array([threejm(j1, j2, j3, m1, m2, m3)
                       for (j1, m1), (j2, m2), (j3, m3) in itertools.product(pairs, repeat=3)],
                      dtype=object).reshape((len(pairs),) * 3)
    twice_j = np.array([j.twice for j, _ in pairs])
    odd = (twice_j[:, None, None] + twice_j[None, :, None] + twice_j[None, None, :]) // 2 % 2 == 1
    minus_m = [pairs.index((j, -m)) for j, m in pairs]
    ids = {}
    base = _interned(values, ids)
    # key i of ids has id i, so this maps each id to the id of the negated value
    negated_id = np.array([ids.setdefault((-sign, num, den), len(ids))
                           for sign, num, den in list(ids)])
    signed = np.where(odd, negated_id[base], base)
    differs = ((np.transpose(base, (2, 0, 1)) != base)
               | (np.transpose(base, (1, 2, 0)) != base)
               | (np.transpose(base, (1, 0, 2)) != signed)
               | (base[np.ix_(minus_m, minus_m, minus_m)] != signed))
    return int(np.count_nonzero(differs))


# The nine symmetry images of {j1 j2 j3; j4 j5 j6}, each as the argument positions
# it reads: the six column permutations (the identity among them), then the three
# swaps of upper and lower entries in two columns.
_SIXJ_IMAGES = [perm + tuple(p + 3 for p in perm) for perm in itertools.permutations(range(3))] + [
    (3, 4, 2, 0, 1, 5),
    (3, 1, 5, 0, 4, 2),
    (0, 4, 5, 3, 1, 2),
]


def _exact_sixj_symmetry_violations(limit: HalfInt) -> int:
    """Column permutations and row-pair swaps as exact equalities.

    Each symbol on the grid is computed once and interned; the image of
    every label set under a symmetry is read from a transpose of the id
    array, so each comparison is between two separately computed values.
    """
    spins = _spins(limit)
    values = np.fromiter((sixj(*args) for args in itertools.product(spins, repeat=6)),
                         dtype=object, count=len(spins) ** 6).reshape((len(spins),) * 6)
    ids = _interned(values, {})
    differs = np.zeros(values.shape, dtype=bool)
    for image in _SIXJ_IMAGES:
        differs |= np.transpose(ids, np.argsort(image)) != ids
    return int(np.count_nonzero(differs))


@_suite
def standard_suite(config: VerifyConfig) -> _Residuals:
    limit = STANDARD_J_MAX
    point = {"args_max": str(limit)}
    yield "standard.cg_orthogonality", point, float(_exact_cg_orthogonality_violations(limit))
    yield "standard.threejm_symmetry", point, float(_exact_threejm_symmetry_violations(limit))
    yield "standard.sixj_symmetry", point, float(_exact_sixj_symmetry_violations(limit))


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


def run_suites(config: VerifyConfig) -> list[dict]:
    """Run every suite and return its report rows in a deterministic order."""
    results = [row for suite in SUITES for row in suite(config)]
    results.sort(key=lambda row: (row["check"],
                                  sorted((k, str(v)) for k, v in row["parameters"].items())))
    return results


def report_dict(results: list[dict], config: VerifyConfig) -> dict:
    failed = [c for c in results if not c["pass"]]
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
        "checks": results,
    }
