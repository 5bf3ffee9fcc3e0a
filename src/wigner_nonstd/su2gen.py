"""su(2) generators from the polar pair (H, U_r) on a single multiplet.

The two-oscillator product space splits into fixed-(n_a + n_b) multiplets
via j = (n_a + n_b)/2, m = (n_a - n_b)/2. On the diagonal multiplet
j = (k-1)/2 the ladder operator factorizes as J+ = H U_r with H Hermitean
non-negative and U_r a cyclic shift whose wrap picks up the winding phase
e^{i phi_r}, phi_r = 2 pi j r. This module builds the (2j+1)-dimensional
matrices directly from that closed form, for any half-integer j and any
real winding parameter r, and checks the algebra they must satisfy.
Every phase takes the winding as j*r turns held exactly (winding_turns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .halfint import HalfInt, is_valid_j, m_values
from .quon import KronPair, QuonRep, build_h, build_ur, unit_phase


def winding_turns(j: HalfInt, r: float) -> tuple[int, int]:
    """j*r, the winding phi_r/(2 pi) in turns, exactly as (numerator, denominator)."""
    numerator, denominator = r.as_integer_ratio()
    return j.twice * numerator, 2 * denominator


def checked_winding(j: HalfInt, r: float) -> float:
    """r as a finite float, once j is checked; the rules SpinSpace and AlphaLabel share."""
    if not isinstance(j, HalfInt):
        raise TypeError(f"j must be a HalfInt, got {type(j).__name__}")
    if not is_valid_j(j):
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    try:
        value = float(r)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"r must be a finite number, got {r}")
    return value


@dataclass(frozen=True)
class SpinSpace:
    """A single multiplet F_j with winding parameter r.

    Basis vectors are |j, m> with m ascending from -j to j; index i
    corresponds to m = -j + i.
    """

    j: HalfInt
    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", checked_winding(self.j, self.r))

    @property
    def dim(self) -> int:
        return self.j.twice + 1

    @cached_property
    def m_list(self) -> tuple[HalfInt, ...]:
        return tuple(m_values(self.j))

    @cached_property
    def jr_turns(self) -> tuple[int, int]:
        """j*r exactly, as (numerator, denominator); every r-dependent phase starts here."""
        return winding_turns(self.j, self.r)

    @property
    def wrap_factor(self) -> complex:
        """e^{i phi_r} with phi_r = 2 pi j r."""
        return unit_phase(*self.jr_turns)


@dataclass(frozen=True, eq=False)
class SpinOperatorSet:
    """The generator matrices on one SpinSpace, all in the m-ascending basis."""

    space: SpinSpace
    h: np.ndarray
    u_r: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    j3: np.ndarray

    @cached_property
    def j_squared(self) -> np.ndarray:
        return self.j_minus @ self.j_plus + self.j3 @ self.j3 + self.j3


@dataclass(frozen=True)
class ResidualReport:
    """Named max-abs residuals from a batch of identity checks."""

    residuals: dict[str, float]

    def worst(self) -> float:
        """The largest residual, NaN if any is NaN, 0.0 for no residuals."""
        return float(np.max(list(self.residuals.values()))) if self.residuals else 0.0

    def __str__(self) -> str:
        lines = [f"  {name}: {value:.3e}" for name, value in sorted(self.residuals.items())]
        return "\n".join(lines)


def build_spin_ops(space: SpinSpace) -> SpinOperatorSet:
    """Closed-form generator matrices on F_j.

    H is diagonal with H|j,m> = sqrt((j+m)(j-m+1)) |j,m>. U_r shifts
    m -> m+1 cyclically, the wrap |j,j> -> |j,-j> carrying e^{i phi_r}.
    J+ = H U_r, J- = U_r^dag H, J3 = diag(m). H annihilates the wrapped
    vector, so J+- come out r-independent while U_r does not.
    """
    dim = space.dim
    jf = float(space.j)
    ms = [float(m) for m in space.m_list]

    h = np.zeros((dim, dim), dtype=complex)
    for i, m in enumerate(ms):
        h[i, i] = math.sqrt((jf + m) * (jf - m + 1.0))

    u_r = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        u_r[i + 1, i] = 1.0
    u_r[0, dim - 1] = space.wrap_factor

    j3 = np.diag(np.array(ms, dtype=complex))
    j_plus = h @ u_r
    j_minus = u_r.conj().T @ h
    return SpinOperatorSet(space=space, h=h, u_r=u_r, j_plus=j_plus, j_minus=j_minus, j3=j3)


def verify_su2(ops: SpinOperatorSet) -> ResidualReport:
    """Residuals of the su(2) commutators and of unitarity/Hermiticity."""
    jp, jm, j3 = ops.j_plus, ops.j_minus, ops.j3
    u, h = ops.u_r, ops.h
    eye = np.eye(ops.space.dim)

    def comm(x, y):
        return x @ y - y @ x

    res = {
        "comm_j3_jplus": float(np.max(np.abs(comm(j3, jp) - jp))),
        "comm_j3_jminus": float(np.max(np.abs(comm(j3, jm) + jm))),
        "comm_jplus_jminus": float(np.max(np.abs(comm(jp, jm) - 2.0 * j3))),
        "jminus_is_adjoint": float(np.max(np.abs(jm - jp.conj().T))),
        "u_unitary": float(np.max(np.abs(u.conj().T @ u - eye))),
        "h_hermitean": float(np.max(np.abs(h - h.conj().T))),
    }
    return ResidualReport(res)


def casimir_identities(ops: SpinOperatorSet) -> ResidualReport:
    """Both polar forms of J^2 against each other and against j(j+1).

    J^2 = H^2 + J3^2 - J3 (from J+J-) and
    J^2 = U_r^dag H^2 U_r + J3^2 + J3 (from J-J+).
    """
    u, h, j3 = ops.u_r, ops.h, ops.j3
    jf = float(ops.space.j)
    h2 = h @ h
    form_a = h2 + j3 @ j3 - j3
    form_b = u.conj().T @ h2 @ u + j3 @ j3 + j3
    j_sq = ops.j_squared
    target = jf * (jf + 1.0) * np.eye(ops.space.dim)
    res = {
        "polar_forms_agree": float(np.max(np.abs(form_a - form_b))),
        "casimir_form_a": float(np.max(np.abs(j_sq - form_a))),
        "casimir_form_b": float(np.max(np.abs(j_sq - form_b))),
        "casimir_value": float(np.max(np.abs(j_sq - target))),
        "casimir_commutes_u": float(np.max(np.abs(j_sq @ u - u @ j_sq))),
    }
    return ResidualReport(res)


def diagonal_multiplet_indices(k: int) -> list[int]:
    """Product-space indices of the j = (k-1)/2 multiplet, m ascending.

    The member with m = n_a - j sits at index n_a*k + (k-1-n_a).
    """
    return [n_a * k + (k - 1 - n_a) for n_a in range(k)]


def restrict_fock_operator(op: KronPair | np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Cut the diagonal-multiplet block out of a product-space operator.

    op is a KronPair A (x) B of k x k factors or, for a diagonal operator,
    the k x k grid of its diagonal. Returns the k x k block in the
    m-ascending basis together with the leakage: the largest matrix element
    connecting the multiplet to its complement. Both are read off the
    factors by index; member n of the multiplet is |n, k-1-n>, so the block
    entry [n, n'] is A[n, n'] B[k-1-n, k-1-n']. A diagonal operator has
    leakage exactly zero, and so do H, U_r and anything built from them.
    """
    factors = (op.a, op.b) if isinstance(op, KronPair) else (op,)
    for factor in factors:
        if factor.shape != (k, k):
            raise ValueError(f"operator factor of shape {factor.shape} is not {k} x {k}")
    flip = np.arange(k)[::-1]
    if not isinstance(op, KronPair):
        return np.diag(op[np.arange(k), flip]), 0.0
    a, b = factors
    block = a * b[np.ix_(flip, flip)]
    # off[x, y]: |x, y> lies off the multiplet, i.e. y != k-1-x
    off = np.arange(k)[None, :] != flip[:, None]
    # multiplet rows, other columns: [n, n', m'] = A[n, n'] B[k-1-n, m']
    row_leak = np.abs(a[:, :, None] * b[flip][:, None, :])[:, off]
    # multiplet columns, other rows: [n, m, n'] = A[n, n'] B[m, k-1-n']
    col_leak = np.abs(a[:, None, :] * b[:, flip][None, :, :])[off]
    leakage = float(np.maximum(np.max(row_leak, initial=0.0), np.max(col_leak, initial=0.0)))
    return block, leakage


def quon_restriction_report(rep: QuonRep, r: float) -> ResidualReport:
    """Compare the closed-form F_j matrices with the oscillator construction.

    Restricts H and U_r of the product space to the diagonal multiplet,
    reading the block and the leakage off their k x k structure, and takes
    max-abs differences against build_spin_ops output.
    """
    k = rep.k
    space = spin_space_for_k(k, r)
    ops = build_spin_ops(space)

    h_block, h_leak = restrict_fock_operator(build_h(rep), k)
    u_block, u_leak = restrict_fock_operator(build_ur(rep, Fraction(*space.jr_turns)), k)
    res = {
        "h_matches": float(np.max(np.abs(h_block - ops.h))),
        "u_matches": float(np.max(np.abs(u_block - ops.u_r))),
        "h_leakage": h_leak,
        "u_leakage": u_leak,
    }
    return ResidualReport(res)


def spin_space_for_k(k: int, r: float) -> SpinSpace:
    """The multiplet the k-th root-of-unity oscillator pair singles out."""
    return SpinSpace(j=HalfInt(k - 1), r=r)
