"""Wigner-Racah algebra in the {J^2, U_r} eigenscheme.

The unitary polar factor U_r replaces J3 as the operator diagonalized
alongside J^2. Its eigenvectors |j, alpha; r> have components
exp(i alpha m 2 pi/(2j+1))/sqrt(2j+1) over the m-basis, with
alpha = -j r + s for s = 0..2j, and eigenvalue exp(-i alpha 2 pi/(2j+1)).
Coupling coefficients, the two associated 3-symbol families, tensor
operator components and the factorization theorem all carry over to this
scheme by the unitary change of basis; this module builds each of them
and provides residual checks for the identities they must satisfy.

All couplings require every participating space to share the same r;
mixing winding parameters raises ValueError. Phases are taken in turns,
from the exact j*r of su2gen.winding_turns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

import numpy as np

from .halfint import HalfInt, coupled_j_values, triangle
from .quon import unit_phase
from .standard_wra import cg_float, cg_tensor, sixj, threejm, threejm_tensor
from .su2gen import (ResidualReport, SpinOperatorSet, SpinSpace, build_spin_ops, checked_winding,
                     winding_turns)

# Entries per alpha-basis cache: above every measured working set (at most 1,141 entries).
_CACHE_SIZE = 2048
# Bytes of first results that the three alpha-basis caches hold together, until their key is
# asked for again: the smallest FIFO with which verify --k 2-22 builds as many tensors as one
# LRU of every result.
_FIRST_USE_BYTES = 4 * 2 ** 20
# Rows per Gram panel in verify_cg_orthonormality, at most; the panels are as equal as n allows.
# Over the 2j <= 16 sweep the check's time was flat from 32 to 64 rows. Up to n = 48 the one
# panel is the full product, so those residuals keep their bits.
_GRAM_PANEL_ROWS = 48


@dataclass(frozen=True)
class AlphaLabel:
    """One eigenvector label |j, alpha; r> with alpha = -j*r + s."""

    j: HalfInt
    r: float
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", checked_winding(self.j, self.r))
        if not isinstance(self.s, int) or isinstance(self.s, bool):
            raise TypeError(f"s must be an int, got {type(self.s).__name__}")
        if not 0 <= self.s <= self.j.twice:
            raise ValueError(f"s must lie in [0, 2j] = [0, {self.j.twice}], got {self.s}")

    @property
    def alpha(self) -> float:
        # the printed label; phases use the exact jr_turns instead
        return -(float(self.j) * self.r) + self.s

    @property
    def dim(self) -> int:
        return self.j.twice + 1

    @cached_property
    def jr_turns(self) -> tuple[int, int]:
        """j*r exactly, as (numerator, denominator)."""
        return winding_turns(self.j, self.r)

    @cached_property
    def eigenvalue(self) -> complex:
        """U_r eigenvalue exp(-i alpha 2 pi/(2j+1)): j r - s in units of 1/(2j+1) turns."""
        return unit_phase(_jr_times(self.jr_turns, 1, self.dim) + -self.s % self.dim, self.dim)

    def turns(self, twice_m: int) -> Fraction:
        """alpha m/(2j+1) exactly: the phase of <j m | j alpha; r> in turns."""
        numerator, denominator = self.jr_turns
        return Fraction((self.s * denominator - numerator) * twice_m, 2 * denominator * self.dim)

    def __str__(self) -> str:
        return f"|{self.j},alpha={self.alpha:g};r={self.r:g}>"


def alpha_labels(space: SpinSpace) -> tuple[AlphaLabel, ...]:
    """All 2j+1 labels of the space, s ascending."""
    return tuple(AlphaLabel(space.j, space.r, s) for s in range(space.dim))


def _jr_times(jr_turns: tuple[int, int], factor: int, modulus: int) -> float:
    """factor * j r reduced mod modulus in integers, then rounded once to a float."""
    numerator, denominator = jr_turns
    return numerator * factor % (modulus * denominator) / denominator


def overlap(space: SpinSpace, m: HalfInt, label: AlphaLabel) -> complex:
    """<j m | j alpha; r> = exp(i alpha m 2 pi/(2j+1)) / sqrt(2j+1), as basis_matrix bit for bit.

    In units of 1/(2(2j+1)) turns the phase is s 2m - j r 2m, each part reduced in integers.
    """
    if label.j != space.j or label.r != space.r:
        raise ValueError("label does not belong to this space")
    dim = space.dim
    turns = label.s * m.twice % (2 * dim) + _jr_times(space.jr_turns, -m.twice, 2 * dim)
    return unit_phase(turns, 2 * dim) * (1.0 / math.sqrt(dim))


class _FirstUse(Exception):
    """Carries a result asked for once out of the LRU, which stores no result of a raise."""


@dataclass(eq=False)
class _FirstUses:
    """The one FIFO in which the first results of every alpha-basis cache wait.

    It holds at most max_bytes of results over all the caches, and remembers the
    last max_dropped keys it let go. A key is (build, args), so the caches share
    the budget but never each other's results.
    """

    max_bytes: int = _FIRST_USE_BYTES
    max_dropped: int = _CACHE_SIZE
    waiting: dict = field(default_factory=dict)  # key -> result, oldest first
    dropped: dict = field(default_factory=dict)  # keys let go, oldest first
    held: int = 0                                # bytes in waiting

    def admit(self, build, args):
        """build(*args) at an LRU miss: returned if its key was seen before, else raised
        in a _FirstUse once it waits."""
        key = build, args
        if key in self.waiting:
            result = self.waiting.pop(key)
            self.held -= result.nbytes
            return result
        if key in self.dropped:
            del self.dropped[key]
            return build(*args)
        result = build(*args)
        self.waiting[key] = result
        self.held += result.nbytes
        while self.held > self.max_bytes:
            # a result too large to wait alone goes at once and leaves the others waiting
            oldest = key if result.nbytes > self.max_bytes else next(iter(self.waiting))
            self.held -= self.waiting.pop(oldest).nbytes
            self.dropped[oldest] = None
            if len(self.dropped) > self.max_dropped:
                del self.dropped[next(iter(self.dropped))]
        raise _FirstUse(result)


_FIRST_USES = _FirstUses()


def _cache_on_reuse(build, first_uses: _FirstUses = _FIRST_USES):
    """build(*spaces), memoized with the admission rule of the 2Q buffer cache.

    Johnson and Shasha, VLDB 1994. A first result waits in first_uses, the FIFO
    that all three alpha-basis caches share. A key asked for again, while it waits
    or after it was dropped, enters this cache's lru_cache of _CACHE_SIZE entries,
    so a hit is one C lookup; a result used once, as at each r of an r-sweep, is
    never held past the FIFO. cache_info() is the LRU's, so a first use counts as
    a miss; cache_clear() also takes this cache's results and keys out of the FIFO.
    """
    def admit(*spaces):
        return first_uses.admit(build, spaces)

    lru = lru_cache(maxsize=_CACHE_SIZE)(admit)

    @wraps(build)
    def cached(*spaces):
        try:
            return lru(*spaces)
        except _FirstUse as first:
            return first.args[0]

    def cache_clear():
        lru.cache_clear()
        for key in [key for key in first_uses.waiting if key[0] is build]:
            first_uses.held -= first_uses.waiting.pop(key).nbytes
        for key in [key for key in first_uses.dropped if key[0] is build]:
            del first_uses.dropped[key]

    cached.cache_info = lru.cache_info
    cached.cache_clear = cache_clear
    return cached


@_cache_on_reuse
def basis_matrix(space: SpinSpace) -> np.ndarray:
    """Unitary M with M[m_index, s] = <j m | j alpha_s; r>, each entry as overlap.

    Columns are the U_r eigenvectors over the m-ascending basis. The part
    s 2m of each phase is one int64 array, the r part one reduction per row.
    """
    dim = space.dim
    twice_m = np.arange(-space.j.twice, space.j.twice + 1, 2)
    winding = np.array([_jr_times(space.jr_turns, -tm, 2 * dim) for tm in twice_m.tolist()])
    turns = twice_m[:, None] * np.arange(dim) % (2 * dim) + winding[:, None]
    out = unit_phase(turns, 2 * dim) * (1.0 / math.sqrt(dim))
    out.setflags(write=False)
    return out


def verify_eigenbasis(space: SpinSpace) -> ResidualReport:
    """Unitarity of the overlap matrix and the eigenvalue equations.

    The *_eigen entries are the worst vector 2-norm of U_r|v> - lambda|v>
    and J^2|v> - j(j+1)|v> over all 2j+1 eigenvectors; the unitarity
    entry is the max-abs deviation of M^dag M from the identity.
    """
    m = basis_matrix(space)
    ops = build_spin_ops(space)
    s = np.arange(space.dim)  # lam[s, s] is bit for bit alpha_labels(space)[s].eigenvalue
    lam = np.diag(unit_phase(_jr_times(space.jr_turns, 1, space.dim) + -s % space.dim, space.dim))
    eye = np.eye(space.dim)
    jf = float(space.j)
    u_defect = ops.u_r @ m - m @ lam
    c_defect = ops.j_squared @ m - jf * (jf + 1.0) * m
    res = {
        "overlap_unitary": float(np.max(np.abs(m.conj().T @ m - eye))),
        "u_eigen": float(np.max(np.linalg.norm(u_defect, axis=0))),
        "casimir_eigen": float(np.max(np.linalg.norm(c_defect, axis=0))),
        "diagonalized_u": float(np.max(np.abs(m.conj().T @ ops.u_r @ m - lam))),
    }
    return ResidualReport(res)


def _require_same_r(*spaces: SpinSpace | AlphaLabel) -> float:
    rs = {space.r for space in spaces}
    if len(rs) != 1:
        raise ValueError(f"cannot couple spaces with different winding parameters: {sorted(rs)}")
    return rs.pop()


def _direct_sum(l1: AlphaLabel, l2: AlphaLabel, l3: AlphaLabel, value) -> complex:
    """Sum over (m1, m2) of value(j1, j2, m1, m2, j3, m = m1 + m2) against the basis phases,
    conjugated for legs 1 and 2 and direct for leg 3, over sqrt(d1 d2 d3). The phases
    are exact turns, and turns is linear in m, so -l3.turns(-m) is l3.turns(m)."""
    _require_same_r(l1, l2, l3)
    total = 0.0 + 0.0j
    for tm1 in range(-l1.j.twice, l1.j.twice + 1, 2):
        for tm2 in range(-l2.j.twice, l2.j.twice + 1, 2):
            tm = tm1 + tm2
            if abs(tm) > l3.j.twice:
                continue
            c = value(l1.j, l2.j, HalfInt(tm1), HalfInt(tm2), l3.j, HalfInt(tm))
            if c == 0.0:
                continue
            turns = l3.turns(tm) - l1.turns(tm1) - l2.turns(tm2)
            total += unit_phase(turns.numerator, turns.denominator) * c
    return total / math.sqrt(l1.dim * l2.dim * l3.dim)


def cg_nonstandard(l1: AlphaLabel, l2: AlphaLabel, l: AlphaLabel) -> complex:
    """Coupling coefficient (j1 j2 alpha1 alpha2 | j alpha; r), by direct sum of cg_float.

    The tensor route cg_nonstandard_tensor computes the same numbers; keep both paths independent.
    """
    return _direct_sum(l1, l2, l, cg_float)


def _contract_legs(core: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """out[x, y, z] = sum core[a, b, c] b1[a, x] b2[b, y] b3[c, z], one matmul per leg: c, b, a."""
    d1, d2, d3 = core.shape
    out = (core.reshape(d1 * d2, d3) @ b3).reshape(d1, d2, d3)
    out = np.matmul(b2.T, out)  # batched over a
    return (b1.T @ out.reshape(d1, d2 * d3)).reshape(d1, d2, d3)


def _alpha_tensor(core, space1: SpinSpace, space2: SpinSpace, space3: SpinSpace,
                  conjugate_third: bool) -> np.ndarray:
    """Read-only core(j1, j2, j3) on the alpha-bases: legs 1 and 2 conjugated, leg 3 if asked."""
    _require_same_r(space1, space2, space3)
    m1, m2, m3 = basis_matrix(space1), basis_matrix(space2), basis_matrix(space3)
    out = _contract_legs(core(space1.j, space2.j, space3.j), m1.conj(), m2.conj(),
                         m3.conj() if conjugate_third else m3)
    out.setflags(write=False)
    return out


@_cache_on_reuse
def cg_nonstandard_tensor(space1: SpinSpace, space2: SpinSpace, space: SpinSpace) -> np.ndarray:
    """Array of coupling coefficients indexed [s1, s2, s]."""
    return _alpha_tensor(cg_tensor, space1, space2, space, conjugate_third=False)


def _identity_defect(left_rows, right: np.ndarray) -> float:
    """max |left @ right - 1| of a Hermitian n x n product, from its upper row panels only.

    Panel [lo, hi) is rows lo..hi-1 of the product from column lo on: left_rows(lo, hi),
    rows lo..hi-1 of the left factor at most _GRAM_PANEL_ROWS long, times a view of right.
    Its own leading diagonal lies on the product's. The lower triangle is the conjugate
    of the upper, so no n x n product is formed. A NaN in any panel wins.
    """
    n = right.shape[0]
    count = -(-n // _GRAM_PANEL_ROWS)
    edges = [n * k // count for k in range(count + 1)]
    worst = []
    for lo, hi in zip(edges, edges[1:]):
        panel = left_rows(lo, hi) @ right[:, lo:]
        diagonal = np.arange(hi - lo)
        panel[diagonal, diagonal] -= 1.0
        worst.append(np.max(np.abs(panel)))
    return float(np.max(worst))


def verify_cg_orthonormality(space1: SpinSpace, space2: SpinSpace) -> ResidualReport:
    """Both orthonormality relations of the coupling coefficients.

    Stacks the tensors for every coupled j into the full change-of-basis
    matrix W[(s1 s2), (j s)]; the relations are W^dag W = 1 (rows) and
    W W^dag = 1 (completeness). Each residual is max |G - 1| over the upper
    row panels of its Hermitian Gram G, at most _GRAM_PANEL_ROWS rows each:
    W[:, lo:hi]^dag W[:, lo:] and W[lo:hi] W[lo:]^dag. W is the one n x n
    array: each rows panel conjugates its own slice of columns, W is then
    conjugated in place, and each completeness panel conjugates its own
    slice of rows back. A NaN anywhere makes its residual NaN.
    """
    r = _require_same_r(space1, space2)
    n = space1.dim * space2.dim
    w = np.empty((n, n), dtype=complex)
    lo = 0
    for j in coupled_j_values(space1.j, space2.j):
        # copied in as built, so no tensor outlives its block unless a cache holds it
        tensor = cg_nonstandard_tensor(space1, space2, SpinSpace(j, r))
        w[:, lo:lo + j.twice + 1] = tensor.reshape(n, -1)
        lo += j.twice + 1
    rows = _identity_defect(lambda lo, hi: w[:, lo:hi].conj().T, w)
    np.conjugate(w, out=w)
    complete = _identity_defect(lambda lo, hi: w[lo:hi].conj(), w.T)
    return ResidualReport({"rows_orthonormal": rows, "complete": complete})


def fbar(l1: AlphaLabel, l2: AlphaLabel, l3: AlphaLabel) -> complex:
    """Symmetric 3-symbol of the alpha-scheme, by direct sum.

    The m-scheme 3-jm symbol contracted with three conjugated basis
    phases. Invariant under even column permutations; odd permutations
    and complex conjugation both multiply by (-1)^(j1+j2+j3). The tensor
    route fbar_tensor computes the same numbers; keep both paths
    independent.
    """
    # the 3-jm symbol at m3 = -m, in cg_float's argument order
    return _direct_sum(l1, l2, l3, lambda j1, j2, m1, m2, j3, m:
                       float(threejm(j1, j2, j3, m1, m2, -m)))


@_cache_on_reuse
def fbar_tensor(space1: SpinSpace, space2: SpinSpace, space3: SpinSpace) -> np.ndarray:
    """Array of the symmetric 3-symbols indexed [s1, s2, s3]."""
    return _alpha_tensor(threejm_tensor, space1, space2, space3, conjugate_third=True)


def verify_fbar_symmetry(space1: SpinSpace, space2: SpinSpace, space3: SpinSpace) -> ResidualReport:
    """Column-permutation and conjugation rules over all label triples."""
    t123 = fbar_tensor(space1, space2, space3)
    t231 = fbar_tensor(space2, space3, space1)
    t213 = fbar_tensor(space2, space1, space3)
    tsum = (space1.j + space2.j + space3.j).twice // 2
    sign = -1.0 if tsum % 2 else 1.0

    even = np.transpose(t231, (2, 0, 1))  # [s1,s2,s3] from the (231)-ordered tensor
    odd = np.transpose(t213, (1, 0, 2))
    res = {
        "even_permutation": float(np.max(np.abs(t123 - even))),
        "odd_permutation": float(np.max(np.abs(odd - sign * t123))),
        "conjugation": float(np.max(np.abs(t123.conj() - sign * t123))),
    }
    return ResidualReport(res)


def f_small(l1: AlphaLabel, l2: AlphaLabel, l3: AlphaLabel) -> complex:
    """Companion coupling symbol (-1)^(2 j3) (j2 j3 alpha2 alpha3 | j1 alpha1)^* / sqrt(2j1+1).

    This is the combination through which matrix elements of an
    irreducible tensor factorize in the alpha-scheme.
    """
    sign = -1.0 if l3.j.twice % 2 else 1.0
    return sign * cg_nonstandard(l2, l3, l1).conjugate() / math.sqrt(l1.dim)


@dataclass(frozen=True, eq=False)
class TensorOperator:
    """Spherical components T^(rank)_q between two multiplets, q ascending.

    components has shape (2*rank+1, bra_dim, ket_dim) over the m-bases;
    each slice maps the ket space into the bra space.
    """

    bra_space: SpinSpace
    ket_space: SpinSpace
    rank: HalfInt
    components: np.ndarray

    def __post_init__(self) -> None:
        _require_same_r(self.bra_space, self.ket_space)
        if self.rank.twice % 2 or self.rank.twice < 0:
            raise ValueError(f"rank must be a non-negative integer, got {self.rank}")
        arr = np.array(self.components, dtype=complex)
        expected = (self.rank.twice + 1, self.bra_space.dim, self.ket_space.dim)
        if arr.shape != expected:
            raise ValueError(f"components shape {arr.shape} != {expected}")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def rank_space(self) -> SpinSpace:
        return SpinSpace(self.rank, self.bra_space.r)


def spherical_tensor_from_j(ops: SpinOperatorSet, rank: int) -> TensorOperator:
    """Rank-1 tensor (J-/sqrt2, J3, -J+/sqrt2), higher ranks by CG coupling.

    T^(n)_q = sum (n-1, 1, q1, q2 | n q) T^(n-1)_(q1) T^(1)_(q2); overall
    normalization of the higher ranks is conventional.
    """
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    dim = ops.space.dim
    rt2 = math.sqrt(2.0)
    base = np.stack([ops.j_minus / rt2, ops.j3, -ops.j_plus / rt2])
    current = base
    for n in range(2, rank + 1):
        prev_rank, new_rank = HalfInt(2 * (n - 1)), HalfInt(2 * n)
        nxt = np.zeros((2 * n + 1, dim, dim), dtype=complex)
        for i1, tq1 in enumerate(range(-prev_rank.twice, prev_rank.twice + 1, 2)):
            for i2, tq2 in enumerate(range(-2, 3, 2)):
                tq = tq1 + tq2
                if abs(tq) > new_rank.twice:
                    continue
                c = cg_float(prev_rank, HalfInt(2), HalfInt(tq1), HalfInt(tq2),
                             new_rank, HalfInt(tq))
                if c != 0.0:
                    nxt[(tq + new_rank.twice) // 2] += c * (current[i1] @ base[i2])
        current = nxt
    return TensorOperator(bra_space=ops.space, ket_space=ops.space,
                          rank=HalfInt(2 * rank), components=current)


def tensor_to_alpha(tensor: TensorOperator) -> np.ndarray:
    """Matrix elements <j1 alpha1 | T_alpha | j2 alpha2>, shape (2k+1, d1, d2).

    The component index transforms with the rank space's basis matrix,
    T_alpha = sum_q M_k[q, s_k] T_q, and the operator indices with each
    multiplet's: out[s_k] = M1^dag T_alpha[s_k] M2.
    """
    return _contract_legs(tensor.components, basis_matrix(tensor.rank_space),
                          basis_matrix(tensor.bra_space).conj(), basis_matrix(tensor.ket_space))


@dataclass(frozen=True)
class WignerEckartResult:
    """Least-squares factorization of alpha-scheme tensor matrix elements."""

    reduced_element: complex
    residual: float


def f_small_tensor(bra_space: SpinSpace, ket_space: SpinSpace,
                   rank_space: SpinSpace) -> np.ndarray:
    """All f_small values for the factorization, indexed [s_k, s1, s2]."""
    coupling = cg_nonstandard_tensor(ket_space, rank_space, bra_space)
    sign = -1.0 if rank_space.j.twice % 2 else 1.0
    # coupling[s2, s_k, s1] -> [s_k, s1, s2]
    return sign * np.transpose(coupling.conj(), (1, 2, 0)) / math.sqrt(bra_space.dim)


def wigner_eckart_check(tensor: TensorOperator) -> WignerEckartResult:
    """Fit <j1 a1|T_a|j2 a2> = c * f_small(j1 j2 k; a1 a2 a) over all labels.

    Returns the fitted reduced element c and the max-abs residual of the
    factorization; elements that are nonzero where f_small vanishes show
    up in the residual. c is set to zero when the tensor itself vanishes.
    """
    elements = tensor_to_alpha(tensor)
    pattern = f_small_tensor(tensor.bra_space, tensor.ket_space, tensor.rank_space)
    pattern_norm = float(np.linalg.norm(pattern))
    if pattern_norm == 0.0 or float(np.max(np.abs(elements))) == 0.0:
        reduced = 0.0 + 0.0j
    else:
        reduced = complex(np.vdot(pattern, elements) / np.vdot(pattern, pattern))
    residual = float(np.max(np.abs(elements - reduced * pattern)))
    return WignerEckartResult(reduced_element=reduced, residual=residual)


def recoupling_invariance_check(j1: HalfInt, j2: HalfInt, j3: HalfInt,
                                j12: HalfInt, j23: HalfInt, j: HalfInt,
                                r: float) -> ResidualReport:
    """Recoupling overlap computed from alpha-scheme coefficients against the 6-j.

    Contracts <(j1 j2) j12, j3; j alpha | j1, (j2 j3) j23; j alpha> over
    the alpha labels for each fixed outer alpha. Every outer label must
    give the same number, (-1)^(j1+j2+j3+j) sqrt((2j12+1)(2j23+1)) times
    the 6-j symbol {j1 j2 j12; j3 j j23}. A failed triad zeroes both
    sides, so the residual is trivially zero there.
    """
    sp1, sp2, sp3 = SpinSpace(j1, r), SpinSpace(j2, r), SpinSpace(j3, r)
    sp12, sp23, sp = SpinSpace(j12, r), SpinSpace(j23, r), SpinSpace(j, r)

    a = cg_nonstandard_tensor(sp1, sp2, sp12)    # [s1, s2, s12]
    b = cg_nonstandard_tensor(sp12, sp3, sp)     # [s12, s3, s]
    c = cg_nonstandard_tensor(sp2, sp3, sp23)    # [s2, s3, s23]
    d = cg_nonstandard_tensor(sp1, sp23, sp)     # [s1, s23, s]
    left = (a.reshape(-1, sp12.dim) @ b.reshape(sp12.dim, -1)).reshape(-1, sp.dim)  # [(s1 s2 s3), s]
    right = c.reshape(-1, sp23.dim) @ d.transpose(1, 0, 2).reshape(sp23.dim, -1)  # [(s2 s3), (s1 s)]
    right = right.reshape(-1, sp1.dim, sp.dim).transpose(1, 0, 2).reshape(-1, sp.dim)
    values = np.sum(left.conj() * right, axis=0)

    tsum = (j1.twice + j2.twice + j3.twice + j.twice) // 2
    sign = -1.0 if tsum % 2 else 1.0
    expected = sign * math.sqrt(sp12.dim * sp23.dim) * float(sixj(j1, j2, j12, j3, j, j23))
    res = {
        "matches_sixj": float(np.max(np.abs(values - expected))),
        "outer_label_spread": float(np.max(np.abs(values - values[0]))),
    }
    return ResidualReport(res)
