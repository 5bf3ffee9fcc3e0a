"""Two commuting q-deformed oscillators at a root of unity.

The deformation parameter is q = exp(2*pi*i/k) for integer k >= 2. Each
oscillator acts on a k-dimensional truncated Fock space; the pair acts on
the k^2-dimensional product space with basis |n_a, n_b> ordered n_a-major.
On that space we build the Hermitean factor H and the unitary shift U_r of
the polar decomposition, and the discrete translation generators that close
a trigonometric sine algebra.

Product-space operators are kept in their k x k structure:

- an a-mode operator is A (x) 1, a b-mode operator 1 (x) B, and U_r is
  A (x) B; each is a KronPair of k x k factors, and products follow the
  mixed-product rule (A (x) B)(C (x) D) = AC (x) BD;
- the diagonal operators H and V are k x k grids of their diagonal,
  entry [n_a, n_b] acting on |n_a, n_b>.

The relation and cyclicity checks therefore cost O(k^3) time and O(k^2)
memory. Only the sine-algebra generators T_(m1,m2) are formed as dense
k^2 x k^2 matrices, for the small k at which that bracket is checked
entrywise. The all-pairs sweep (w_algebra_residual) builds U_r and V
once and each T once, and runs each unordered pair of labels once: the
residual matrix of (n, m) is exactly the negated one of (m, n), and that
of (m, m) is exactly zero.
Every phase in the package comes from unit_phase, in integer turns reduced
exactly; the winding of U_r is passed in turns, phi_r/(2 pi).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

MAX_K = 64


def unit_phase(numerator, denominator: int) -> complex | np.ndarray:
    """exp(2*pi*i*numerator/denominator), the one place a phase is computed.

    numerator % denominator is taken before the one exp: exactly for an int
    of any size. A numpy array of ints or floats (below 2^53) gives an array,
    each element bit for bit the scalar call on it.
    """
    phase = np.exp(2j * np.pi * (numerator % denominator / denominator))
    return phase if isinstance(phase, np.ndarray) else complex(phase)


@dataclass(frozen=True)
class QDeformation:
    """q = exp(2*pi*i/k) and the q-integers it generates."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"k must be an int, got {type(self.k).__name__}")
        if not 2 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in [2, {MAX_K}], got {self.k}")

    @cached_property
    def q(self) -> complex:
        return unit_phase(1, self.k)

    def q_power(self, exponent: int) -> complex:
        """q**exponent with the exponent reduced mod k (exact for multiples of k)."""
        return unit_phase(exponent, self.k)

    def q_number(self, n: int) -> complex:
        """[n]_q = (1 - q^n)/(1 - q). Exactly zero for n a multiple of k."""
        if n < 0:
            raise ValueError(f"q-integer argument must be non-negative, got {n}")
        return (1.0 - self.q_power(n)) / (1.0 - self.q)

    def q_factorial(self, n: int) -> complex:
        """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1.

        Arguments beyond k-1 would make the product vanish identically,
        so they are rejected to catch indexing bugs early.
        """
        if not 0 <= n <= self.k - 1:
            raise ValueError(f"q-factorial argument must lie in [0, {self.k - 1}], got {n}")
        out = 1.0 + 0.0j
        for l in range(1, n + 1):
            out *= self.q_number(l)
        return out


@dataclass(frozen=True, eq=False)
class KronPair:
    """The product-space operator kron(a, b), held as its two k x k factors."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1] or self.a.shape != self.b.shape:
            raise ValueError(
                f"factors must be square and of one size, got {self.a.shape} and {self.b.shape}")

    def __matmul__(self, other: "KronPair") -> "KronPair":
        return KronPair(self.a @ other.a, self.b @ other.b)

    def power(self, n: int) -> "KronPair":
        return KronPair(np.linalg.matrix_power(self.a, n), np.linalg.matrix_power(self.b, n))

    def dense(self) -> np.ndarray:
        """The k^2 x k^2 matrix in the n_a-major basis; for small-k dense checks."""
        return np.kron(self.a, self.b)


def _max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat), initial=0.0))


def _kron_distance(x: KronPair, y: KronPair) -> float:
    """Upper bound on max|x.a (x) x.b - y.a (x) y.b| from the factors alone.

    From A (x) B - C (x) D = (A - C) (x) B + C (x) (B - D); it is zero
    whenever both pairs of factors agree exactly.
    """
    return _max_abs(x.a - y.a) * _max_abs(x.b) + _max_abs(y.a) * _max_abs(x.b - y.b)


@dataclass(frozen=True, eq=False)
class QuonRep:
    """The pair's single-mode k x k matrices in the truncated Fock basis |0..k-1>.

    a_plus |n> = |n+1>            a_minus |n> = [n]_q |n-1>
    b_plus |n> = [n+1]_q |n+1>    b_minus |n> = |n-1>
    number |n> = n |n>

    On the product space F = F_a (x) F_b the a-mode operators act as
    A (x) 1 and the b-mode operators as 1 (x) B. The arrays are read-only.
    """

    k: int
    deformation: QDeformation
    a_plus: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    number: np.ndarray


def build_rep(k: int) -> QuonRep:
    """Construct the two-oscillator representation for q = exp(2*pi*i/k)."""
    defm = QDeformation(k)
    a_plus = np.zeros((k, k), dtype=complex)
    a_minus = np.zeros((k, k), dtype=complex)
    b_plus = np.zeros((k, k), dtype=complex)
    b_minus = np.zeros((k, k), dtype=complex)
    for n in range(k - 1):
        a_plus[n + 1, n] = 1.0
        a_minus[n, n + 1] = defm.q_number(n + 1)
        b_plus[n + 1, n] = defm.q_number(n + 1)
        b_minus[n, n + 1] = 1.0
    number = np.diag(np.arange(k)).astype(complex)
    for mat in (a_plus, a_minus, b_plus, b_minus, number):
        mat.setflags(write=False)
    return QuonRep(k=k, deformation=defm, a_plus=a_plus, a_minus=a_minus,
                   b_plus=b_plus, b_minus=b_minus, number=number)


def relation_residuals(rep: QuonRep) -> dict[str, float]:
    """Max-abs residual of each defining relation of the pair of algebras.

    Keys cover the deformed commutators, the number-operator gradings,
    cross-mode commutativity and nilpotency of all four ladder operators.
    A relation within one mode has the form X (x) 1 (or 1 (x) X) for a
    k x k combination X of that mode's matrices, and max|X (x) 1| =
    max|X|, so it is checked on X. Cross-mode commutativity compares the
    two orders of each a-mode/b-mode product, formed by the mixed-product
    rule, through the factor bound of _kron_distance (exactly zero when the
    two orders agree factor by factor). The nilpotency entries are exact
    zeros: the k-th power of a strictly triangular matrix vanishes
    structurally, with no rounding
    involved.
    """
    q = rep.deformation.q
    k = rep.k
    one = np.eye(k)
    ap, am, bp, bm, num = rep.a_plus, rep.a_minus, rep.b_plus, rep.b_minus, rep.number

    def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y - y @ x

    a_mode = [KronPair(x, one) for x in (ap, am, num)]
    b_mode = [KronPair(one, y) for y in (bp, bm, num)]
    cross = [_kron_distance(x @ y, y @ x) for x in a_mode for y in b_mode]
    return {
        "a_deformed": _max_abs(am @ ap - q * (ap @ am) - one),
        "b_deformed": _max_abs(bm @ bp - q * (bp @ bm) - one),
        "grading_a_plus": _max_abs(comm(num, ap) - ap),
        "grading_a_minus": _max_abs(comm(num, am) + am),
        "grading_b_plus": _max_abs(comm(num, bp) - bp),
        "grading_b_minus": _max_abs(comm(num, bm) + bm),
        "cross_commute": float(np.max(cross)),
        "a_plus_nilpotent": _max_abs(np.linalg.matrix_power(ap, k)),
        "a_minus_nilpotent": _max_abs(np.linalg.matrix_power(am, k)),
        "b_plus_nilpotent": _max_abs(np.linalg.matrix_power(bp, k)),
        "b_minus_nilpotent": _max_abs(np.linalg.matrix_power(bm, k)),
    }


def build_h(rep: QuonRep) -> np.ndarray:
    """Hermitean polar factor H = sqrt(N_a (N_b + 1)) as its k x k diagonal grid.

    Entry [n_a, n_b] >= 0 is the eigenvalue on |n_a, n_b>.
    """
    n = np.arange(rep.k)
    return np.sqrt(np.outer(n, n + 1).astype(float))


def build_ur(rep: QuonRep, turns: float | Fraction) -> KronPair:
    """Unitary polar factor U_r on the product space, as its two factors.

    U_r = [a+ + e^{i phi_r/2} (a-)^(k-1) / [k-1]_q!]
        x [b- + e^{i phi_r/2} (b+)^(k-1) / [k-1]_q!]

    The correction terms wrap the top of each truncated ladder back to the
    bottom, making each factor (and the product) unitary with U_r^k =
    e^{i phi_r}. The winding comes in turns, phi_r/(2 pi), as an int, float
    or Fraction; it is free here, and the spin layer on top imposes
    phi_r = 2 pi j r, i.e. (k-1) r / 2 turns.
    """
    k = rep.k
    half_wrap = unit_phase(*(turns / 2).as_integer_ratio())
    qfact = rep.deformation.q_factorial(k - 1)
    a_factor = rep.a_plus + half_wrap * np.linalg.matrix_power(rep.a_minus, k - 1) / qfact
    b_factor = rep.b_minus + half_wrap * np.linalg.matrix_power(rep.b_plus, k - 1) / qfact
    return KronPair(a_factor, b_factor)


def cyclicity_residual(rep: QuonRep, turns: float | Fraction) -> float:
    """Max-abs deviation of U_r^k from e^{i phi_r} times the identity; turns = phi_r/(2 pi).

    U_r^k = A^k (x) B^k. Its main-diagonal entries are A^k[i,i] B^k[j,j];
    every other entry has an off-diagonal factor from A^k (with any entry
    of B^k) or from B^k (with a diagonal entry of A^k). So the deviation
    is the largest of three k x k quantities, and the k^2 x k^2 power is
    never formed.
    """
    u_k = build_ur(rep, turns).power(rep.k)
    wrap = unit_phase(*turns.as_integer_ratio())
    diag_a, diag_b = np.diag(u_k.a), np.diag(u_k.b)
    return float(np.max([
        _max_abs(np.outer(diag_a, diag_b) - wrap),
        _max_abs(u_k.a - np.diag(diag_a)) * _max_abs(u_k.b),
        _max_abs(diag_a) * _max_abs(u_k.b - np.diag(diag_b)),
    ]))


def build_v(rep: QuonRep) -> np.ndarray:
    """Diagonal unitary V = q^(N_a - N_b) as its k x k diagonal grid.

    Entry [n_a, n_b] is q_power(n_a - n_b), an exact root of unity.
    """
    q_power = rep.deformation.q_power
    return np.array([[q_power(n_a - n_b) for n_b in range(rep.k)] for n_a in range(rep.k)])


def _generators(rep: QuonRep, turns: float | Fraction):
    """Label (m1, m2) -> dense T_(m1,m2) = q^(m1 m2) U^m1 V^m2, each formed once.

    U is the unitary shift U_r and V = q^(N_a - N_b), both built once here
    as k^2 x k^2 matrices, so this is meant for small k.
    """
    u = build_ur(rep, turns).dense()
    v = np.diag(build_v(rep).ravel())

    @cache
    def generator(m: tuple[int, int]) -> np.ndarray:
        m1, m2 = m
        power = np.linalg.matrix_power
        return rep.deformation.q_power(m1 * m2) * (power(u, m1) @ power(v, m2))

    return generator


def _bracket_residual(defm: QDeformation, generator, m, n) -> float:
    """Max-abs residual of [T_m, T_n] = -2i sin((2 pi/k) m x n) T_(m+n).

    Here m x n = m1 n2 - m2 n1, and -2i sin((2 pi/k) x) = q^-x - q^x; the
    bracket closes for any fixed winding.
    """
    (m1, m2), (n1, n2) = m, n
    cross = m1 * n2 - m2 * n1
    coeff = defm.q_power(-cross) - defm.q_power(cross)
    t_m, t_n = generator(m), generator(n)
    return _max_abs(t_m @ t_n - t_n @ t_m - coeff * generator((m1 + n1, m2 + n2)))


def w_algebra_residual(rep: QuonRep, turns: float | Fraction) -> float:
    """Worst sine-bracket residual over all label pairs m, n in [0, k-1]^2; a NaN wins.

    Each unordered pair runs once. Swapping m and n swaps the two products
    and negates m x n, and so the coefficient; as IEEE rounding is
    symmetric, every entry of the residual is negated exactly. m = n gives
    an exact zero.
    """
    generator = _generators(rep, turns)
    labels = itertools.product(range(rep.k), repeat=2)
    return float(np.max([_bracket_residual(rep.deformation, generator, m, n)
                         for m, n in itertools.combinations(labels, 2)]))
