"""Exact Wigner-Racah algebra in the familiar {J^2, J3} scheme.

Clebsch-Gordan coefficients and 3-jm / 6-j symbols in the
Condon-Shortley convention, evaluated with big-integer rational arithmetic.
Every symbol is a signed square root of a rational number; conversion to
float is the only lossy step, and happens only at the caller's request.
An exact value is built, compared, printed and converted, never multiplied:
threejm folds its phase and 1/(2j3+1) into cg's (sign, square) in one step.

The dense float tensors cg_tensor and threejm_tensor, and the exact tables
of symbol_table, are thin calls to one routine, _triad_symbols, which
states the 3-jm index, phase and denominator rule once and reads one exact
kernel per triad (j1, j2, j), _cg_triad_squares. The kernel writes each
square with binomials in place of factorials (L. Wei, Comput. Phys.
Commun. 120 (1999) 222): the triad's binomial rows are built once, and
each row of entries is one integer convolution of them. The per-entry
functions (cg, threejm, cg_float) keep Racah's factorial sum, with
math.factorial, and are the kernel's oracle, so the two are independent
formulas and neither has a size bound of its own. Nothing here is
memoized: every call computes its value afresh. Each tensor entry is
rounded once, as sign * sqrt(num / den) with num / den the entry's exact
square in integers; Python's int / int is correctly rounded, as
Fraction.__float__ is, so the tensors equal the per-entry floats bit for
bit. symbol_table holds each nonzero square as a Fraction only to print it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .halfint import HalfInt

def _sqrt_of_square(f: Fraction):
    """Exact square root of a non-negative Fraction, or None if not a square."""
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ExactSqrtRational:
    """The value sign * sqrt(magnitude_squared), held exactly.

    sign is -1, 0 or +1 and magnitude_squared a non-negative Fraction;
    magnitude_squared == 0 iff sign == 0.
    """

    sign: int
    magnitude_squared: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.magnitude_squared < 0:
            raise ValueError("magnitude_squared must be non-negative")
        if (self.sign == 0) != (self.magnitude_squared == 0):
            raise ValueError("magnitude_squared must vanish exactly when sign does")

    @classmethod
    def zero(cls) -> "ExactSqrtRational":
        return _ZERO

    @classmethod
    def from_rational_times_sqrt(cls, coeff: Fraction, radicand: Fraction) -> "ExactSqrtRational":
        """coeff * sqrt(radicand) folded into canonical (sign, square) form."""
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        if coeff == 0 or radicand == 0:
            return cls.zero()
        sign = 1 if coeff > 0 else -1
        return cls(sign, coeff * coeff * radicand)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.magnitude_squared)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        root = _sqrt_of_square(self.magnitude_squared)
        prefix = "-" if self.sign < 0 else ""
        if root is not None:
            return f"{prefix}{root}"
        return f"{prefix}sqrt({self.magnitude_squared})"


# The instance is frozen, so zero() hands out one shared value instead of
# building and validating a new one per call.
_ZERO = ExactSqrtRational(0, Fraction(0))


class RadicalSum:
    """Exact sum of sqrt-rational terms spanning several radical classes.

    Terms are grouped by testing whether the ratio of radicands is a rational
    square, so no integer factorization is ever needed. Used for contractions
    (orthogonality sums, recoupling sums) that must cancel exactly.
    """

    def __init__(self) -> None:
        # parallel lists: radicand representative -> accumulated rational coeff
        self._radicands: list[Fraction] = []
        self._coeffs: list[Fraction] = []

    def add_term(self, coeff: Fraction, radicand: Fraction) -> None:
        """Accumulate coeff * sqrt(radicand)."""
        if coeff == 0 or radicand == 0:
            return
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        for i, rep in enumerate(self._radicands):
            ratio = _sqrt_of_square(radicand / rep)
            if ratio is not None:
                self._coeffs[i] += coeff * ratio
                return
        self._radicands.append(radicand)
        self._coeffs.append(coeff)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)


def _as_int(twice_value: int) -> int:
    """Halve a doubled label known to be even (guards against parity bugs)."""
    if twice_value % 2 != 0:
        raise ValueError(f"label combination is not an integer: {twice_value}/2")
    return twice_value // 2


def cg(j1: HalfInt, j2: HalfInt, m1: HalfInt, m2: HalfInt, j: HalfInt, m: HalfInt) -> ExactSqrtRational:
    """Clebsch-Gordan coefficient (j1 j2 m1 m2 | j m), Condon-Shortley convention.

    Total on all half-integer labels: any selection-rule violation (m sum,
    coupling range, projection range or parity) yields an exact zero.
    """
    tj1, tj2, tm1, tm2, tj, tm = j1.twice, j2.twice, m1.twice, m2.twice, j.twice, m.twice
    if tm1 + tm2 != tm:
        return ExactSqrtRational.zero()
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return ExactSqrtRational.zero()
    if abs(tm1) > tj1 or (tm1 - tj1) % 2 != 0:
        return ExactSqrtRational.zero()
    if abs(tm2) > tj2 or (tm2 - tj2) % 2 != 0:
        return ExactSqrtRational.zero()
    if abs(tm) > tj or (tm - tj) % 2 != 0:
        return ExactSqrtRational.zero()

    # Racah's closed form for (j1 j2 m1 m2 | j m); all combinations below are
    # guaranteed integral by the selection rules handled above.
    a = _as_int(tj1 + tj2 - tj)   # j1+j2-j
    b = _as_int(tj1 - tj2 + tj)   # j1-j2+j
    c = _as_int(-tj1 + tj2 + tj)  # -j1+j2+j
    jp_m = _as_int(tj + tm)
    jm_m = _as_int(tj - tm)
    j1m_m1 = _as_int(tj1 - tm1)
    j1p_m1 = _as_int(tj1 + tm1)
    j2m_m2 = _as_int(tj2 - tm2)
    j2p_m2 = _as_int(tj2 + tm2)

    prefactor = Fraction(
        (tj + 1) * math.factorial(a) * math.factorial(b) * math.factorial(c)
        * math.factorial(jp_m) * math.factorial(jm_m)
        * math.factorial(j1m_m1) * math.factorial(j1p_m1)
        * math.factorial(j2m_m2) * math.factorial(j2p_m2),
        math.factorial(_as_int(tj1 + tj2 + tj) + 1),
    )

    k_lo = max(0, _as_int(tj2 - tj - tm1), _as_int(tj1 - tj + tm2))
    k_hi = min(a, j1m_m1, j2p_m2)
    total = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        denom = (
            math.factorial(k)
            * math.factorial(a - k)
            * math.factorial(j1m_m1 - k)
            * math.factorial(j2p_m2 - k)
            * math.factorial(_as_int(tj - tj2 + tm1) + k)
            * math.factorial(_as_int(tj - tj1 - tm2) + k)
        )
        term = Fraction((-1) ** k, denom)
        total += term
    return ExactSqrtRational.from_rational_times_sqrt(total, prefactor)


def threejm(j1: HalfInt, j2: HalfInt, j3: HalfInt,
            m1: HalfInt, m2: HalfInt, m3: HalfInt) -> ExactSqrtRational:
    """Wigner 3-jm symbol, via (-1)^(j1-j2-m3) (j1 j2 m1 m2 | j3 -m3)/sqrt(2j3+1)."""
    value = cg(j1, j2, m1, m2, j3, -m3)
    if value.is_zero():
        return value
    sign = -value.sign if _as_int(j1.twice - j2.twice - m3.twice) % 2 else value.sign
    return ExactSqrtRational(sign, value.magnitude_squared / (j3.twice + 1))


def _triangle_coeff_squared(ta: int, tb: int, tc: int) -> Fraction:
    """Square of the triangle coefficient Delta(a b c)."""
    return Fraction(
        math.factorial(_as_int(ta + tb - tc)) * math.factorial(_as_int(ta - tb + tc))
        * math.factorial(_as_int(-ta + tb + tc)),
        math.factorial(_as_int(ta + tb + tc) + 1),
    )


def _triads_ok(*triads: tuple[int, int, int]) -> bool:
    for ta, tb, tc in triads:
        if not (abs(ta - tb) <= tc <= ta + tb) or (ta + tb + tc) % 2 != 0:
            return False
    return True


def sixj(j1: HalfInt, j2: HalfInt, j3: HalfInt,
         j4: HalfInt, j5: HalfInt, j6: HalfInt) -> ExactSqrtRational:
    """6-j symbol {j1 j2 j3; j4 j5 j6} by the Racah single-sum formula.

    Exact zero unless all four triads (j1 j2 j3), (j1 j5 j6), (j4 j2 j6),
    (j4 j5 j3) satisfy the triangle rule.
    """
    tj1, tj2, tj3, tj4, tj5, tj6 = j1.twice, j2.twice, j3.twice, j4.twice, j5.twice, j6.twice
    if not _triads_ok((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3)):
        return ExactSqrtRational.zero()

    radicand = (
        _triangle_coeff_squared(tj1, tj2, tj3)
        * _triangle_coeff_squared(tj1, tj5, tj6)
        * _triangle_coeff_squared(tj4, tj2, tj6)
        * _triangle_coeff_squared(tj4, tj5, tj3)
    )

    a1 = _as_int(tj1 + tj2 + tj3)
    a2 = _as_int(tj1 + tj5 + tj6)
    a3 = _as_int(tj4 + tj2 + tj6)
    a4 = _as_int(tj4 + tj5 + tj3)
    b1 = _as_int(tj1 + tj2 + tj4 + tj5)
    b2 = _as_int(tj2 + tj3 + tj5 + tj6)
    b3 = _as_int(tj3 + tj1 + tj6 + tj4)

    total = Fraction(0)
    for t in range(max(a1, a2, a3, a4), min(b1, b2, b3) + 1):
        denom = (
            math.factorial(t - a1) * math.factorial(t - a2)
            * math.factorial(t - a3) * math.factorial(t - a4)
            * math.factorial(b1 - t) * math.factorial(b2 - t) * math.factorial(b3 - t)
        )
        total += Fraction((-1) ** t * math.factorial(t + 1), denom)
    return ExactSqrtRational.from_rational_times_sqrt(total, radicand)


# ---------------------------------------------------------------------------
# Float conveniences used by the non-standard layer and by tabulation.

def cg_float(j1: HalfInt, j2: HalfInt, m1: HalfInt, m2: HalfInt, j: HalfInt, m: HalfInt) -> float:
    return float(cg(j1, j2, m1, m2, j, m))


def _cg_triad_squares(tj1: int, tj2: int, tj: int):
    """Yield (i1, i2, i, t, num, den) for every nonzero CG of one triad.

    i1, i2, i index m1, m2, m ascending, and (j1 j2 m1 m2 | j m) equals
    sign(t) * sqrt(num / den) exactly. This is the all-binomial form of
    L. Wei, Comput. Phys. Commun. 120 (1999) 222, not cg's Racah sum: with
    a = j1+j2-j, b = j1-j2+j, c = -j1+j2+j and J = j1+j2+j,

        (j1 j2 m1 m2 | j m)^2 = C(2j1, a) C(2j2, a) T^2
                                / (C(J+1, a) C(2j1, j1-m1) C(2j2, j2-m2) C(2j, j-m))

    with the sign of T = sum_k (-1)^k C(a, k) C(b, j1-m1-k) C(c, j2+m2-k),
    the coefficient of x^(j1-m1) y^(j2+m2) in (1-xy)^a (1+x)^b (1+y)^c. The
    binomial rows are built once per triad, and the T of one m1 are one
    convolution of them. A non-triangle triad yields nothing. T is found
    once per mirror pair (i1, i2) <-> (2j1-i1, 2j2-i2):
    (j1 j2 -m1 -m2 | j -m) = (-1)^a (j1 j2 m1 m2 | j m), and the binomials
    in the denominator are symmetric, so the mirror entry has the same
    (num, den) and t times (-1)^a.
    """
    if not _triads_ok((tj1, tj2, tj)):
        return
    a, b, c = (tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2, (-tj1 + tj2 + tj) // 2
    comb = math.comb
    signed_a = [-comb(a, k) if k % 2 else comb(a, k) for k in range(a + 1)]
    row_b, row_c, row_1, row_2, row_j = (
        [comb(n, s) for s in range(n + 1)] for n in (b, c, tj1, tj2, tj))
    num_triad = row_1[a] * row_2[a]
    den_triad = comb(a + b + c + 1, a)
    for i1 in range(tj1 // 2 + 1):
        p = tj1 - i1                    # j1-m1
        k_lo, k_hi = max(0, p - b), min(a, p)
        # ts[q - k_lo] = T at j2+m2 = q, for q from k_lo to k_hi+c
        ts = [0] * (k_hi - k_lo + c + 1)
        for k in range(k_lo, k_hi + 1):
            w, o = signed_a[k] * row_b[p - k], k - k_lo
            ts[o:o + c + 1] = [t + w * binom for t, binom in zip(ts[o:o + c + 1], row_c)]
        den_1 = den_triad * row_1[i1]
        # at the middle row i1 = j1, only i2 <= j2 comes first in its mirror pair;
        # zip stops there or at the end of ts, whichever comes first
        i2_hi = tj2 // 2 if 2 * i1 == tj1 else tj2
        i = i1 + k_lo - a               # index of m = m1+m2
        for i2, t, binom_2, binom_j in zip(range(k_lo, i2_hi + 1), ts, row_2[k_lo:], row_j[i:]):
            if t:
                num, den = num_triad * t * t, den_1 * binom_2 * binom_j
                yield i1, i2, i, t, num, den
                if 2 * i1 != tj1 or 2 * i2 != tj2:
                    yield tj1 - i1, tj2 - i2, tj - i, -t if a % 2 else t, num, den
            i += 1


def _triad_symbols(symbol: str, j1: HalfInt, j2: HalfInt, j3: HalfInt,
                   exact: bool = False) -> tuple[np.ndarray, list[str] | None]:
    """The cg (j3 = j) or threejm symbols of one triad as a read-only float array, indices
    ascending in m, and with exact the text of each entry's exact value in C order (else None).

    One _cg_triad_squares pass gives every nonzero entry, and each is rounded
    once: int / int is correctly rounded, as Fraction.__float__ is, so the
    floats and texts are float() and str() of cg and threejm bit for bit.
    Every other entry is 0.0 and "0".
    """
    tj1, tj2, tj3 = j1.twice, j2.twice, j3.twice
    out = np.zeros((tj1 + 1, tj2 + 1, tj3 + 1))
    flat = out.reshape(-1)
    texts = ["0"] * out.size if exact else None
    for i1, i2, i, t, num, den in _cg_triad_squares(tj1, tj2, tj3):
        negative = t < 0
        if symbol == "threejm":
            # The CG entry at m = m1+m2 is the 3-jm entry at m3 = -m, index tj3 - i.
            # 2j3+1 goes into the denominator before the one rounding division, as
            # threejm folds it into the exact square, and (-1)^(j1-j2-m3) is
            # (-1)^(j1-j2+m) with j1-j2+m = (tj1-tj2-tj3)/2 + i.
            negative ^= ((tj1 - tj2 - tj3) // 2 + i) % 2 == 1
            den *= tj3 + 1
            i = tj3 - i
        index = (i1 * (tj2 + 1) + i2) * (tj3 + 1) + i
        root = math.sqrt(num / den)
        flat[index] = -root if negative else root
        if exact:
            texts[index] = str(ExactSqrtRational(-1 if negative else 1, Fraction(num, den)))
    out.setflags(write=False)
    return out, texts


def cg_tensor(j1: HalfInt, j2: HalfInt, j: HalfInt) -> np.ndarray:
    """Dense float array of (j1 j2 m1 m2 | j m), indices ascending in m; read-only."""
    return _triad_symbols("cg", j1, j2, j)[0]


def threejm_tensor(j1: HalfInt, j2: HalfInt, j3: HalfInt) -> np.ndarray:
    """Dense float array of the 3-jm symbol, indices ascending in m; read-only."""
    return _triad_symbols("threejm", j1, j2, j3)[0]


def symbol_table(symbol: str, j1: HalfInt, j2: HalfInt,
                 j3: HalfInt) -> tuple[np.ndarray, list[str]]:
    """The cg or threejm tensor of one triad and the text of each entry's exact value, C order."""
    return _triad_symbols(symbol, j1, j2, j3, exact=True)
