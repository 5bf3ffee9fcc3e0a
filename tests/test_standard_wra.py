"""Tests for the exact standard-scheme coupling layer.

Coefficients are cross-checked along independent routes:

* Clebsch-Gordan values against an in-test oracle that diagonalizes the
  total angular momentum on the product space and fixes signs by the
  highest-weight convention, never touching the closed-form sum.
* 6-j values against the four-coefficient recoupling contraction in the
  m-basis.
* A table of frozen exact values (also verified against sympy when it is
  installed) guards against silent regressions of either route.
* Whole small CG, 3-jm and 6-j tables are compared exactly with sympy's.
* The tensors' binomial kernel against the per-entry Racah sum, square by
  square in Fraction, and against exact sum rules at 2j = 32 (at 2j = 128 in
  sum_rules_2j128.py, which the default run does not collect).
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wigner_nonstd.halfint import HalfInt, m_values, triangle
from wigner_nonstd.standard_wra import (
    ExactSqrtRational,
    RadicalSum,
    _cg_triad_squares,
    cg,
    cg_float,
    cg_tensor,
    sixj,
    symbol_table,
    threejm,
    threejm_tensor,
)

H = HalfInt


def halves(lo: float, hi: float):
    """All half-integers between lo and hi inclusive."""
    return [H(t) for t in range(int(2 * lo), int(2 * hi) + 1)]


# ---------------------------------------------------------------------------
# Exact scalar arithmetic


class TestExactSqrtRational:
    def test_zero_is_shared_and_equals_a_fresh_value(self):
        assert ExactSqrtRational.zero().is_zero()
        assert ExactSqrtRational.zero() is ExactSqrtRational.zero()
        assert ExactSqrtRational.zero() == ExactSqrtRational(0, Fraction(0))

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            ExactSqrtRational(2, Fraction(1))
        with pytest.raises(ValueError):
            ExactSqrtRational(1, Fraction(0))
        with pytest.raises(ValueError):
            ExactSqrtRational(0, Fraction(1))
        with pytest.raises(ValueError):
            ExactSqrtRational(1, Fraction(-1))

    def test_from_rational_times_sqrt_folds_coefficient(self):
        v = ExactSqrtRational.from_rational_times_sqrt(Fraction(-2, 3), Fraction(5))
        assert v.sign == -1
        assert v.magnitude_squared == Fraction(20, 9)
        assert math.isclose(float(v), -2.0 / 3.0 * math.sqrt(5.0))

    def test_str(self):
        assert str(ExactSqrtRational.zero()) == "0"
        assert str(ExactSqrtRational(1, Fraction(5, 72))) == "sqrt(5/72)"
        assert str(ExactSqrtRational(-1, Fraction(1, 324))) == "-1/18"
        assert str(ExactSqrtRational(1, Fraction(25, 1296))) == "5/36"

    def test_equality_is_canonical(self):
        a = ExactSqrtRational.from_rational_times_sqrt(Fraction(1, 2), Fraction(2))
        b = ExactSqrtRational(1, Fraction(1, 2))
        assert a == b


class TestRadicalSum:
    def test_groups_compatible_radicands(self):
        s = RadicalSum()
        s.add_term(Fraction(1), Fraction(2))      # sqrt 2
        s.add_term(Fraction(1), Fraction(8))      # 2 sqrt 2
        s.add_term(Fraction(-3), Fraction(1, 2))  # -(3/2) sqrt 2
        s.add_term(Fraction(-3, 2), Fraction(2))
        assert s.is_zero()

    def test_exact_cancellation_across_classes(self):
        s = RadicalSum()
        s.add_term(Fraction(2), Fraction(3))
        s.add_term(Fraction(5), Fraction(7))
        s.add_term(Fraction(-2), Fraction(3))
        s.add_term(Fraction(-5), Fraction(7))
        assert s.is_zero()

    def test_multi_class_sum_is_not_zero(self):
        s = RadicalSum()
        s.add_term(Fraction(1), Fraction(2))
        s.add_term(Fraction(1), Fraction(3))
        assert not s.is_zero()
        s.add_term(Fraction(-1), Fraction(2))  # the sqrt 2 class cancels, sqrt 3 remains
        assert not s.is_zero()

    def test_add_same_class(self):
        s = RadicalSum()
        s.add_term(Fraction(1), Fraction(2))     # sqrt 2
        s.add_term(Fraction(1), Fraction(9, 2))  # 3/sqrt 2 = (3/2) sqrt 2
        assert not s.is_zero()
        s.add_term(Fraction(-5, 2), Fraction(2))
        assert s.is_zero()

    def test_add_cancels_exactly(self):
        s = RadicalSum()
        s.add_term(Fraction(1), Fraction(7, 3))
        s.add_term(Fraction(-1), Fraction(7, 3))
        assert s.is_zero()
        s.add_term(Fraction(1), Fraction(7, 3))
        s.add_term(Fraction(-1, 2), Fraction(28, 3))  # sqrt(28/3) = 2 sqrt(7/3)
        assert s.is_zero()

    def test_add_zero_identity(self):
        s = RadicalSum()
        s.add_term(Fraction(5), Fraction(0))
        s.add_term(Fraction(0), Fraction(5))
        assert s.is_zero()
        s.add_term(Fraction(-1), Fraction(5))
        s.add_term(Fraction(0), Fraction(3))
        s.add_term(Fraction(2), Fraction(0))
        assert not s.is_zero()
        s.add_term(Fraction(1), Fraction(5))
        assert s.is_zero()

    def test_add_exact_value(self):
        # (3/2) * (-sqrt 4) = -3, held under the first radicand 4; adding 3 sqrt 1 cancels it
        value = ExactSqrtRational(-1, Fraction(4))
        s = RadicalSum()
        s.add_term(Fraction(3, 2) * value.sign, value.magnitude_squared)
        assert not s.is_zero()
        s.add_term(Fraction(3), Fraction(1))
        assert s.is_zero()


# ---------------------------------------------------------------------------
# Frozen exact values (independently confirmed against sympy's tables)

CG_FROZEN = [
    # (j1, j2, m1, m2, j, m, signed_square)
    (1, 1, 1, -1, 0, 0, Fraction(1, 2)),
    (2, 2, 2, 0, 4, 2, Fraction(1, 2)),
    (2, 1, 0, 1, 1, 1, Fraction(-1, 3)),
    (3, 2, 1, 0, 5, 1, Fraction(3, 5)),
    (2, 2, 0, 0, 2, 0, Fraction(0)),
    (1, 1, 1, 1, 2, 2, Fraction(1)),
]

THREEJM_FROZEN = [
    # (j1, j2, j3, m1, m2, m3, signed_square)
    (1, 1, 0, 1, -1, 0, Fraction(1, 2)),
    (2, 2, 2, 2, -2, 0, Fraction(1, 6)),
    (3, 3, 2, 3, -1, -2, Fraction(-1, 10)),
]

SIXJ_FROZEN = [
    # (2j x 6, signed_square)
    ((1, 1, 2, 1, 1, 2), Fraction(1, 36)),
    ((2, 2, 2, 2, 2, 2), Fraction(1, 36)),
    ((1, 1, 0, 1, 1, 2), Fraction(1, 4)),
    ((2, 4, 4, 2, 2, 2), Fraction(-1, 20)),
    ((3, 3, 2, 1, 1, 2), Fraction(5, 72)),
]


def signed_square(value: ExactSqrtRational) -> Fraction:
    """sign * magnitude_squared: one exact scalar that determines the value."""
    return value.sign * value.magnitude_squared


class TestFrozenValues:
    @pytest.mark.parametrize("t1,t2,tm1,tm2,tj,tm,square", CG_FROZEN)
    def test_cg(self, t1, t2, tm1, tm2, tj, tm, square):
        assert signed_square(cg(H(t1), H(t2), H(tm1), H(tm2), H(tj), H(tm))) == square

    @pytest.mark.parametrize("t1,t2,t3,tm1,tm2,tm3,square", THREEJM_FROZEN)
    def test_threejm(self, t1, t2, t3, tm1, tm2, tm3, square):
        value = threejm(H(t1), H(t2), H(t3), H(tm1), H(tm2), H(tm3))
        assert signed_square(value) == square

    @pytest.mark.parametrize("labels,square", SIXJ_FROZEN)
    def test_sixj(self, labels, square):
        assert signed_square(sixj(*[H(t) for t in labels])) == square

    def test_display_forms(self):
        assert str(sixj(H(3), H(3), H(2), H(1), H(1), H(2))) == "sqrt(5/72)"
        assert str(sixj(H(1), H(1), H(2), H(1), H(1), H(2))) == "1/6"

    @pytest.mark.parametrize(
        "compute,args",
        [
            (cg, CG_FROZEN[0][:6]),
            (cg, CG_FROZEN[3][:6]),
            (threejm, THREEJM_FROZEN[2][:6]),
            (sixj, SIXJ_FROZEN[3][0]),
            (sixj, SIXJ_FROZEN[4][0]),
        ],
    )
    def test_against_sympy(self, compute, args):
        wigner = pytest.importorskip("sympy.physics.wigner")
        names = {cg: "clebsch_gordan", threejm: "wigner_3j", sixj: "wigner_6j"}
        sympy_args = [Fraction(t, 2) for t in args]
        if compute is cg:
            # sympy argument order: j1 j2 j3 m1 m2 m3
            t1, t2, tm1, tm2, tj, tm = args
            sympy_args = [Fraction(t, 2) for t in (t1, t2, tj, tm1, tm2, tm)]
        reference = float(getattr(wigner, names[compute])(*sympy_args))
        assert math.isclose(float(compute(*[H(t) for t in args])), reference,
                            abs_tol=1e-13)


def sympy_signed_square(value) -> Fraction:
    """sign(v) * v**2 of a sympy sqrt-rational, as an exact Fraction."""
    square = value ** 2
    assert square.is_Rational, value
    sign = 1 if value > 0 else -1 if value < 0 else 0
    return sign * Fraction(int(square.p), int(square.q))


class TestSympyTables:
    """Whole tables against sympy's exact values, compared as signed squares.

    Every selection-rule zero inside the tables is compared too.
    """

    @pytest.mark.parametrize("tj1", range(5))
    @pytest.mark.parametrize("tj2", range(5))
    def test_cg_table(self, tj1, tj2):
        wigner = pytest.importorskip("sympy.physics.wigner")
        sympy = pytest.importorskip("sympy")
        checked = 0
        for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        labels = (tj1, tj2, tj, tm1, tm2, tm)
                        reference = wigner.clebsch_gordan(*[sympy.Rational(t, 2) for t in labels])
                        value = cg(H(tj1), H(tj2), H(tm1), H(tm2), H(tj), H(tm))
                        assert signed_square(value) == sympy_signed_square(reference), labels
                        checked += 1
        assert checked >= (tj1 + 1) * (tj2 + 1)

    @pytest.mark.parametrize("t1", range(5))
    def test_threejm_table(self, t1):
        wigner = pytest.importorskip("sympy.physics.wigner")
        sympy = pytest.importorskip("sympy")
        for t2 in range(5):
            # every t3 of integer perimeter, so triangle violations give zeros
            for t3 in range((t1 + t2) % 2, 5, 2):
                for tm1 in range(-t1, t1 + 1, 2):
                    for tm2 in range(-t2, t2 + 1, 2):
                        for tm3 in range(-t3, t3 + 1, 2):
                            labels = (t1, t2, t3, tm1, tm2, tm3)
                            reference = wigner.wigner_3j(*[sympy.Rational(t, 2) for t in labels])
                            value = threejm(*[H(t) for t in labels])
                            assert signed_square(value) == sympy_signed_square(reference), labels

    @pytest.mark.parametrize("t1", range(4))
    def test_sixj_table(self, t1):
        wigner = pytest.importorskip("sympy.physics.wigner")
        sympy = pytest.importorskip("sympy")
        for t2 in range(4):
            for t3 in range(4):
                for t12 in range(abs(t1 - t2), t1 + t2 + 1, 2):
                    for t in range(abs(t12 - t3), t12 + t3 + 1, 2):
                        for t23 in range(abs(t2 - t3), t2 + t3 + 1, 2):
                            labels = (t1, t2, t12, t3, t, t23)
                            reference = wigner.wigner_6j(*[sympy.Rational(x, 2) for x in labels])
                            value = sixj(*[H(x) for x in labels])
                            assert signed_square(value) == sympy_signed_square(reference), labels


# ---------------------------------------------------------------------------
# Selection rules and conventions


class TestSelectionRules:
    def test_m_sum_violation_is_exact_zero(self):
        assert cg(H(2), H(2), H(2), H(2), H(2), H(2)).is_zero()

    def test_triangle_violation_is_exact_zero(self):
        assert cg(H(1), H(1), H(1), H(1), H(6), H(2)).is_zero()
        assert sixj(H(1), H(1), H(6), H(1), H(1), H(2)).is_zero()

    def test_projection_out_of_range_is_exact_zero(self):
        assert cg(H(1), H(1), H(3), H(-1), H(2), H(2)).is_zero()

    def test_parity_mismatch_is_exact_zero(self):
        # integer m on a half-integer j
        assert cg(H(1), H(1), H(0), H(0), H(2), H(0)).is_zero()

    def test_trivial_coupling(self):
        assert cg(H(0), H(0), H(0), H(0), H(0), H(0)) == ExactSqrtRational(1, Fraction(1))
        assert float(cg(H(4), H(0), H(2), H(0), H(4), H(2))) == 1.0

    def test_condon_shortley_stretched_positive(self):
        # <j1 j1; j2 (j - j1) | j j> > 0 for every admissible j
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    value = cg(H(tj1), H(tj2), H(tj1), H(tj - tj1), H(tj), H(tj))
                    assert value.sign == 1


# ---------------------------------------------------------------------------
# Oracle 1: product-space diagonalization for Clebsch-Gordan coefficients


def su2_lowering(tj: int) -> np.ndarray:
    """Lowering operator on the (tj+1)-dim irrep, basis ascending in m."""
    dim = tj + 1
    out = np.zeros((dim, dim))
    for i, tm in enumerate(range(-tj, tj + 1, 2)):
        if i > 0:
            j, m = tj / 2.0, tm / 2.0
            out[i - 1, i] = math.sqrt((j + m) * (j - m + 1.0))
    return out


def cg_by_diagonalization(tj1: int, tj2: int) -> dict:
    """All <m1 m2 | j m> for j1 x j2, built by highest-weight descent.

    Starts from the stretched state, constructs each lower highest-weight
    state by orthogonal complement inside its m-subspace, fixes the overall
    sign by requiring the m1 = j1 component positive, and fills the rest of
    each multiplet by applying the total lowering operator.
    """
    d1, d2 = tj1 + 1, tj2 + 1
    lower = np.kron(su2_lowering(tj1), np.eye(d2)) + np.kron(np.eye(d1), su2_lowering(tj2))

    def product_index(i1, i2):
        return i1 * d2 + i2

    table = {}
    multiplets = []  # (tj, [states at m = j, j-1, ..., -j]), highest j first
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2):
        # basis of the m = j subspace
        members = [
            (i1, i2)
            for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2))
            for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2))
            if tm1 + tm2 == tj
        ]
        if tj == tj1 + tj2:
            top = np.zeros(d1 * d2)
            top[product_index(d1 - 1, d2 - 1)] = 1.0
        else:
            # project out every descended higher multiplet
            subspace = np.zeros((d1 * d2, len(members)))
            for col, (i1, i2) in enumerate(members):
                subspace[product_index(i1, i2), col] = 1.0
            overlaps = np.column_stack(
                [states[(tj_top - tj) // 2] for tj_top, states in multiplets])
            coeffs = subspace - overlaps @ (overlaps.conj().T @ subspace)
            # any nonzero column of the projected frame spans the 1-dim complement
            norms = np.linalg.norm(coeffs, axis=0)
            top = coeffs[:, int(np.argmax(norms))]
            top /= np.linalg.norm(top)
            # highest-weight phase fixing: component at m1 = j1 positive
            anchor = product_index(d1 - 1, (tj - tj1 + tj2) // 2)
            if top[anchor] < 0:
                top = -top
        # descend through the multiplet and record coefficients
        states = [top]
        vec = top
        for tm in range(tj, -tj, -2):
            j, m = tj / 2.0, tm / 2.0
            vec = lower @ vec / math.sqrt((j + m) * (j - m + 1.0))
            states.append(vec)
        multiplets.append((tj, states))
        for step, state in enumerate(states):
            tm = tj - 2 * step
            for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
                for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2)):
                    if tm1 + tm2 == tm:
                        table[(tm1, tm2, tj, tm)] = state[product_index(i1, i2)]
    return table


class TestCgDiagonalizationOracle:
    @pytest.mark.parametrize("tj1", range(0, 5))
    @pytest.mark.parametrize("tj2", range(0, 5))
    def test_all_pairs_up_to_two(self, tj1, tj2):
        table = cg_by_diagonalization(tj1, tj2)
        worst = 0.0
        for (tm1, tm2, tj, tm), expected in table.items():
            got = cg_float(H(tj1), H(tj2), H(tm1), H(tm2), H(tj), H(tm))
            worst = max(worst, abs(got - expected))
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# Oracle 2: recoupling contraction for the 6-j symbol


def sixj_by_recoupling(t1, t2, t12, t3, t, t23):
    """{j1 j2 j12; j3 j j23} from the overlap of the two coupling orders."""
    tm = t  # any fixed total projection works; use the stretched one
    total = 0.0
    for tm1 in range(-t1, t1 + 1, 2):
        for tm2 in range(-t2, t2 + 1, 2):
            tm3 = tm - tm1 - tm2
            if abs(tm3) > t3:
                continue
            tm12, tm23 = tm1 + tm2, tm2 + tm3
            if abs(tm12) > t12 or abs(tm23) > t23:
                continue
            total += (cg_float(H(t1), H(t2), H(tm1), H(tm2), H(t12), H(tm12))
                      * cg_float(H(t12), H(t3), H(tm12), H(tm3), H(t), H(tm))
                      * cg_float(H(t2), H(t3), H(tm2), H(tm3), H(t23), H(tm23))
                      * cg_float(H(t1), H(t23), H(tm1), H(tm23), H(t), H(tm)))
    sign = -1.0 if ((t1 + t2 + t3 + t) // 2) % 2 else 1.0
    return sign * total / math.sqrt((t12 + 1) * (t23 + 1))


class TestSixjRecouplingOracle:
    def test_exhaustive_small_arguments(self):
        worst = 0.0
        checked = 0
        for t1 in range(0, 4):
            for t2 in range(0, 4):
                for t3 in range(0, 4):
                    for t12 in range(abs(t1 - t2), t1 + t2 + 1, 2):
                        for t in range(abs(t12 - t3), t12 + t3 + 1, 2):
                            for t23 in range(abs(t2 - t3), t2 + t3 + 1, 2):
                                lib = float(sixj(H(t1), H(t2), H(t12),
                                                 H(t3), H(t), H(t23)))
                                orc = sixj_by_recoupling(t1, t2, t12, t3, t, t23)
                                worst = max(worst, abs(lib - orc))
                                checked += 1
        assert checked > 200
        assert worst < 1e-12

    @pytest.mark.parametrize("labels", [
        (2, 4, 4, 2, 2, 2),
        (4, 4, 4, 4, 4, 4),
        (3, 3, 2, 1, 1, 2),
        (2, 2, 4, 2, 2, 4),
    ])
    def test_larger_spot_checks(self, labels):
        lib = float(sixj(*[H(t) for t in labels]))
        assert abs(lib - sixj_by_recoupling(*labels)) < 1e-12


# ---------------------------------------------------------------------------
# Exact structural identities (zero working precision)


class TestExactIdentities:
    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
    def test_cg_rows_orthonormal_exactly(self, tj1, tj2):
        """sum_j,m <m1 m2|j m><m1' m2'|j m> = delta exactly, via RadicalSum."""
        pairs = [(tm1, tm2) for tm1 in range(-tj1, tj1 + 1, 2)
                 for tm2 in range(-tj2, tj2 + 1, 2)]
        for tm1, tm2 in pairs:
            for tn1, tn2 in pairs:
                acc = RadicalSum()
                for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm in range(-tj, tj + 1, 2):
                        left = cg(H(tj1), H(tj2), H(tm1), H(tm2), H(tj), H(tm))
                        right = cg(H(tj1), H(tj2), H(tn1), H(tn2), H(tj), H(tm))
                        acc.add_term(Fraction(left.sign * right.sign),
                                     left.magnitude_squared * right.magnitude_squared)
                expected = 1 if (tm1, tm2) == (tn1, tn2) else 0
                acc.add_term(Fraction(-expected), Fraction(1))
                assert acc.is_zero()

    def test_threejm_cyclic_symmetry_exact(self):
        for t1 in range(0, 5):
            for t2 in range(0, 5):
                for t3 in range(abs(t1 - t2), t1 + t2 + 1, 2):
                    for tm1 in range(-t1, t1 + 1, 2):
                        for tm2 in range(-t2, t2 + 1, 2):
                            tm3 = -tm1 - tm2
                            if abs(tm3) > t3:
                                continue
                            base = threejm(H(t1), H(t2), H(t3), H(tm1), H(tm2), H(tm3))
                            cyc = threejm(H(t2), H(t3), H(t1), H(tm2), H(tm3), H(tm1))
                            assert base == cyc

    def test_threejm_odd_permutation_exact(self):
        for t1 in range(0, 4):
            for t2 in range(0, 4):
                for t3 in range(abs(t1 - t2), t1 + t2 + 1, 2):
                    sign = -1 if ((t1 + t2 + t3) // 2) % 2 else 1
                    for tm1 in range(-t1, t1 + 1, 2):
                        for tm2 in range(-t2, t2 + 1, 2):
                            tm3 = -tm1 - tm2
                            if abs(tm3) > t3:
                                continue
                            base = threejm(H(t1), H(t2), H(t3), H(tm1), H(tm2), H(tm3))
                            swap = threejm(H(t2), H(t1), H(t3), H(tm2), H(tm1), H(tm3))
                            negm = threejm(H(t1), H(t2), H(t3), H(-tm1), H(-tm2), H(-tm3))
                            assert signed_square(swap) == sign * signed_square(base)
                            assert signed_square(negm) == sign * signed_square(base)

    def test_sixj_column_and_row_symmetry_exact(self):
        labels = [(1, 1, 2, 1, 1, 2), (2, 4, 4, 2, 2, 2), (3, 3, 2, 1, 1, 2),
                  (2, 2, 2, 2, 2, 2), (1, 2, 3, 2, 1, 2)]
        for (a, b, c, d, e, f) in labels:
            base = sixj(H(a), H(b), H(c), H(d), H(e), H(f))
            assert sixj(H(b), H(a), H(c), H(e), H(d), H(f)) == base  # swap columns 1,2
            assert sixj(H(c), H(b), H(a), H(f), H(e), H(d)) == base  # swap columns 1,3
            assert sixj(H(d), H(e), H(c), H(a), H(b), H(f)) == base  # flip rows in cols 1,2


# ---------------------------------------------------------------------------
# Dense tensors


class TestTensors:
    def test_cg_tensor_matches_scalars(self):
        j1, j2, j = H(3), H(2), H(3)
        tensor = cg_tensor(j1, j2, j)
        assert tensor.shape == (4, 3, 4)
        for i1, m1 in enumerate(m_values(j1)):
            for i2, m2 in enumerate(m_values(j2)):
                for i, m in enumerate(m_values(j)):
                    assert tensor[i1, i2, i] == cg_float(j1, j2, m1, m2, j, m)

    def test_threejm_tensor_matches_scalars(self):
        j1, j2, j3 = H(2), H(2), H(2)
        tensor = threejm_tensor(j1, j2, j3)
        for i1, m1 in enumerate(m_values(j1)):
            for i2, m2 in enumerate(m_values(j2)):
                for i3, m3 in enumerate(m_values(j3)):
                    expected = float(threejm(j1, j2, j3, m1, m2, m3))
                    assert tensor[i1, i2, i3] == expected

    def test_non_triangle_tensor_is_zero(self):
        assert not cg_tensor(H(1), H(1), H(6)).any()

    def test_non_triangle_tensor_is_write_protected(self):
        a = cg_tensor(H(1), H(1), H(6))
        assert a.shape == (2, 2, 7)
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0

    def test_tensors_are_write_protected(self):
        tensor = cg_tensor(H(2), H(2), H(2))
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 1.0

    @pytest.mark.parametrize("tj1", range(17))
    def test_cg_tensor_is_the_per_entry_oracle_bit_for_bit(self, tj1):
        for tj2 in range(17):
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, 16) + 1, 2):
                assert cg_tensor(H(tj1), H(tj2), H(tj)).tobytes() == cg_reference(tj1, tj2, tj).tobytes()

    def test_cg_tensor_matches_oracle_on_seeded_triads_up_to_128(self):
        rng = random.Random(20161)
        triads = [(128, 6, 124), (3, 128, 127)]
        for _ in range(4):
            tj1, tj2 = rng.randint(64, 128), rng.randint(0, 20)
            triads.append((tj1, tj2, rng.randrange(abs(tj1 - tj2), min(tj1 + tj2, 128) + 1, 2)))
        for triad in triads:
            tensor = cg_tensor(*(H(t) for t in triad))
            assert tensor.tobytes() == cg_reference(*triad).tobytes(), triad

    @pytest.mark.parametrize("tj1", range(11))
    def test_threejm_tensor_is_the_per_entry_oracle_bit_for_bit(self, tj1):
        # every label set with 2j <= 10, triangle or not, and either parity
        for tj2 in range(11):
            for tj3 in range(11):
                tensor = threejm_tensor(H(tj1), H(tj2), H(tj3))
                assert tensor.tobytes() == threejm_reference(tj1, tj2, tj3).tobytes()

    @pytest.mark.parametrize("symbol", ["cg", "threejm"])
    @pytest.mark.parametrize("tj1", range(9))
    def test_symbol_table_is_the_per_entry_oracle_bit_for_bit(self, symbol, tj1):
        # every label set with 2j <= 8, triangle or not, and either parity: each text is
        # str() and each float float() of the per-entry symbol at the same labels
        for tj2, tj3 in itertools.product(range(9), repeat=2):
            j1, j2, j3 = H(tj1), H(tj2), H(tj3)
            tensor, texts = symbol_table(symbol, j1, j2, j3)
            assert tensor.shape == (tj1 + 1, tj2 + 1, tj3 + 1)
            values = [cg(j1, j2, m1, m2, j3, m3) if symbol == "cg"
                      else threejm(j1, j2, j3, m1, m2, m3)
                      for m1, m2, m3 in itertools.product(*map(m_values, (j1, j2, j3)))]
            assert texts == [str(value) for value in values]
            expected = np.array([float(value) for value in values])
            assert tensor.ravel().tobytes() == expected.tobytes()

    def test_no_factorial_bound_past_2j_400(self):
        # cg needs (j1+j2+j+1)! = 403! and the 6-j (a+b+c+1)! = 451!: neither route is bounded
        j1, j2, j = H(400), H(2), H(402)
        tensor = cg_tensor(j1, j2, j)
        # a stretched triad: every (m1, m2) has its nonzero entry at m = m1+m2, index i1+i2
        pairs = list(itertools.product(enumerate(m_values(j1)), enumerate(m_values(j2))))
        assert np.count_nonzero(tensor) == len(pairs) == 1203
        got = np.array([tensor[i1, i2, i1 + i2] for (i1, _), (i2, _) in pairs])
        expected = np.array([float(cg(j1, j2, m1, m2, j, m1 + m2)) for (_, m1), (_, m2) in pairs])
        assert got.tobytes() == expected.tobytes()
        # {a b c; 0 c b} = (-1)^(a+b+c)/sqrt((2b+1)(2c+1)), here with a = b = c = 150
        a = H(300)
        assert sixj(a, a, a, H(0), a, a) == ExactSqrtRational(1, Fraction(1, 301 ** 2))


# ---------------------------------------------------------------------------
# The tensors' exact kernel: the binomial form against Racah's sum, and exact
# sum rules. sum_rules_2j128.py runs the rule helpers at 2j = 128.


def cg_column_sums(tj1: int, tj2: int, tj: int) -> list[Fraction]:
    """Sum over (m1, m2) of the exact CG squares of one triad, one per m."""
    sums = [Fraction(0)] * (tj + 1)
    for _, _, i, _, num, den in _cg_triad_squares(tj1, tj2, tj):
        sums[i] += Fraction(num, den)
    return sums


def cg_row_sums(tj1: int, tj2: int) -> list[list[Fraction]]:
    """Sum over every (j, m) of the exact CG squares, one per (m1, m2)."""
    sums = [[Fraction(0)] * (tj2 + 1) for _ in range(tj1 + 1)]
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for i1, i2, _, _, num, den in _cg_triad_squares(tj1, tj2, tj):
            sums[i1][i2] += Fraction(num, den)
    return sums


def threejm_column_sums(tj1: int, tj2: int, tj3: int) -> list[Fraction]:
    """Sum over (m1, m2) of the exact 3-jm squares, one per m3, with 2j3+1 in
    the denominator as threejm_tensor has it."""
    sums = [Fraction(0)] * (tj3 + 1)
    for _, _, i, _, num, den in _cg_triad_squares(tj1, tj2, tj3):
        sums[tj3 - i] += Fraction(num, den * (tj3 + 1))
    return sums


class TestTriadSquares:
    @pytest.mark.parametrize("tj1", range(13))
    def test_kernel_is_the_per_entry_oracle_exactly(self, tj1):
        # every (j2, j) with 2j2 <= 12, triangle or not: the kernel yields exactly the
        # labels where cg is nonzero, each with cg's exact square and sign
        for tj2 in range(13):
            for tj in range(tj1 + tj2 + 3):
                yielded = {(i1, i2, i): (t, Fraction(num, den))
                           for i1, i2, i, t, num, den in _cg_triad_squares(tj1, tj2, tj)}
                nonzero = {}
                for i1, i2 in itertools.product(range(tj1 + 1), range(tj2 + 1)):
                    tm = 2 * (i1 + i2) - tj1 - tj2
                    if abs(tm) <= tj:
                        value = cg(H(tj1), H(tj2), H(2 * i1 - tj1), H(2 * i2 - tj2), H(tj), H(tm))
                        if not value.is_zero():
                            nonzero[i1, i2, (tm + tj) // 2] = value
                assert yielded.keys() == nonzero.keys(), (tj1, tj2, tj)
                for key, (t, square) in yielded.items():
                    assert square == nonzero[key].magnitude_squared, (tj1, tj2, tj, key)
                    assert (t > 0) - (t < 0) == nonzero[key].sign, (tj1, tj2, tj, key)


class TestExactSumRules:
    def test_cg_columns_and_rows_at_32(self):
        for tj in range(0, 65, 2):
            assert cg_column_sums(32, 32, tj) == [1] * (tj + 1), tj
        assert cg_row_sums(32, 32) == [[1] * 33] * 33

    def test_threejm_columns_at_32(self):
        for tj3 in range(0, 65, 2):
            assert threejm_column_sums(32, 32, tj3) == [Fraction(1, tj3 + 1)] * (tj3 + 1), tj3

    @pytest.mark.parametrize("a,b,c,d,f", [(16, 16, 16, 16, 0), (16, 16, 16, 16, 16),
                                           (16, 16, 16, 16, 32), (15, 16, 13, 14, 3),
                                           (9, 16, 12, 13, 6), (2, 16, 16, 2, 4)])
    def test_sixj_normalization(self, a, b, c, d, f):
        # sum over x of (2x+1)(2f+1){a b x; c d f}^2 = 1 (Edmonds 1957, section 6.2), in
        # doubled labels; the rule needs (a d f) and (c b f) to be triangles
        assert triangle(H(a), H(d), H(f)) and triangle(H(c), H(b), H(f))
        total = Fraction(0)
        for x in range(max(abs(a - b), abs(c - d)), min(a + b, c + d) + 1, 2):
            total += (x + 1) * (f + 1) * sixj(H(a), H(b), H(x), H(c), H(d), H(f)).magnitude_squared
        assert total == 1


def cg_reference(tj1: int, tj2: int, tj: int) -> np.ndarray:
    """cg_tensor entry by entry from the oracle cg."""
    out = np.zeros((tj1 + 1, tj2 + 1, tj + 1))
    for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
        for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2)):
            tm = tm1 + tm2
            if abs(tm) <= tj:
                value = cg(H(tj1), H(tj2), H(tm1), H(tm2), H(tj), H(tm))
                out[i1, i2, (tm + tj) // 2] = float(value)
    return out


def threejm_reference(tj1: int, tj2: int, tj3: int) -> np.ndarray:
    """threejm_tensor entry by entry from the oracle threejm."""
    out = np.zeros((tj1 + 1, tj2 + 1, tj3 + 1))
    for i1, m1 in enumerate(m_values(H(tj1))):
        for i2, m2 in enumerate(m_values(H(tj2))):
            tm3 = -m1.twice - m2.twice
            if abs(tm3) <= tj3:
                value = threejm(H(tj1), H(tj2), H(tj3), m1, m2, H(tm3))
                out[i1, i2, (tm3 + tj3) // 2] = float(value)
    return out
