"""Tests for the root-of-unity deformed oscillator pair and its operators."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wigner_nonstd import quon
from wigner_nonstd.quon import (
    MAX_K,
    KronPair,
    QDeformation,
    _generators,
    build_h,
    build_rep,
    build_ur,
    build_v,
    cyclicity_residual,
    relation_residuals,
    unit_phase,
    w_algebra_residual,
)
from wigner_nonstd.su2gen import diagonal_multiplet_indices, restrict_fock_operator

K_RANGE = range(2, 13)
R_GRID = [0.0, 0.37, 1.0, 2.5]


class TestUnitPhase:
    def test_basic_values(self):
        assert unit_phase(0, 1) == 1.0
        assert abs(unit_phase(1, 2) + 1.0) < 1e-15
        assert abs(unit_phase(1, 4) - 1j) < 1e-15

    def test_large_argument_stays_accurate(self):
        # 10^9 + 1/4 turns: the integer reduction recovers the quarter turn
        # exactly, with no phase loss that grows with the magnitude
        assert unit_phase(4 * 10**9 + 1, 4) == unit_phase(1, 4)
        assert unit_phase(4 * 10**30 + 1, 4) == unit_phase(1, 4)

    def test_negative_turns(self):
        assert abs(unit_phase(-1, 4) + 1j) < 1e-15

    def test_frac_reduction_is_exact_at_full_turns(self):
        assert unit_phase(7, 7) == 1.0 + 0.0j
        assert unit_phase(21, 7) == 1.0 + 0.0j
        assert unit_phase(-7, 7) == 1.0 + 0.0j

    def test_frac_matches_direct(self):
        for num in range(-5, 6):
            expected = cmath.exp(2j * cmath.pi * num / 5)
            assert abs(unit_phase(num, 5) - expected) < 1e-14

    def test_scalar_returns_complex_array_returns_array(self):
        assert type(unit_phase(3, 7)) is complex
        out = unit_phase(np.arange(7), 7)
        assert isinstance(out, np.ndarray) and out.dtype == complex
        assert out.tolist() == [unit_phase(n, 7) for n in range(7)]

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**15), st.integers(-10**15, 10**15))
    def test_whole_turns_drop_out_exactly(self, n, d, t):
        assert unit_phase(n + t * d, d) == unit_phase(n, d)

    @given(st.lists(st.integers(-2**52, 2**52), min_size=1, max_size=40),
           st.integers(1, 2**52))
    def test_array_of_ints_matches_scalar_calls_bit_for_bit(self, numerators, d):
        scalar = np.array([unit_phase(n, d) for n in numerators])
        assert unit_phase(np.array(numerators), d).tobytes() == scalar.tobytes()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.integers(1, 1000))
    def test_array_of_floats_matches_scalar_calls_bit_for_bit(self, numerators, d):
        scalar = np.array([unit_phase(x, d) for x in numerators])
        assert unit_phase(np.array(numerators), d).tobytes() == scalar.tobytes()


class TestQDeformation:
    def test_validation(self):
        with pytest.raises(ValueError):
            QDeformation(1)
        with pytest.raises(ValueError):
            QDeformation(MAX_K + 1)
        with pytest.raises(TypeError):
            QDeformation(3.0)
        with pytest.raises(TypeError):
            QDeformation(True)

    def test_q_is_primitive_root(self):
        defm = QDeformation(6)
        assert abs(defm.q - cmath.exp(2j * cmath.pi / 6)) < 1e-15
        assert defm.q_power(6) == 1.0 + 0.0j  # exact by reduction
        assert abs(defm.q_power(3) + 1.0) < 1e-15

    def test_q_number_values(self):
        defm = QDeformation(5)
        assert defm.q_number(0) == 0.0
        assert defm.q_number(1) == 1.0
        assert abs(defm.q_number(2) - (1.0 + defm.q)) < 1e-15
        # [k]_q vanishes exactly thanks to the exact exponent reduction
        assert defm.q_number(5) == 0.0
        assert defm.q_number(10) == 0.0

    def test_q_number_rejects_negative(self):
        with pytest.raises(ValueError):
            QDeformation(4).q_number(-1)

    def test_q_factorial(self):
        defm = QDeformation(7)
        assert defm.q_factorial(0) == 1.0 + 0.0j
        expected = defm.q_number(1) * defm.q_number(2) * defm.q_number(3)
        assert abs(defm.q_factorial(3) - expected) < 1e-14

    @pytest.mark.parametrize("k", K_RANGE)
    def test_top_q_factorial_is_nonzero(self, k):
        # [k-1]_q! != 0 is what allows the wrap normalization below
        assert abs(QDeformation(k).q_factorial(k - 1)) > 1e-12

    def test_q_factorial_rejects_out_of_range(self):
        # arguments >= k would zero the product via [k]_q = 0; treat as a bug
        defm = QDeformation(5)
        with pytest.raises(ValueError):
            defm.q_factorial(5)
        with pytest.raises(ValueError):
            defm.q_factorial(-1)


class TestKronPair:
    def test_mixed_product_rule_matches_dense(self):
        rng = np.random.default_rng(5)
        x, y, z, w = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(4))
        p, r = KronPair(x, y), KronPair(z, w)
        assert np.allclose(p.dense(), np.kron(x, y), rtol=0, atol=0)
        assert np.allclose((p @ r).dense(), p.dense() @ r.dense(), rtol=0, atol=1e-13)
        assert np.allclose(p.power(3).dense(), np.linalg.matrix_power(p.dense(), 3),
                           rtol=0, atol=1e-12)
        assert np.array_equal(p.power(0).dense(), np.eye(9))

    def test_validation(self):
        with pytest.raises(ValueError):
            KronPair(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            KronPair(np.eye(2), np.eye(3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KronPair(np.eye(2), np.eye(2)) @ KronPair(np.eye(3), np.eye(3))


def product_entry(op: KronPair, dst: tuple[int, int], src: tuple[int, int]) -> complex:
    """<dst| A (x) B |src> read off the factors; dst and src are (n_a, n_b)."""
    return op.a[dst[0], src[0]] * op.b[dst[1], src[1]]


class TestRepresentation:
    def test_mode_actions_on_product_states(self):
        rep = build_rep(4)
        one = np.eye(4)
        src = (1, 2)

        # a+ |1,2> = |2,2>: the a factor moves n_a, the identity keeps n_b
        assert rep.a_plus[2, 1] == 1.0
        assert np.count_nonzero(rep.a_plus[:, 1]) == 1
        assert product_entry(KronPair(rep.a_plus, one), (2, 2), src) == 1.0

        # a- |1,2> = [1]_q |0,2>
        assert abs(product_entry(KronPair(rep.a_minus, one), (0, 2), src) - 1.0) < 1e-15

        # b+ |1,2> = [3]_q |1,3>
        q3 = rep.deformation.q_number(3)
        assert abs(product_entry(KronPair(one, rep.b_plus), (1, 3), src) - q3) < 1e-15
        assert np.count_nonzero(rep.b_plus[:, 2]) == 1

        # b- |1,2> = |1,1>
        assert product_entry(KronPair(one, rep.b_minus), (1, 1), src) == 1.0

    def test_truncation_kills_top_and_bottom(self):
        rep = build_rep(3)
        assert not rep.a_plus[:, 2].any()
        assert not rep.b_plus[:, 2].any()
        assert not rep.a_minus[:, 0].any()
        assert not rep.b_minus[:, 0].any()

    def test_number_operators(self):
        rep = build_rep(3)
        assert np.array_equal(rep.number, np.diag([0.0, 1.0, 2.0]))
        # N_a |2,1> = 2 |2,1> and N_b |2,1> = 1 |2,1>
        one = np.eye(3)
        lab = (2, 1)
        assert product_entry(KronPair(rep.number, one), lab, lab) == 2.0
        assert product_entry(KronPair(one, rep.number), lab, lab) == 1.0

    def test_mode_matrices_are_read_only(self):
        rep = build_rep(3)
        for mat in (rep.a_plus, rep.a_minus, rep.b_plus, rep.b_minus, rep.number):
            assert mat.shape == (3, 3)
            with pytest.raises(ValueError):
                mat[0, 0] = 5.0

    def test_dim(self):
        # single-mode matrices are k x k; the product space has dimension k^2
        rep = build_rep(5)
        assert rep.k == 5
        assert build_ur(rep, Fraction(0)).dense().shape == (25, 25)

    @pytest.mark.parametrize("k", K_RANGE)
    def test_defining_relations(self, k):
        res = relation_residuals(build_rep(k))
        for name, value in res.items():
            if name.endswith("nilpotent"):
                # structural: the k-th power of a strictly triangular
                # matrix is identically zero, not merely small
                assert value == 0.0, name
            else:
                assert value < 1e-12, name


class TestPolarFactors:
    def test_h_is_diagonal_nonneg(self):
        # H is held as its diagonal: grid[n_a, n_b] is the eigenvalue on |n_a, n_b>
        h = build_h(build_rep(4))
        assert h.shape == (4, 4)
        assert (h >= 0).all()
        assert math.isclose(h[2, 1], math.sqrt(2 * (1 + 1)))
        for n_a in range(4):
            for n_b in range(4):
                assert h[n_a, n_b] == math.sqrt(n_a * (n_b + 1))

    def test_h_annihilates_empty_a_mode(self):
        h = build_h(build_rep(4))
        assert not h[0].any()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", R_GRID)
    def test_ur_interior_shift_coefficient_is_one(self, k, r):
        u = build_ur(build_rep(k), Fraction(r) * (k - 1) / 2)
        for n_a in range(k - 1):
            for n_b in range(1, k):
                src = (n_a, n_b)
                dst = (n_a + 1, n_b - 1)
                assert product_entry(u, dst, src) == 1.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", R_GRID)
    def test_ur_wraps_diagonal_top_state(self, k, r):
        # |k-1, 0> -> e^{i phi_r} |0, k-1> with phi_r = 2 pi (k-1) r / 2
        u = build_ur(build_rep(k), Fraction(r) * (k - 1) / 2)
        entry = product_entry(u, (0, k - 1), (k - 1, 0))
        assert abs(entry - cmath.exp(2j * math.pi * (k - 1) * r / 2.0)) < 1e-13

    def test_ur_accepts_any_winding_angle(self):
        # the winding angle is a free parameter of the construction; no
        # relation to a rational multiple of 2 pi is assumed at this level
        k, turns = 3, 0.1964
        rep = build_rep(k)
        u = build_ur(rep, turns)
        entry = product_entry(u, (0, k - 1), (k - 1, 0))
        assert abs(entry - cmath.exp(2j * math.pi * turns)) < 1e-14
        assert cyclicity_residual(rep, turns) < 1e-12

    @pytest.mark.parametrize("k", K_RANGE)
    @pytest.mark.parametrize("r", R_GRID)
    def test_ur_unitary(self, k, r):
        # A (x) B is unitary when both factors are: (A (x) B)^dag (A (x) B) = A^dag A (x) B^dag B
        u = build_ur(build_rep(k), Fraction(r) * (k - 1) / 2)
        for factor in (u.a, u.b):
            assert np.max(np.abs(factor.conj().T @ factor - np.eye(k))) < 1e-12

    @pytest.mark.parametrize("k", K_RANGE)
    @pytest.mark.parametrize("r", R_GRID)
    def test_cyclicity(self, k, r):
        assert cyclicity_residual(build_rep(k), Fraction(r) * (k - 1) / 2) < 1e-10

    def test_polar_product_reproduces_interior_weights(self):
        # H U_r carries |n_a, n_b> to sqrt((n_a+1) n_b) |n_a+1, n_b-1>
        # away from the wrap, matching a weighted shift.
        k, r = 5, 0.37
        rep = build_rep(k)
        h = build_h(rep)
        u = build_ur(rep, Fraction(r) * (k - 1) / 2)
        for n_a in range(k - 1):
            for n_b in range(1, k):
                dst = (n_a + 1, n_b - 1)
                entry = h[dst] * product_entry(u, dst, (n_a, n_b))
                assert math.isclose(entry.real, math.sqrt((n_a + 1) * n_b), abs_tol=1e-13)
                assert abs(entry.imag) < 1e-13


class TestSineAlgebra:
    def test_v_is_exact_diagonal_root_of_unity(self):
        rep = build_rep(5)
        v = build_v(rep)
        assert v.shape == (5, 5)
        for n_a in range(5):
            for n_b in range(5):
                assert v[n_a, n_b] == rep.deformation.q_power(n_a - n_b)
        assert np.max(np.abs(v ** 5 - 1.0)) < 1e-13

    def test_zero_label_is_identity(self):
        rep = build_rep(4)
        t00 = _generators(rep, 0.0)((0, 0))
        assert np.max(np.abs(t00 - np.eye(rep.k ** 2))) < 1e-14

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_magnetic_translation_product_rule(self, k):
        # T_m T_n = q^{-(m x n)} T_{m+n}
        rep = build_rep(k)
        defm = rep.deformation
        pairs = [((1, 0), (0, 1)), ((1, 1), (2, 0)), ((0, 2), (1, 1)), ((2, 1), (1, 2))]
        generator = _generators(rep, 0.0)
        for m, n in pairs:
            t_m, t_n = generator(m), generator(n)
            t_sum = generator((m[0] + n[0], m[1] + n[1]))
            cross = m[0] * n[1] - m[1] * n[0]
            residual = np.max(np.abs(t_m @ t_n - defm.q_power(-cross) * t_sum))
            assert residual < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_sine_bracket_exhaustive(self, k):
        # every pair of labels in [0, k-1]^2
        assert w_algebra_residual(build_rep(k), 0.0) < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("r", [0.37, 1.0])
    def test_sine_bracket_holds_at_nonzero_winding(self, k, r):
        # the bracket closes for any fixed winding angle, not just zero
        assert w_algebra_residual(build_rep(k), Fraction(r) * (k - 1) / 2) < 1e-10

    # the ordered all-pairs loop is the oracle for the sweep over unordered pairs
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_all_pairs_sweep_is_the_worst_single_bracket(self, k, r):
        rep = build_rep(k)
        turns = Fraction(r) * (k - 1) / 2
        defm = rep.deformation
        generator = _generators(rep, turns)
        labels = [(m1, m2) for m1 in range(k) for m2 in range(k)]
        worst = 0.0
        for m in labels:
            for n in labels:
                cross = m[0] * n[1] - m[1] * n[0]
                # -2i sin((2 pi/k) m x n), read off the deformation as q^-x - q^x
                coeff = defm.q_power(-cross) - defm.q_power(cross)
                t_m, t_n = generator(m), generator(n)
                bracket = t_m @ t_n - t_n @ t_m - coeff * generator((m[0] + n[0], m[1] + n[1]))
                worst = max(worst, float(np.max(np.abs(bracket))))
        assert w_algebra_residual(rep, turns) == worst
        assert worst < 1e-10

    def test_a_nan_bracket_after_the_first_pair_wins(self, monkeypatch):
        bracket = quon._bracket_residual
        calls = []

        def probe(defm, generator, m, n):
            calls.append((m, n))
            return math.nan if (m, n) == ((0, 1), (1, 0)) else bracket(defm, generator, m, n)

        monkeypatch.setattr(quon, "_bracket_residual", probe)
        assert math.isnan(w_algebra_residual(build_rep(2), 0.0))
        assert calls.index(((0, 1), (1, 0))) > 0


class TestFactorizationOracle:
    """Dense np.kron operators on the k^2-dim product space, checked against the factor path."""

    @staticmethod
    def dense_relation_residuals(rep) -> dict[str, float]:
        one = np.eye(rep.k)
        a_plus, a_minus, number_a = (np.kron(x, one) for x in (rep.a_plus, rep.a_minus, rep.number))
        b_plus, b_minus, number_b = (np.kron(one, x) for x in (rep.b_plus, rep.b_minus, rep.number))
        eye = np.eye(rep.k ** 2)
        q = rep.deformation.q

        def max_abs(x):
            return float(np.max(np.abs(x)))

        def comm(x, y):
            return x @ y - y @ x

        def nil(x):
            return max_abs(np.linalg.matrix_power(x, rep.k))

        return {
            "a_deformed": max_abs(a_minus @ a_plus - q * (a_plus @ a_minus) - eye),
            "b_deformed": max_abs(b_minus @ b_plus - q * (b_plus @ b_minus) - eye),
            "grading_a_plus": max_abs(comm(number_a, a_plus) - a_plus),
            "grading_a_minus": max_abs(comm(number_a, a_minus) + a_minus),
            "grading_b_plus": max_abs(comm(number_b, b_plus) - b_plus),
            "grading_b_minus": max_abs(comm(number_b, b_minus) + b_minus),
            "cross_commute": max(max_abs(comm(a, b))
                                 for a in (a_plus, a_minus, number_a)
                                 for b in (b_plus, b_minus, number_b)),
            "a_plus_nilpotent": nil(a_plus),
            "a_minus_nilpotent": nil(a_minus),
            "b_plus_nilpotent": nil(b_plus),
            "b_minus_nilpotent": nil(b_minus),
        }

    @pytest.mark.parametrize("k", range(2, 7))
    def test_relations_match_dense(self, k):
        rep = build_rep(k)
        factor = relation_residuals(rep)
        dense = self.dense_relation_residuals(rep)
        assert set(factor) == set(dense)
        for key, value in dense.items():
            assert abs(factor[key] - value) <= 1e-15, key
            if key.endswith("nilpotent"):
                assert factor[key] == value == 0.0, key

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("r", R_GRID)
    def test_cyclicity_matches_dense(self, k, r):
        rep = build_rep(k)
        turns = Fraction(r) * (k - 1) / 2
        u = build_ur(rep, turns).dense()
        target = unit_phase(turns.numerator, turns.denominator) * np.eye(rep.k ** 2)
        dense = float(np.max(np.abs(np.linalg.matrix_power(u, k) - target)))
        assert abs(cyclicity_residual(rep, turns) - dense) <= 1e-15

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("r", R_GRID)
    def test_diagonal_block_matches_dense(self, k, r):
        rep = build_rep(k)
        inside = diagonal_multiplet_indices(k)
        outside = [i for i in range(k * k) if i not in inside]
        h = build_h(rep)
        u = build_ur(rep, Fraction(r) * (k - 1) / 2)
        for op, dense in ((h, np.diag(h.ravel())), (u, u.dense())):
            block, leakage = restrict_fock_operator(op, k)
            assert np.array_equal(block, dense[np.ix_(inside, inside)])
            dense_leak = max(np.max(np.abs(dense[np.ix_(outside, inside)])),
                             np.max(np.abs(dense[np.ix_(inside, outside)])))
            assert leakage == dense_leak == 0.0


class TestMaxK:
    @pytest.mark.parametrize("k", [32, 48, MAX_K])
    @pytest.mark.parametrize("r", [0.0, 0.37, 2.5])
    def test_relations_and_cyclicity_at_large_k(self, k, r):
        rep = build_rep(k)
        res = relation_residuals(rep)
        for name, value in res.items():
            if name.endswith("nilpotent"):
                assert value == 0.0, name
            else:
                assert value <= 1e-12, name
        assert cyclicity_residual(rep, Fraction(r) * (k - 1) / 2) <= 1e-10
