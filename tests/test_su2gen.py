"""Tests for the polar-form su(2) generators on a single multiplet."""

import math

import numpy as np
import pytest

from wigner_nonstd.halfint import HalfInt
from wigner_nonstd.quon import KronPair, build_h, build_rep, build_ur
from wigner_nonstd.su2gen import (
    ResidualReport,
    SpinSpace,
    build_spin_ops,
    casimir_identities,
    diagonal_multiplet_indices,
    quon_restriction_report,
    restrict_fock_operator,
    spin_space_for_k,
    verify_su2,
)

H = HalfInt
R_GRID = [0.0, 0.37, 1.0, 2.5]
J_GRID = [H(t) for t in (0, 1, 2, 3, 4, 7, 12, 25)]


class TestSpinSpace:
    def test_basic_properties(self):
        sp = SpinSpace(H(3), 0.37)
        assert sp.dim == 4
        assert [m.twice for m in sp.m_list] == [-3, -1, 1, 3]

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            SpinSpace(H(-1), 0.0)

    def test_r_coerced_to_float(self):
        assert SpinSpace(H(2), 1).r == 1.0

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be a finite number"):
            SpinSpace(H(2), r)

    @pytest.mark.parametrize("r", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_r_too_large_for_a_float_rejected(self, r):
        # float() of such an int raises OverflowError; it is refused like inf
        with pytest.raises(ValueError, match="r must be a finite number"):
            SpinSpace(H(2), r)

    @pytest.mark.parametrize("j", [3, 1.5, "3/2"])
    def test_j_must_be_a_halfint(self, j):
        with pytest.raises(TypeError, match="^j must be a HalfInt, got "):
            SpinSpace(j, 0.0)

    def test_wrap_factor(self):
        sp = SpinSpace(H(3), 0.37)
        expected = np.exp(2j * np.pi * 1.5 * 0.37)
        assert abs(sp.wrap_factor - expected) < 1e-15

    def test_winding_angle(self):
        # phi_r / (2 pi) = j r turns, held as an exact ratio of ints
        numerator, denominator = (0.37).as_integer_ratio()
        assert SpinSpace(H(3), 0.37).jr_turns == (3 * numerator, 2 * denominator)

    def test_integer_winding_has_trivial_or_sign_wrap(self):
        # phi_r = 2 pi j r: integer r on integer j is a full turn
        assert abs(SpinSpace(H(4), 1.0).wrap_factor - 1.0) < 1e-15
        # half-integer j with odd r gives the sign flip
        assert abs(SpinSpace(H(1), 1.0).wrap_factor + 1.0) < 1e-15


class TestResidualReport:
    def test_worst_is_the_largest_residual(self):
        rep = ResidualReport({"a": 1e-14, "b": 3e-12})
        assert rep.worst() == 3e-12
        assert rep.worst() <= 1e-11
        assert not rep.worst() <= 1e-12

    def test_empty_report(self):
        assert ResidualReport({}).worst() == 0.0

    def test_a_nan_is_the_worst_in_either_key_order(self):
        for residuals in ({"a": 0.0, "b": math.nan}, {"a": math.nan, "b": 0.0}):
            rep = ResidualReport(residuals)
            assert math.isnan(rep.worst())
            assert not rep.worst() <= 1.0

    def test_str_lists_entries(self):
        text = str(ResidualReport({"alpha": 1e-13}))
        assert "alpha" in text


class TestGeneratorMatrices:
    def test_j3_is_m_diagonal(self):
        ops = build_spin_ops(SpinSpace(H(4), 0.0))
        assert np.allclose(np.diag(ops.j3), [-2, -1, 0, 1, 2])

    def test_h_diagonal_values(self):
        ops = build_spin_ops(SpinSpace(H(4), 0.0))
        # H|j,m> = sqrt((j+m)(j-m+1)) |j,m> for j = 2
        expected = [math.sqrt((2 + m) * (2 - m + 1)) for m in (-2, -1, 0, 1, 2)]
        assert np.allclose(np.diag(ops.h), expected)

    def test_u_is_cyclic_shift_with_wrap(self):
        sp = SpinSpace(H(3), 0.37)
        ops = build_spin_ops(sp)
        u = ops.u_r
        for i in range(3):
            assert u[i + 1, i] == 1.0
        assert abs(u[0, 3] - sp.wrap_factor) < 1e-15
        assert np.count_nonzero(u) == 4

    def test_jplus_standard_entries(self):
        ops = build_spin_ops(SpinSpace(H(4), 0.37))
        jp = ops.j_plus
        for i, m in enumerate((-2, -1, 0, 1)):
            assert math.isclose(jp[i + 1, i].real,
                                math.sqrt((2 - m) * (2 + m + 1)), abs_tol=1e-14)
        # the wrap row is annihilated by H, so J+ has no corner entry
        assert jp[0, 4] == 0.0

    @pytest.mark.parametrize("r", R_GRID)
    def test_generators_independent_of_r(self, r):
        base = build_spin_ops(SpinSpace(H(5), 0.0))
        other = build_spin_ops(SpinSpace(H(5), r))
        # H kills the wrapped vector, so the winding phase cancels exactly
        assert np.array_equal(base.j_plus, other.j_plus)
        assert np.array_equal(base.j_minus, other.j_minus)
        assert np.array_equal(base.j3, other.j3)

    def test_u_does_depend_on_r(self):
        a = build_spin_ops(SpinSpace(H(5), 0.0)).u_r
        b = build_spin_ops(SpinSpace(H(5), 0.37)).u_r
        assert not np.array_equal(a, b)

    def test_j_zero_conventions(self):
        ops = build_spin_ops(SpinSpace(H(0), 0.37))
        assert ops.h.shape == (1, 1)
        assert ops.u_r[0, 0] == 1.0  # wrap phase e^{2 pi i * 0 * r} = 1
        assert ops.j_plus[0, 0] == 0.0
        assert ops.j_squared[0, 0] == 0.0

    def test_j_squared_accessor(self):
        ops = build_spin_ops(SpinSpace(H(3), 0.37))
        assert np.allclose(ops.j_squared, 1.5 * 2.5 * np.eye(4), atol=1e-13)


class TestAlgebraResiduals:
    @pytest.mark.parametrize("j", J_GRID)
    @pytest.mark.parametrize("r", R_GRID)
    def test_su2_closure(self, j, r):
        report = verify_su2(build_spin_ops(SpinSpace(j, r)))
        assert report.worst() <= 1e-11, str(report)

    @pytest.mark.parametrize("j", J_GRID)
    @pytest.mark.parametrize("r", R_GRID)
    def test_casimir(self, j, r):
        report = casimir_identities(build_spin_ops(SpinSpace(j, r)))
        assert report.worst() <= 1e-11, str(report)

    def test_example_multiplet(self):
        # j = 3/2 with a generic winding: everything closes tightly
        report = verify_su2(build_spin_ops(SpinSpace(H(3), 1.0)))
        assert report.worst() <= 1e-13, str(report)

    @pytest.mark.parametrize("j", [H(2), H(5), H(8)])
    @pytest.mark.parametrize("r", [0.0, 0.37, 2.5])
    def test_casimir_commutes_with_shift(self, j, r):
        report = casimir_identities(build_spin_ops(SpinSpace(j, r)))
        assert report.residuals["casimir_commutes_u"] < 1e-12

    def test_u_spectrum_is_scaled_roots_of_unity(self):
        # eigenvalues of U_r are the k-th roots of e^{i phi_r}
        sp = SpinSpace(H(3), 0.37)
        eig = np.linalg.eigvals(build_spin_ops(sp).u_r)
        k = sp.dim
        expected = [sp.wrap_factor ** (1.0 / k) * np.exp(2j * np.pi * t / k)
                    for t in range(k)]
        got = sorted(eig, key=lambda z: np.angle(z))
        exp_sorted = sorted(expected, key=lambda z: np.angle(z))
        assert max(abs(a - b) for a, b in zip(got, exp_sorted)) < 1e-12


class TestQuonRestriction:
    def test_multiplet_indices(self):
        assert diagonal_multiplet_indices(3) == [2, 4, 6]
        assert diagonal_multiplet_indices(2) == [1, 2]

    def test_multiplet_indices_are_m_ascending(self):
        # index n_a k + (k-1-n_a) holds the state with m = n_a - j
        k = 4
        for pos, idx in enumerate(diagonal_multiplet_indices(k)):
            n_a, n_b = divmod(idx, k)
            assert n_a + n_b == k - 1  # 2j
            assert n_a - n_b == -(k - 1) + 2 * pos  # 2m

    @pytest.mark.parametrize("k", range(2, 9))
    def test_multiplet_indices_are_a_bijection_onto_the_multiplet(self, k):
        # exactly the product states with n_a + n_b = k - 1, one per 2m in -(k-1)..k-1
        indices = diagonal_multiplet_indices(k)
        multiplet = [n_a * k + n_b for n_a in range(k) for n_b in range(k) if n_a + n_b == k - 1]
        assert sorted(indices) == sorted(multiplet)
        assert len(set(indices)) == k
        twice_m = [n_a - n_b for n_a, n_b in (divmod(idx, k) for idx in indices)]
        assert twice_m == list(range(-(k - 1), k, 2))

    def test_restrict_rejects_wrong_dimension(self):
        rep = build_rep(3)
        with pytest.raises(ValueError, match="not 4 x 4"):
            restrict_fock_operator(build_ur(rep, 0.0), 4)
        with pytest.raises(ValueError, match="not 4 x 4"):
            restrict_fock_operator(build_h(rep), 4)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_restrict_reads_any_kron_pair_like_the_dense_matrix(self, k):
        rng = np.random.default_rng(k)
        a, b = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(2))
        dense = np.kron(a, b)
        inside = diagonal_multiplet_indices(k)
        outside = [i for i in range(k * k) if i not in inside]
        block, leakage = restrict_fock_operator(KronPair(a, b), k)
        assert np.array_equal(block, dense[np.ix_(inside, inside)])
        assert leakage == max(np.max(np.abs(dense[np.ix_(outside, inside)])),
                              np.max(np.abs(dense[np.ix_(inside, outside)])))

    def test_restrict_sees_a_mode_leak(self):
        # a+ (x) 1 raises n_a + n_b by one, so it maps the multiplet entirely outside
        rep = build_rep(4)
        block, leakage = restrict_fock_operator(KronPair(rep.a_plus, np.eye(4)), 4)
        assert not block.any()
        assert leakage == 1.0

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("r", [0.0, 0.37, 2.5, 1e6, 1e12, 123456789 / 7])
    def test_oscillator_construction_matches_closed_form(self, k, r):
        report = quon_restriction_report(build_rep(k), r)
        assert report.worst() <= 1e-12, str(report)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_polar_factors_never_leak(self, k):
        report = quon_restriction_report(build_rep(k), 0.37)
        assert report.residuals["h_leakage"] == 0.0
        assert report.residuals["u_leakage"] == 0.0

    def test_spin_space_for_k(self):
        sp = spin_space_for_k(4, 0.37)
        assert sp.j == H(3)
        assert sp.r == 0.37
        assert sp.dim == 4
