"""Tests for the {J^2, U_r} eigenscheme: basis, couplings, tensors, recoupling.

The coupling coefficients have two in-library routes (explicit scalar sums
and basis-matrix contractions); the tests compare those against each other
and against an in-test oracle that builds the change-of-basis phases from
scratch with cmath, sharing nothing but the m-scheme coefficients (which
have their own diagonalization oracle in test_standard_wra).
"""

import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigner_nonstd.halfint import HalfInt, coupled_j_values
from wigner_nonstd.nonstandard import (
    AlphaLabel,
    TensorOperator,
    alpha_labels,
    basis_matrix,
    cg_nonstandard,
    cg_nonstandard_tensor,
    f_small,
    f_small_tensor,
    fbar,
    fbar_tensor,
    overlap,
    recoupling_invariance_check,
    spherical_tensor_from_j,
    tensor_to_alpha,
    verify_cg_orthonormality,
    verify_eigenbasis,
    verify_fbar_symmetry,
    wigner_eckart_check,
)
from wigner_nonstd import nonstandard, verify
from wigner_nonstd.quon import unit_phase
from wigner_nonstd.standard_wra import cg_float, threejm
from wigner_nonstd.su2gen import SpinSpace, build_spin_ops
from wigner_nonstd.verify import DEFAULT_TOLERANCES, VerifyConfig

from test_cli import peak_rss_mb

H = HalfInt
R_GRID = [0.0, 0.37, 1.0, 2.5]


# ---------------------------------------------------------------------------
# Labels and eigenbasis


class TestAlphaLabel:
    def test_alpha_values_are_shifted_window(self):
        # alpha runs over -j r, -j r + 1, ..., -j r + 2j
        sp = SpinSpace(H(3), 0.37)
        alphas = [lab.alpha for lab in alpha_labels(sp)]
        start = -1.5 * 0.37
        assert np.allclose(alphas, [start, start + 1, start + 2, start + 3])

    def test_s_range_enforced(self):
        AlphaLabel(H(2), 0.0, 2)
        with pytest.raises(ValueError):
            AlphaLabel(H(2), 0.0, 3)
        with pytest.raises(ValueError):
            AlphaLabel(H(2), 0.0, -1)

    @pytest.mark.parametrize("s", [1.5, 1.0, True, False, None])
    def test_s_must_be_a_plain_int(self, s):
        # s = 1.5 gave the eigenvalue -1, a phase no label of j = 1 has
        with pytest.raises(TypeError, match="^s must be an int, got "):
            AlphaLabel(H(2), 0.0, s)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
                             ids=["nan", "inf", "-inf", "1e400", "-1e400"])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be a finite number"):
            AlphaLabel(H(2), r, 0)

    @pytest.mark.parametrize("j", [2, 1.0, "1"])
    def test_j_must_be_a_halfint(self, j):
        with pytest.raises(TypeError, match="^j must be a HalfInt, got "):
            AlphaLabel(j, 0.0, 0)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="j must be a non-negative half-integer"):
            AlphaLabel(H(-2), 0.0, 0)

    def test_eigenvalue_formula(self):
        lab = AlphaLabel(H(3), 0.37, 2)
        expected = cmath.exp(-2j * cmath.pi * lab.alpha / 4)
        assert abs(lab.eigenvalue - expected) < 1e-15

    def test_spin_one_unit_winding_eigenvalues(self):
        # j = 1, r = 1: the three eigenvalues are the cube roots of unity
        labs = alpha_labels(SpinSpace(H(2), 1.0))
        w = cmath.exp(2j * cmath.pi / 3)
        expected = [w, 1.0, w.conjugate()]
        for lab, ref in zip(labs, expected):
            assert abs(lab.eigenvalue - ref) < 1e-14

    def test_str_mentions_labels(self):
        text = str(AlphaLabel(H(1), 0.5, 1))
        assert "alpha=" in text and "r=" in text


class TestOverlap:
    def test_frozen_value(self):
        # <1/2 1/2 | 1/2 alpha=1; r=0> = i / sqrt 2
        sp = SpinSpace(H(1), 0.0)
        value = overlap(sp, H(1), AlphaLabel(H(1), 0.0, 1))
        assert abs(value - 1j / math.sqrt(2.0)) < 1e-15

    def test_modulus_is_uniform(self):
        sp = SpinSpace(H(4), 0.37)
        for lab in alpha_labels(sp):
            for m in sp.m_list:
                assert math.isclose(abs(overlap(sp, m, lab)), 1.0 / math.sqrt(5.0))

    def test_label_space_mismatch_rejected(self):
        sp = SpinSpace(H(1), 0.0)
        with pytest.raises(ValueError):
            overlap(sp, H(1), AlphaLabel(H(1), 0.37, 0))
        with pytest.raises(ValueError):
            overlap(sp, H(1), AlphaLabel(H(3), 0.0, 0))


class TestBasisMatrix:
    def test_spin_half_frozen_matrix(self):
        m = basis_matrix(SpinSpace(H(1), 0.0))
        expected = np.array([[1.0, -1j], [1.0, 1j]]) / math.sqrt(2.0)
        assert np.max(np.abs(m - expected)) < 1e-15

    def test_columns_match_overlap(self):
        # 2j = 0..128 x nine r (1161 cases): every entry while 2j <= 16, above
        # that 64 seeded entries and the four corners of each matrix
        rng = np.random.default_rng(1161)
        for tj in range(129):
            for r in (0.0, 0.37, 1.0, 2.5, 1 / 4, -1.3, 1e6, -5 / 3, 123456789 / 7):
                sp = SpinSpace(H(tj), r)
                m, labels, dim = basis_matrix(sp), alpha_labels(sp), sp.dim
                if tj <= 16:
                    entries = [(i, s) for i in range(dim) for s in range(dim)]
                else:
                    entries = [tuple(x) for x in rng.integers(0, dim, size=(64, 2))]
                    entries += [(0, 0), (0, dim - 1), (dim - 1, 0), (dim - 1, dim - 1)]
                for i, s in entries:
                    assert m[i, s] == overlap(sp, sp.m_list[i], labels[s]), (tj, r, i, s)

    @pytest.mark.parametrize("tj", [0, 1, 4, 17, 64])
    @pytest.mark.parametrize("r", [0.37, -5 / 3, 1e6])
    def test_matches_per_entry_loop_bit_for_bit(self, tj, r):
        # reference: the scalar overlap, one call per entry
        sp = SpinSpace(H(tj), r)
        ref = np.array([[overlap(sp, mm, lab) for lab in alpha_labels(sp)] for mm in sp.m_list])
        assert basis_matrix(sp).tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 64), st.integers(-10**12, 10**12), st.integers(1, 10**6))
    def test_overlap_equals_basis_matrix_at_rational_r(self, tj, p, q):
        sp = SpinSpace(H(tj), p / q)
        ref = np.array([[overlap(sp, mm, lab) for lab in alpha_labels(sp)] for mm in sp.m_list])
        assert basis_matrix(sp).tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 64), st.integers(-10**12, 10**12), st.integers(1, 10**6))
    def test_eigenbasis_within_default_tolerances_at_large_r(self, tj, p, q):
        # the precision of every phase no longer falls with |r|
        sp = SpinSpace(H(tj), p / q)
        res = verify_eigenbasis(sp).residuals
        assert max(res["u_eigen"], res["casimir_eigen"], res["diagonalized_u"]) \
            <= DEFAULT_TOLERANCES["alpha.eigen"]
        assert res["overlap_unitary"] <= DEFAULT_TOLERANCES["alpha.unitarity"]
        m = basis_matrix(sp)
        diagonal = np.diag(m.conj().T @ build_spin_ops(sp).u_r @ m)
        labels = np.array([lab.eigenvalue for lab in alpha_labels(sp)])
        assert np.max(np.abs(labels - diagonal)) <= DEFAULT_TOLERANCES["alpha.eigen"]

    @pytest.mark.parametrize("tj", [0, 1, 2, 3, 7, 12, 25])
    @pytest.mark.parametrize("r", R_GRID)
    def test_unitary(self, tj, r):
        m = basis_matrix(SpinSpace(H(tj), r))
        eye = np.eye(tj + 1)
        assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-12

    def test_cached_and_write_protected(self):
        a = basis_matrix(SpinSpace(H(2), 0.37))
        b = basis_matrix(SpinSpace(H(2), 0.37))
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


# 1,500 values of r in a fresh process: every coupled j of j1 = j2 = 4 (13,500 CG tensors and
# as many basis matrices) and two f-bar triads of j1 = j2 = 1 (3,000 tensors), each tensor asked
# for USES times in a row. The basis matrices reused at each r (2j = 8, 2, 0) must fill their
# cache to its bound and stop there; the tensors must too when reused, and must leave their
# caches empty when used once.
CACHE_SWEEP = """
import sys
from wigner_nonstd import HalfInt, SpinSpace, nonstandard
uses = int(sys.argv[1])
for n in range(1500):
    r = n / 1500
    four, one = SpinSpace(HalfInt(8), r), SpinSpace(HalfInt(2), r)
    for tj in range(0, 17, 2):
        for _ in range(uses):
            nonstandard.cg_nonstandard_tensor(four, four, SpinSpace(HalfInt(tj), r))
    for tj in (0, 2):
        for _ in range(uses):
            nonstandard.fbar_tensor(one, one, SpinSpace(HalfInt(tj), r))
tensor_size = nonstandard._CACHE_SIZE if uses > 1 else 0
for cached, size in ((nonstandard.basis_matrix, nonstandard._CACHE_SIZE),
                     (nonstandard.cg_nonstandard_tensor, tensor_size),
                     (nonstandard.fbar_tensor, tensor_size)):
    info = cached.cache_info()
    if not (info.currsize == size and info.maxsize == nonstandard._CACHE_SIZE):
        sys.exit(f"{cached.__name__} {info}, expected currsize {size}")
"""


def test_a_single_use_r_sweep_leaves_the_tensor_caches_empty():
    # it reads 37 MB; with a FIFO per tensor cache and every basis matrix in its LRU it read
    # 42 MB, and with every first use cached, as one LRU does, 61 MB
    assert peak_rss_mb("1", program=("-c", CACHE_SWEEP)) < 42


def test_alpha_basis_caches_stay_bounded_over_an_r_sweep():
    # it reads 65 MB, the full LRUs and the 4 MiB of first uses that wait beside them; with
    # unbounded caches this sweep peaked at 221 MB
    assert peak_rss_mb("2", program=("-c", CACHE_SWEEP)) < 100


@pytest.fixture
def budget(monkeypatch):
    """A first-use FIFO of 2,000 bytes that remembers 4 dropped keys, and LRUs of 4 entries
    for the caches made over it. A 1 x 1 -> 2 tensor takes 720 bytes, a 2 x 2 -> 4 one 3,600."""
    monkeypatch.setattr(nonstandard, "_CACHE_SIZE", 4)
    return nonstandard._FirstUses(max_bytes=2000, max_dropped=4)


CG_BUILD = cg_nonstandard_tensor.__wrapped__
FBAR_BUILD = fbar_tensor.__wrapped__
BASIS_BUILD = basis_matrix.__wrapped__


@pytest.fixture
def reuse_cache(budget):
    """A fresh cache over cg_nonstandard_tensor's builder, whose first uses wait in budget."""
    return nonstandard._cache_on_reuse(CG_BUILD, budget)


def spin_one_key(r):
    one = SpinSpace(H(2), r)
    return one, one, SpinSpace(H(4), r)


class TestCacheOnReuse:
    def test_a_first_use_waits_outside_the_lru(self, reuse_cache, budget):
        key = spin_one_key(0.37)
        first = reuse_cache(*key)
        assert reuse_cache.cache_info().currsize == 0
        assert list(budget.waiting) == [(CG_BUILD, key)]
        assert budget.waiting[CG_BUILD, key] is first and budget.held == first.nbytes

    def test_an_immediate_repeat_returns_the_waiting_array_and_enters_the_lru(self, reuse_cache,
                                                                               budget):
        key = spin_one_key(0.37)
        first = reuse_cache(*key)
        again = reuse_cache(*key)
        assert again is first and not again.flags.writeable
        assert reuse_cache.cache_info().currsize == 1 and budget.waiting == {}
        assert budget.held == 0
        assert reuse_cache(*key) is first
        assert reuse_cache.cache_info().hits == 1

    def test_a_repeat_after_the_fifo_dropped_the_key_rebuilds_the_same_bits(self, reuse_cache,
                                                                            budget):
        key = spin_one_key(0.37)
        first = reuse_cache(*key)
        for r in (0.1, 0.2):  # three tensors of 720 bytes overflow the 2,000-byte FIFO
            reuse_cache(*spin_one_key(r))
        assert (CG_BUILD, key) not in budget.waiting and (CG_BUILD, key) in budget.dropped
        again = reuse_cache(*key)
        assert again is not first and again.tobytes() == first.tobytes()
        assert not again.flags.writeable
        assert reuse_cache.cache_info().currsize == 1 and (CG_BUILD, key) not in budget.dropped
        assert reuse_cache(*key) is again

    def test_the_fifo_and_its_dropped_keys_stay_within_their_caps(self, reuse_cache, budget):
        two = SpinSpace(H(4), 0.37)
        keys = [spin_one_key(n / 10) for n in range(10)] + [(two, two, SpinSpace(H(8), 0.37))]
        for key in keys:
            reuse_cache(*key)
            assert budget.held == sum(t.nbytes for t in budget.waiting.values()) <= 2000
            assert len(budget.dropped) <= 4
        # the 3,600-byte tensor never waits; the oldest dropped keys are forgotten
        assert list(budget.waiting) == [(CG_BUILD, key) for key in keys[8:10]]
        assert list(budget.dropped) == [(CG_BUILD, key) for key in keys[5:8] + keys[10:]]
        reuse_cache(*keys[0])
        assert reuse_cache.cache_info().currsize == 0

    def test_cache_clear_empties_the_fifo_the_dropped_keys_and_the_lru(self, reuse_cache, budget):
        for r in (0.0, 0.1, 0.2, 0.3, 0.0):
            reuse_cache(*spin_one_key(r))
        assert reuse_cache.cache_info().currsize == 1
        assert budget.waiting and budget.dropped
        reuse_cache.cache_clear()
        assert reuse_cache.cache_info().currsize == 0
        assert budget.waiting == {} and budget.dropped == {} and budget.held == 0
        key = spin_one_key(0.0)
        reuse_cache(*key)
        assert list(budget.waiting) == [(CG_BUILD, key)]
        assert reuse_cache.cache_info().currsize == 0


class TestSharedFirstUseBudget:
    def test_the_caches_share_one_fifo_but_not_their_results(self, budget):
        cg = nonstandard._cache_on_reuse(CG_BUILD, budget)
        fb = nonstandard._cache_on_reuse(FBAR_BUILD, budget)
        key = spin_one_key(0.37)  # the same spaces name a CG tensor and an f-bar tensor
        first_cg, first_fbar = cg(*key), fb(*key)
        assert list(budget.waiting) == [(CG_BUILD, key), (FBAR_BUILD, key)]
        assert budget.held == first_cg.nbytes + first_fbar.nbytes
        fb(*spin_one_key(0.1))  # 2,160 bytes: the oldest, the CG tensor, goes
        assert list(budget.dropped) == [(CG_BUILD, key)]
        assert fb(*key) is first_fbar and cg(*key).tobytes() == first_cg.tobytes()
        assert cg.cache_info().currsize == fb.cache_info().currsize == 1

    def test_cache_clear_leaves_the_other_caches_first_uses(self, budget):
        cg = nonstandard._cache_on_reuse(CG_BUILD, budget)
        basis = nonstandard._cache_on_reuse(BASIS_BUILD, budget)
        key = spin_one_key(0.37)
        cg(*key)
        waiting = basis(key[0])
        for r in (0.1, 0.2):
            cg(*spin_one_key(r))
        assert {build for build, _ in budget.dropped} == {CG_BUILD}
        cg.cache_clear()
        assert list(budget.waiting) == [(BASIS_BUILD, key[:1])] and budget.dropped == {}
        assert budget.held == waiting.nbytes and basis(key[0]) is waiting

    def test_a_basis_matrix_asked_for_once_never_enters_the_basis_lru(self, budget):
        basis = nonstandard._cache_on_reuse(BASIS_BUILD, budget)
        for n in range(6):  # 1,296 bytes each: one waits at a time
            basis(SpinSpace(H(8), n / 6))
            assert basis.cache_info().currsize == 0
            assert budget.held == 1296 and len(budget.waiting) == 1
        assert len(budget.dropped) == 4
        basis_matrix.cache_clear()
        basis_matrix(SpinSpace(H(5), 0.123))
        assert basis_matrix.cache_info().currsize == 0

    def test_a_basis_matrix_asked_for_twice_enters_the_basis_lru_with_the_same_bits(self, budget):
        basis = nonstandard._cache_on_reuse(BASIS_BUILD, budget)
        space = SpinSpace(H(8), 0.37)
        first = basis(space)
        basis(SpinSpace(H(8), 0.1))  # drops the first
        again = basis(space)
        assert again is not first and again.tobytes() == first.tobytes()
        assert not again.flags.writeable and basis.cache_info().currsize == 1
        assert basis(space) is again
        assert again.tobytes() == BASIS_BUILD(space).tobytes() == basis_matrix(space).tobytes()

    def test_a_mixed_sweep_never_holds_more_than_the_budget(self, monkeypatch):
        # five values of r at 2j1 = 2j2 = 16 bring 6.7 MB of CG tensors used once, beside
        # f-bar tensors and basis matrices; every admission is checked as it returns or raises
        first_uses, seen = nonstandard._FIRST_USES, set()
        admit = first_uses.admit

        def checked(build, args):
            try:
                return admit(build, args)
            finally:
                held = sum(result.nbytes for result in first_uses.waiting.values())
                assert first_uses.held == held <= nonstandard._FIRST_USE_BYTES
                assert len(first_uses.dropped) <= nonstandard._CACHE_SIZE
                seen.update(build for build, _ in first_uses.waiting)

        monkeypatch.setattr(first_uses, "admit", checked)
        caches = (basis_matrix, cg_nonstandard_tensor, fbar_tensor)
        for cache in caches:
            cache.cache_clear()
        try:
            for n in range(5):
                r = 0.1 + n / 7
                sp, one = SpinSpace(H(16), r), SpinSpace(H(2), r)
                assert verify_cg_orthonormality(sp, sp).worst() < 1e-10
                verify_fbar_symmetry(one, sp, SpinSpace(H(16), r))
            assert seen == {BASIS_BUILD, CG_BUILD, FBAR_BUILD}
            assert first_uses.dropped
        finally:
            for cache in caches:
                cache.cache_clear()


class TestBasisTransforms:
    def test_shift_operator_diagonalizes(self):
        sp = SpinSpace(H(4), 0.37)
        ops = build_spin_ops(sp)
        m = basis_matrix(sp)
        diag = m.conj().T @ ops.u_r @ m
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-13
        for s, lab in enumerate(alpha_labels(sp)):
            assert abs(diag[s, s] - lab.eigenvalue) < 1e-13

    @pytest.mark.parametrize("tj", [0, 1, 2, 5, 12, 25])
    @pytest.mark.parametrize("r", R_GRID)
    def test_eigenbasis_report(self, tj, r):
        report = verify_eigenbasis(SpinSpace(H(tj), r))
        assert report.worst() <= 1e-10, str(report)


# ---------------------------------------------------------------------------
# Coupling coefficients


def oracle_cg(l1: AlphaLabel, l2: AlphaLabel, l: AlphaLabel) -> complex:
    """Independent route: raw-phase contraction of the m-scheme coefficients.

    Builds every basis phase directly with cmath; shares only cg_float
    with the library.
    """
    d1, d2, d = l1.dim, l2.dim, l.dim

    def bra_phase(alpha, m, dim):
        return cmath.exp(-2j * cmath.pi * alpha * m / dim) / math.sqrt(dim)

    def ket_phase(alpha, m, dim):
        return cmath.exp(2j * cmath.pi * alpha * m / dim) / math.sqrt(dim)

    total = 0.0 + 0.0j
    for tm1 in range(-l1.j.twice, l1.j.twice + 1, 2):
        for tm2 in range(-l2.j.twice, l2.j.twice + 1, 2):
            tm = tm1 + tm2
            if abs(tm) > l.j.twice:
                continue
            total += (bra_phase(l1.alpha, tm1 / 2, d1)
                      * bra_phase(l2.alpha, tm2 / 2, d2)
                      * ket_phase(l.alpha, tm / 2, d)
                      * cg_float(l1.j, l2.j, H(tm1), H(tm2), l.j, H(tm)))
    return total


def label_grid(tj1, tj2, r):
    """All (l1, l2, l) combinations for the given multiplets."""
    sp1, sp2 = SpinSpace(H(tj1), r), SpinSpace(H(tj2), r)
    for j in coupled_j_values(sp1.j, sp2.j):
        sp = SpinSpace(j, r)
        for l1 in alpha_labels(sp1):
            for l2 in alpha_labels(sp2):
                for l in alpha_labels(sp):
                    yield l1, l2, l


class TestCouplingCoefficients:
    def test_frozen_spin_half_pair(self):
        # 1/2 x 1/2 -> 0 at r = 0: alpha pair (0,0) decouples, (0,1)
        # couples with weight i/sqrt 2
        z = AlphaLabel(H(1), 0.0, 0)
        o = AlphaLabel(H(1), 0.0, 1)
        sing = AlphaLabel(H(0), 0.0, 0)
        assert abs(cg_nonstandard(z, z, sing)) < 1e-15
        assert abs(cg_nonstandard(z, o, sing) - 1j / math.sqrt(2.0)) < 1e-14

    @pytest.mark.parametrize("tj1,tj2", [(0, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_scalar_tensor_and_oracle_agree(self, tj1, tj2, r):
        worst_routes = 0.0
        worst_oracle = 0.0
        for l1, l2, l in label_grid(tj1, tj2, r):
            scalar = cg_nonstandard(l1, l2, l)
            tensor = cg_nonstandard_tensor(
                SpinSpace(l1.j, r), SpinSpace(l2.j, r), SpinSpace(l.j, r)
            )[l1.s, l2.s, l.s]
            worst_routes = max(worst_routes, abs(scalar - tensor))
            worst_oracle = max(worst_oracle, abs(scalar - oracle_cg(l1, l2, l)))
        assert worst_routes < 1e-12
        assert worst_oracle < 1e-12

    def test_triangle_violation_vanishes(self):
        l1 = AlphaLabel(H(1), 0.0, 0)
        l2 = AlphaLabel(H(1), 0.0, 0)
        bad = AlphaLabel(H(4), 0.0, 0)
        assert cg_nonstandard(l1, l2, bad) == 0.0

    def test_mixed_winding_rejected(self):
        a = AlphaLabel(H(1), 0.0, 0)
        b = AlphaLabel(H(1), 0.37, 0)
        c = AlphaLabel(H(2), 0.0, 0)
        with pytest.raises(ValueError):
            cg_nonstandard(a, b, c)
        with pytest.raises(ValueError):
            cg_nonstandard_tensor(SpinSpace(H(1), 0.0), SpinSpace(H(1), 0.37),
                                  SpinSpace(H(2), 0.0))

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("r", [0.0, 0.37, 2.5])
    def test_orthonormality(self, tj1, tj2, r):
        report = verify_cg_orthonormality(SpinSpace(H(tj1), r), SpinSpace(H(tj2), r))
        assert report.worst() <= 1e-10, str(report)

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_interchange_symmetry(self, tj1, tj2, r):
        # swapping the two coupled factors costs (-1)^(j1+j2-j)
        for l1, l2, l in label_grid(tj1, tj2, r):
            tsum = (l1.j.twice + l2.j.twice - l.j.twice) // 2
            sign = -1.0 if tsum % 2 else 1.0
            left = cg_nonstandard(l1, l2, l)
            right = sign * cg_nonstandard(l2, l1, l)
            assert abs(left - right) < 1e-13

    def test_magnitude_bounded_by_one(self):
        for l1, l2, l in label_grid(2, 3, 0.37):
            assert abs(cg_nonstandard(l1, l2, l)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Orthonormality from the upper row panels of each Hermitian Gram

EPS = 2.0 ** -52


def change_of_basis(sp1, sp2):
    """W[(s1 s2), (j s)] stacked from the cached tensors, j ascending."""
    d = sp1.dim * sp2.dim
    return np.concatenate([cg_nonstandard_tensor(sp1, sp2, SpinSpace(j, sp1.r)).reshape(d, -1)
                           for j in coupled_j_values(sp1.j, sp2.j)], axis=1)


def dense_residuals(w):
    """Each relation's max |G - 1| from the full n x n products, as perfbench/checks.py forms them."""
    eye = np.eye(w.shape[0])
    return {"rows_orthonormal": float(np.max(np.abs(w.conj().T @ w - eye))),
            "complete": float(np.max(np.abs(w @ w.conj().T - eye)))}


def serve_change_of_basis(monkeypatch, sp1, sp2, w):
    """Make the check read the column blocks of w as the coupling tensors of (sp1, sp2)."""
    tensor, blocks, lo = nonstandard.cg_nonstandard_tensor, {}, 0
    for j in coupled_j_values(sp1.j, sp2.j):
        blocks[j] = w[:, lo:lo + j.twice + 1].reshape(sp1.dim, sp2.dim, j.twice + 1)
        lo += j.twice + 1

    def served(space1, space2, space):
        return blocks[space.j] if (space1, space2) == (sp1, sp2) else tensor(space1, space2, space)

    monkeypatch.setattr(nonstandard, "cg_nonstandard_tensor", served)


def plant_nan(monkeypatch, block):
    """A NaN in the last row of W at every pair whose Grams split into several panels:
    the bottom-right entry of the largest-j block, or the middle column of the middle block."""
    tensor = nonstandard.cg_nonstandard_tensor

    def planted(sp1, sp2, sp):
        out = tensor(sp1, sp2, sp)
        js = coupled_j_values(sp1.j, sp2.j)
        target = js[-1] if block == "largest" else js[len(js) // 2]
        if sp1.dim * sp2.dim <= nonstandard._GRAM_PANEL_ROWS or sp.j != target:
            return out
        out = out.copy()
        out[-1, -1, -1 if block == "largest" else sp.j.twice // 2] = math.nan
        return out

    monkeypatch.setattr(nonstandard, "cg_nonstandard_tensor", planted)


@pytest.mark.parametrize("block", ["largest", "middle"])
def test_a_nan_in_one_panel_makes_both_residuals_nan(monkeypatch, block):
    plant_nan(monkeypatch, block)
    report = verify_cg_orthonormality(SpinSpace(H(16), 0.37), SpinSpace(H(16), 0.37))
    assert list(report.residuals) == ["rows_orthonormal", "complete"]
    assert all(math.isnan(value) for value in report.residuals.values())
    # the fixed grid stops at n = 16, one panel; some seeded random draws split into several
    check, sizes = verify.verify_cg_orthonormality, []

    def sized(sp1, sp2):
        sizes.append(sp1.dim * sp2.dim)
        return check(sp1, sp2)

    monkeypatch.setattr(verify, "verify_cg_orthonormality", sized)
    rows = verify.coupling_suite(VerifyConfig(j_max=H(0), r_values=(0.0,), k_values=(2,)))
    assert max(sizes) > nonstandard._GRAM_PANEL_ROWS
    failed = [c for c in rows if not c["pass"]]
    assert [c["check"] for c in failed] == ["coupling.orthonormality_random"]
    assert math.isnan(failed[0]["residual"])


ALL_PAIRS_TO_16 = list(itertools.product(range(17), repeat=2))


@pytest.mark.parametrize("r, pairs", [
    (0.0, ALL_PAIRS_TO_16), (0.37, ALL_PAIRS_TO_16), (-5 / 3, ALL_PAIRS_TO_16),
    (0.37, [(32, 32)]),  # n = 1089 in 23 panels
], ids=["0.0", "0.37", "-1.6666666666666667", "2j=32"])
def test_panel_residuals_match_the_full_products(r, pairs):
    for tj1, tj2 in pairs:
        sp1, sp2 = SpinSpace(H(tj1), r), SpinSpace(H(tj2), r)
        report = verify_cg_orthonormality(sp1, sp2).residuals
        dense = dense_residuals(change_of_basis(sp1, sp2))
        assert report.keys() == dense.keys()
        for name, value in dense.items():
            assert report[name] <= 1e-10, (tj1, tj2, name, report[name])
            assert abs(report[name] - value) <= 4 * EPS, (tj1, tj2, name, report[name], value)


def two_buffer_residuals(w):
    """Both residuals as the check formed them beside a conjugate copy of W: the same upper
    row panels, each a product of views of w and w.conj()."""
    w_conj = w.conj()

    def defect(left, right):
        n = left.shape[0]
        count = -(-n // nonstandard._GRAM_PANEL_ROWS)
        edges = [n * k // count for k in range(count + 1)]
        worst = []
        for lo, hi in zip(edges, edges[1:]):
            panel = left[lo:hi] @ right[:, lo:]
            panel[np.arange(hi - lo), np.arange(hi - lo)] -= 1.0
            worst.append(np.max(np.abs(panel)))
        return float(np.max(worst))

    return {"rows_orthonormal": defect(w_conj.T, w), "complete": defect(w, w_conj.T)}


# n <= 48 in one panel, n = 289 in seven, n = 1089 in 23
@pytest.mark.parametrize("tj1,tj2", [(0, 0), (2, 3), (3, 11), (6, 5), (16, 16), (32, 32)])
@pytest.mark.parametrize("r", [0.37, -5 / 3])
def test_residuals_equal_the_two_buffer_route_bit_for_bit(tj1, tj2, r):
    sp1, sp2 = SpinSpace(H(tj1), r), SpinSpace(H(tj2), r)
    report = verify_cg_orthonormality(sp1, sp2).residuals
    old = two_buffer_residuals(change_of_basis(sp1, sp2))
    assert {name: value.hex() for name, value in report.items()} == \
        {name: value.hex() for name, value in old.items()}


# n = 289 in seven panels, n = 81 in two, n = 102 in three
@pytest.mark.parametrize("tj1,tj2", [(16, 16), (8, 8), (16, 5)])
@pytest.mark.parametrize("relation", ["rows_orthonormal", "complete"])
@pytest.mark.parametrize("spot", ["below_diagonal", "corner"])
def test_a_defect_in_the_last_panel_is_reported(monkeypatch, tj1, tj2, relation, spot):
    sp1, sp2 = SpinSpace(H(tj1), 0.37), SpinSpace(H(tj2), 0.37)
    w = change_of_basis(sp1, sp2)
    n = w.shape[0]
    # (1 + E/2) on the relation's side makes its Gram 1 + E to first order, E Hermitian and
    # inside the last panel's square block: no other panel sees it
    e = np.zeros((n, n))
    if spot == "corner":
        e[n - 1, n - 1] = 1e-6
    else:
        e[n - 1, n - 2] = e[n - 2, n - 1] = 1e-6
    half = np.eye(n) + e / 2
    planted = w @ half if relation == "rows_orthonormal" else half @ w
    serve_change_of_basis(monkeypatch, sp1, sp2, planted)
    report = verify_cg_orthonormality(sp1, sp2).residuals
    assert report[relation] >= 1e-7, report


def test_a_warm_call_allocates_under_one_and_a_half_squares():
    sp = SpinSpace(H(16), 0.37)
    verify_cg_orthonormality(sp, sp)  # fills the tensor caches
    tracemalloc.start()
    try:
        verify_cg_orthonormality(sp, sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sp.dim * sp.dim
    # W is the one n x n complex array, beside one panel and its conjugate slice (1.41 squares);
    # with a conjugate copy of W the check took two, and the full products made four
    assert peak <= 1.5 * n * n * 16, peak / (n * n * 16)


# Unequal legs, one of them 2j = 0: a wrong axis in a reshape or transpose
# cannot hide behind a symmetric shape here.
UNEQUAL_TRIADS = [(0, 9, 9), (7, 16, 11), (16, 1, 15), (3, 0, 3), (12, 5, 9)]


@pytest.mark.parametrize("tj1,tj2,tj3", UNEQUAL_TRIADS)
@pytest.mark.parametrize("r", [0.37, -5 / 3])
def test_tensor_routes_match_direct_sums_on_unequal_legs(tj1, tj2, tj3, r):
    sp = [SpinSpace(H(t), r) for t in (tj1, tj2, tj3)]
    coupling = cg_nonstandard_tensor(*sp)
    symbol = fbar_tensor(*sp)
    assert coupling.shape == symbol.shape == (tj1 + 1, tj2 + 1, tj3 + 1)
    rng = np.random.default_rng(tj1 + 17 * tj2 + 289 * tj3)
    picks = [(0, 0, 0), (tj1, tj2, tj3), (tj1, 0, tj3)]
    picks += [tuple(int(rng.integers(0, t + 1)) for t in (tj1, tj2, tj3)) for _ in range(12)]
    for s1, s2, s3 in picks:
        labels = [AlphaLabel(space.j, r, s) for space, s in zip(sp, (s1, s2, s3))]
        assert abs(coupling[s1, s2, s3] - cg_nonstandard(*labels)) < 1e-12
        assert abs(symbol[s1, s2, s3] - fbar(*labels)) < 1e-12


def loop_cg_nonstandard(l1, l2, l):
    """cg_nonstandard as its own loop, before it shared one direct sum with fbar."""
    if l1.r != l2.r or l1.r != l.r:
        raise ValueError("all three labels must share the same winding parameter r")
    total = 0.0 + 0.0j
    for tm1 in range(-l1.j.twice, l1.j.twice + 1, 2):
        for tm2 in range(-l2.j.twice, l2.j.twice + 1, 2):
            tm = tm1 + tm2
            if abs(tm) > l.j.twice:
                continue
            c = cg_float(l1.j, l2.j, HalfInt(tm1), HalfInt(tm2), l.j, HalfInt(tm))
            if c == 0.0:
                continue
            turns = l.turns(tm) - l1.turns(tm1) - l2.turns(tm2)
            total += unit_phase(turns.numerator, turns.denominator) * c
    return total / math.sqrt(l1.dim * l2.dim * l.dim)


def loop_fbar(l1, l2, l3):
    """fbar as its own loop, with the 3-jm symbol at m3 = -m1 - m2 and all three phases conjugated."""
    if l1.r != l2.r or l1.r != l3.r:
        raise ValueError("all three labels must share the same winding parameter r")
    total = 0.0 + 0.0j
    for tm1 in range(-l1.j.twice, l1.j.twice + 1, 2):
        for tm2 in range(-l2.j.twice, l2.j.twice + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > l3.j.twice:
                continue
            value = float(threejm(l1.j, l2.j, l3.j,
                                  HalfInt(tm1), HalfInt(tm2), HalfInt(tm3)))
            if value == 0.0:
                continue
            turns = -l1.turns(tm1) - l2.turns(tm2) - l3.turns(tm3)
            total += unit_phase(turns.numerator, turns.denominator) * value
    return total / math.sqrt(l1.dim * l2.dim * l3.dim)


@pytest.mark.parametrize("r", [0.0, 0.37, -5 / 3, 1e6])
def test_direct_sums_equal_their_separate_loops_bit_for_bit(r, monkeypatch):
    # every label triple with 2j <= 4; both sides read the m-scheme symbols
    # through one memo, which moves no bit and halves the run time
    for name in ("cg_float", "threejm"):
        memo = functools.lru_cache(maxsize=None)(getattr(nonstandard, name))
        monkeypatch.setattr(nonstandard, name, memo)
        monkeypatch.setitem(globals(), name, memo)
    labels = [AlphaLabel(H(tj), r, s) for tj in range(5) for s in range(tj + 1)]
    for l1 in labels:
        for l2 in labels:
            for l3 in labels:
                assert cg_nonstandard(l1, l2, l3) == loop_cg_nonstandard(l1, l2, l3)
                assert fbar(l1, l2, l3) == loop_fbar(l1, l2, l3)


def reference_cg_tensor(sp1, sp2, sp, mp):
    """(j1 j2 alpha1 alpha2 | j alpha; r) at mp's precision, flat in [s1, s2, s] order.

    Exact CG squares from cg, and each basis phase from the label's exact
    turns, so the only rounding is mpmath's.
    """
    from wigner_nonstd.standard_wra import cg

    def root(value):
        return value.sign * mp.sqrt(mp.mpf(value.magnitude_squared.numerator)
                                    / value.magnitude_squared.denominator)

    terms = []
    for tm1 in range(-sp1.j.twice, sp1.j.twice + 1, 2):
        for tm2 in range(-sp2.j.twice, sp2.j.twice + 1, 2):
            value = cg(sp1.j, sp2.j, H(tm1), H(tm2), sp.j, H(tm1 + tm2))
            if value.sign:
                terms.append((tm1, tm2, root(value)))
    norm = mp.sqrt(sp1.dim * sp2.dim * sp.dim)
    out = []
    for l1 in alpha_labels(sp1):
        for l2 in alpha_labels(sp2):
            for l in alpha_labels(sp):
                total = mp.mpc(0)
                for tm1, tm2, c in terms:
                    turns = l.turns(tm1 + tm2) - l1.turns(tm1) - l2.turns(tm2)
                    total += mp.expjpi(2 * mp.mpf(turns.numerator) / turns.denominator) * c
                out.append(total / norm)
    return out


@pytest.mark.parametrize("tj1,tj2,tj,r", [(4, 4, 4, 0.37), (3, 4, 5, 0.25)])
def test_cg_tensor_against_40_digit_reference(tj1, tj2, tj, r):
    mpmath = pytest.importorskip("mpmath")
    sp = [SpinSpace(H(t), r) for t in (tj1, tj2, tj)]
    with mpmath.workdps(40):
        reference = reference_cg_tensor(*sp, mpmath.mp)
        tensor = cg_nonstandard_tensor(*sp).ravel()
        worst = max(abs(mpmath.mpc(complex(z)) - ref) for z, ref in zip(tensor, reference))
    assert worst <= 1e-15


# ---------------------------------------------------------------------------
# Symmetric 3-symbols


def oracle_fbar(l1, l2, l3) -> complex:
    """Raw-phase contraction of the 3-jm tensor; all three sides conjugated."""
    from wigner_nonstd.standard_wra import threejm

    total = 0.0 + 0.0j
    for tm1 in range(-l1.j.twice, l1.j.twice + 1, 2):
        for tm2 in range(-l2.j.twice, l2.j.twice + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > l3.j.twice:
                continue
            phase = cmath.exp(-2j * cmath.pi * (
                l1.alpha * (tm1 / 2) / l1.dim
                + l2.alpha * (tm2 / 2) / l2.dim
                + l3.alpha * (tm3 / 2) / l3.dim
            ))
            total += phase * float(threejm(l1.j, l2.j, l3.j, H(tm1), H(tm2), H(tm3)))
    return total / math.sqrt(l1.dim * l2.dim * l3.dim)


TRIPLES = [(1, 1, 0), (1, 1, 2), (2, 1, 1), (2, 2, 2), (2, 2, 4), (3, 2, 1), (2, 3, 3)]


class TestFbar:
    @pytest.mark.parametrize("tj1,tj2,tj3", TRIPLES)
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_scalar_tensor_and_oracle_agree(self, tj1, tj2, tj3, r):
        sp = [SpinSpace(H(t), r) for t in (tj1, tj2, tj3)]
        tensor = fbar_tensor(*sp)
        for l1 in alpha_labels(sp[0]):
            for l2 in alpha_labels(sp[1]):
                for l3 in alpha_labels(sp[2]):
                    scalar = fbar(l1, l2, l3)
                    assert abs(scalar - tensor[l1.s, l2.s, l3.s]) < 1e-12
                    assert abs(scalar - oracle_fbar(l1, l2, l3)) < 1e-12

    @pytest.mark.parametrize("tj1,tj2,tj3", TRIPLES)
    @pytest.mark.parametrize("r", [0.0, 0.37, 2.5])
    def test_symmetry_report(self, tj1, tj2, tj3, r):
        report = verify_fbar_symmetry(SpinSpace(H(tj1), r), SpinSpace(H(tj2), r),
                                      SpinSpace(H(tj3), r))
        assert report.worst() <= 1e-10, str(report)

    def test_conjugation_keeps_labels(self):
        # conj(fbar) = (-1)^(j1+j2+j3) fbar with the SAME alpha labels
        r = 0.37
        l1 = AlphaLabel(H(2), r, 1)
        l2 = AlphaLabel(H(2), r, 2)
        l3 = AlphaLabel(H(2), r, 0)
        value = fbar(l1, l2, l3)
        tsum = (l1.j.twice + l2.j.twice + l3.j.twice) // 2
        sign = -1.0 if tsum % 2 else 1.0
        assert abs(value.conjugate() - sign * value) < 1e-13

    @pytest.mark.parametrize("tj1,tj2,tj3", TRIPLES)
    def test_parity_forces_real_or_imaginary(self, tj1, tj2, tj3):
        # even j1+j2+j3 -> real values; odd -> purely imaginary
        tensor = fbar_tensor(SpinSpace(H(tj1), 0.37), SpinSpace(H(tj2), 0.37),
                             SpinSpace(H(tj3), 0.37))
        if ((tj1 + tj2 + tj3) // 2) % 2 == 0:
            assert np.max(np.abs(tensor.imag)) < 1e-12
        else:
            assert np.max(np.abs(tensor.real)) < 1e-12

    def test_triangle_violation_vanishes(self):
        assert fbar(AlphaLabel(H(1), 0.0, 0), AlphaLabel(H(1), 0.0, 0),
                    AlphaLabel(H(4), 0.0, 0)) == 0.0

    def test_mixed_winding_rejected(self):
        with pytest.raises(ValueError):
            fbar(AlphaLabel(H(1), 0.0, 0), AlphaLabel(H(1), 0.5, 0),
                 AlphaLabel(H(2), 0.0, 0))
        with pytest.raises(ValueError):
            fbar_tensor(SpinSpace(H(1), 0.0), SpinSpace(H(1), 0.5),
                        SpinSpace(H(2), 0.0))


class TestFSmall:
    def test_half_integer_third_label_flips_sign(self):
        # (j1 j2 j3) = (1/2, 1, 1/2): the prefactor is (-1)^(2 j3) = -1
        r = 0.37
        l1 = AlphaLabel(H(1), r, 0)
        l2 = AlphaLabel(H(2), r, 1)
        l3 = AlphaLabel(H(1), r, 1)
        direct = -cg_nonstandard(l2, l3, l1).conjugate() / math.sqrt(l1.dim)
        assert abs(f_small(l1, l2, l3) - direct) < 1e-15

    def test_integer_third_label_keeps_sign(self):
        r = 0.0
        l1 = AlphaLabel(H(2), r, 0)
        l2 = AlphaLabel(H(2), r, 1)
        l3 = AlphaLabel(H(2), r, 1)
        direct = cg_nonstandard(l2, l3, l1).conjugate() / math.sqrt(l1.dim)
        assert abs(f_small(l1, l2, l3) - direct) < 1e-15

    @pytest.mark.parametrize("tj1,tj2,tj3", [(2, 1, 1), (2, 2, 2), (1, 2, 1), (4, 2, 2)])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_square_sum_rule(self, tj1, tj2, tj3, r):
        # sum over alpha2, alpha3 of |f_small|^2 = 1/(2 j1 + 1)
        sp1 = SpinSpace(H(tj1), r)
        sp2, sp3 = SpinSpace(H(tj2), r), SpinSpace(H(tj3), r)
        for l1 in alpha_labels(sp1):
            total = sum(abs(f_small(l1, l2, l3)) ** 2
                        for l2 in alpha_labels(sp2)
                        for l3 in alpha_labels(sp3))
            assert math.isclose(total, 1.0 / sp1.dim, abs_tol=1e-12)

    def test_tensor_matches_scalars(self):
        r = 0.37
        sp1, sp2, spk = SpinSpace(H(2), r), SpinSpace(H(2), r), SpinSpace(H(2), r)
        tensor = f_small_tensor(sp1, sp2, spk)
        for l1 in alpha_labels(sp1):
            for l2 in alpha_labels(sp2):
                for lk in alpha_labels(spk):
                    assert abs(tensor[lk.s, l1.s, l2.s] - f_small(l1, l2, lk)) < 1e-13


# ---------------------------------------------------------------------------
# Tensor operators and the factorization theorem


class TestTensorOperator:
    def test_shape_validation(self):
        sp = SpinSpace(H(2), 0.0)
        with pytest.raises(ValueError):
            TensorOperator(sp, sp, H(2), np.zeros((2, 3, 3)))

    def test_half_integer_rank_rejected(self):
        sp = SpinSpace(H(2), 0.0)
        with pytest.raises(ValueError):
            TensorOperator(sp, sp, H(1), np.zeros((2, 3, 3)))

    def test_mixed_winding_rejected(self):
        with pytest.raises(ValueError):
            TensorOperator(SpinSpace(H(2), 0.0), SpinSpace(H(2), 0.37),
                           H(2), np.zeros((3, 3, 3)))

    def test_component_lookup(self):
        # components are stored q ascending: T_q is components[q + rank]
        sp = SpinSpace(H(2), 0.0)
        comps = np.arange(27, dtype=float).reshape(3, 3, 3)
        op = TensorOperator(sp, sp, H(2), comps)
        assert np.allclose(op.components[-1 + 1], comps[0])
        assert np.allclose(op.components[1 + 1], comps[2])
        with pytest.raises(ValueError):
            TensorOperator(sp, sp, H(2), np.zeros((5, 3, 3)))

    def test_components_copied_and_frozen(self):
        sp = SpinSpace(H(2), 0.0)
        src = np.zeros((3, 3, 3))
        op = TensorOperator(sp, sp, H(2), src)
        src[0, 0, 0] = 5.0
        assert op.components[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            op.components[0, 0, 0] = 1.0

    def test_rank_space_shares_winding(self):
        sp = SpinSpace(H(2), 0.37)
        op = TensorOperator(sp, sp, H(2), np.zeros((3, 3, 3)))
        assert op.rank_space == SpinSpace(H(2), 0.37)


class TestSphericalTensorFromGenerators:
    def test_rank_must_be_positive(self):
        ops = build_spin_ops(SpinSpace(H(2), 0.0))
        with pytest.raises(ValueError):
            spherical_tensor_from_j(ops, 0)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_defining_commutators(self, rank, r):
        # [J3, T_q] = q T_q and [J+-, T_q] = sqrt(k(k+1) - q(q+-1)) T_(q+-1)
        ops = build_spin_ops(SpinSpace(H(4), r))
        tensor = spherical_tensor_from_j(ops, rank)
        k = rank
        worst = 0.0
        for q in range(-k, k + 1):
            t_q = tensor.components[q + k]
            worst = max(worst, np.max(np.abs(
                ops.j3 @ t_q - t_q @ ops.j3 - q * t_q)))
            for step, ladder in ((1, ops.j_plus), (-1, ops.j_minus)):
                coeff = math.sqrt(k * (k + 1) - q * (q + step))
                target = coeff * tensor.components[q + step + k] if abs(q + step) <= k \
                    else np.zeros_like(t_q)
                worst = max(worst, np.max(np.abs(
                    ladder @ t_q - t_q @ ladder - target)))
        assert worst < 1e-11

    def test_rank_one_components(self):
        ops = build_spin_ops(SpinSpace(H(2), 0.0))
        tensor = spherical_tensor_from_j(ops, 1)
        rt2 = math.sqrt(2.0)
        assert np.allclose(tensor.components[0], ops.j_minus / rt2)
        assert np.allclose(tensor.components[1], ops.j3)
        assert np.allclose(tensor.components[2], -ops.j_plus / rt2)


class TestWignerEckart:
    @pytest.mark.parametrize("tj", [0, 1, 2, 3, 6])
    @pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
    def test_scalar_identity_reduced_element(self, tj, r):
        # the rank-0 identity factorizes with reduced element sqrt(2j+1)
        sp = SpinSpace(H(tj), r)
        eye = np.eye(sp.dim, dtype=complex)[np.newaxis]
        result = wigner_eckart_check(TensorOperator(sp, sp, H(0), eye))
        assert result.residual < 1e-10
        assert math.isclose(result.reduced_element.real, math.sqrt(sp.dim),
                            abs_tol=1e-10)
        assert abs(result.reduced_element.imag) < 1e-10

    @pytest.mark.parametrize("tj", [1, 2, 4, 6])
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_generator_tensor_reduced_element(self, tj, r):
        # rank 1 built from the generators: reduced element sqrt(j(j+1)(2j+1))
        ops = build_spin_ops(SpinSpace(H(tj), r))
        result = wigner_eckart_check(spherical_tensor_from_j(ops, 1))
        jf = tj / 2.0
        expected = math.sqrt(jf * (jf + 1.0) * (tj + 1.0))
        assert result.residual < 1e-10
        assert math.isclose(result.reduced_element.real, expected, abs_tol=1e-9)
        assert abs(result.reduced_element.imag) < 1e-9

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("tj", [2, 4, 6])
    def test_factorization_residual(self, rank, tj):
        ops = build_spin_ops(SpinSpace(H(tj), 0.37))
        result = wigner_eckart_check(spherical_tensor_from_j(ops, rank))
        assert result.residual < 1e-9

    @pytest.mark.parametrize("rank", [1, 2])
    def test_reduced_element_independent_of_winding(self, rank):
        values = []
        for r in (0.0, 0.37, 1.0):
            ops = build_spin_ops(SpinSpace(H(4), r))
            values.append(wigner_eckart_check(
                spherical_tensor_from_j(ops, rank)).reduced_element)
        spread = max(abs(v - values[0]) for v in values)
        assert spread < 1e-9

    def test_rectangular_intertwiner(self):
        # bra j = 1, ket j = 0, rank 1: components are the coupling itself
        r = 0.37
        bra, ket = SpinSpace(H(2), r), SpinSpace(H(0), r)
        comps = np.zeros((3, 3, 1), dtype=complex)
        for iq in range(3):
            comps[iq, iq, 0] = 1.0  # <1 m|T_q|0 0> = delta_(m q)
        result = wigner_eckart_check(TensorOperator(bra, ket, H(2), comps))
        assert result.residual < 1e-12
        assert abs(result.reduced_element) > 0.5

    def test_zero_tensor_reports_zero(self):
        sp = SpinSpace(H(2), 0.0)
        result = wigner_eckart_check(TensorOperator(sp, sp, H(2), np.zeros((3, 3, 3))))
        assert result.reduced_element == 0.0
        assert result.residual == 0.0

    def test_forbidden_coupling_has_zero_pattern(self):
        # bra j = 0 cannot arise from ket j = 2 with a rank-1 tensor
        r = 0.0
        bra, ket = SpinSpace(H(0), r), SpinSpace(H(4), r)
        result = wigner_eckart_check(TensorOperator(bra, ket, H(2),
                                                    np.zeros((3, 1, 5))))
        assert result.reduced_element == 0.0


# ---------------------------------------------------------------------------
# Recoupling


class TestRecoupling:
    PATHS = [
        # (tj1, tj2, tj3, tj12, tj23, tj)
        (1, 1, 1, 0, 0, 1),
        (1, 1, 1, 2, 2, 1),
        (1, 1, 1, 2, 0, 1),
        (1, 1, 1, 0, 2, 1),
        (1, 1, 1, 2, 2, 3),
        (2, 2, 2, 2, 2, 2),
        (2, 1, 1, 3, 2, 2),
        (2, 2, 1, 4, 3, 3),
    ]

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("r", [0.0, 0.37])
    def test_overlap_matches_sixj(self, path, r):
        tj1, tj2, tj3, tj12, tj23, tj = path
        report = recoupling_invariance_check(H(tj1), H(tj2), H(tj3),
                                             H(tj12), H(tj23), H(tj), r)
        assert report.worst() <= 1e-9, str(report)

    def test_triad_failure_zeroes_both_sides(self):
        report = recoupling_invariance_check(H(2), H(2), H(2), H(6), H(2), H(2), 0.37)
        assert report.worst() == 0.0

    def test_winding_independence_of_overlap(self):
        base = recoupling_invariance_check(H(2), H(2), H(2), H(4), H(2), H(2), 0.0)
        other = recoupling_invariance_check(H(2), H(2), H(2), H(4), H(2), H(2), 2.5)
        assert base.worst() <= 1e-10
        assert other.worst() <= 1e-10
