"""Acceptance gate: the eleven headline guarantees, one test and one line each.

Each test prints a single "criterion NN PASS/FAIL" line (past the capture
machinery, so it always reaches the terminal) and then asserts. Tolerances,
parameter ranges and runtime budgets are stated inline next to each check.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from wigner_nonstd.halfint import HalfInt, triangle
from wigner_nonstd.nonstandard import (
    cg_nonstandard_tensor,
    fbar_tensor,
    recoupling_invariance_check,
    spherical_tensor_from_j,
    verify_cg_orthonormality,
    verify_eigenbasis,
    verify_fbar_symmetry,
    wigner_eckart_check,
)
from wigner_nonstd.quon import (
    build_rep,
    build_ur,
    build_v,
    cyclicity_residual,
    relation_residuals,
)
from wigner_nonstd.standard_wra import (
    ExactSqrtRational,
    RadicalSum,
    cg,
    sixj,
    threejm,
)
from wigner_nonstd.su2gen import (
    SpinSpace,
    build_spin_ops,
    casimir_identities,
    quon_restriction_report,
    verify_su2,
)

H = HalfInt
R_VALUES = (0.0, 0.37, 1.0, 2.5)
J_SWEEP = [H(t) for t in range(26)]  # 2j <= 25


@pytest.fixture
def announce(capsys):
    def _announce(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _announce


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_01_quon_defining_relations(announce):
    """Deformed commutators <= 1e-12 and exact nilpotency, k = 2..12, < 1 s."""
    start = time.perf_counter()
    worst_relation = 0.0
    nilpotent_exact = True
    for k in range(2, 13):
        res = relation_residuals(build_rep(k))
        for name, value in res.items():
            if name.endswith("nilpotent"):
                nilpotent_exact = nilpotent_exact and value == 0.0
            else:
                worst_relation = max(worst_relation, value)
    elapsed = time.perf_counter() - start
    ok = worst_relation <= 1e-12 and nilpotent_exact and elapsed < 1.0
    announce(f"criterion 01 {verdict(ok)}: quon defining relations "
             f"(worst {worst_relation:.2e} <= 1e-12, nilpotency exact: "
             f"{nilpotent_exact}, {elapsed:.2f}s < 1s)")
    assert worst_relation <= 1e-12
    assert nilpotent_exact
    assert elapsed < 1.0


def test_criterion_02_cyclicity(announce):
    """U_r^k = e^{i phi_r} on F (k <= 12) and on F_j (2j <= 25), < 5 s."""
    start = time.perf_counter()
    worst_fock = 0.0
    for k in range(2, 13):
        rep = build_rep(k)
        for r in R_VALUES:
            worst_fock = max(worst_fock, cyclicity_residual(rep, Fraction(r) * (k - 1) / 2))
    worst_multiplet = 0.0
    for j in J_SWEEP:
        for r in R_VALUES:
            sp = SpinSpace(j, r)
            u = build_spin_ops(sp).u_r
            target = sp.wrap_factor * np.eye(sp.dim)
            residual = float(np.max(np.abs(
                np.linalg.matrix_power(u, sp.dim) - target)))
            worst_multiplet = max(worst_multiplet, residual)
    elapsed = time.perf_counter() - start
    ok = worst_fock <= 1e-10 and worst_multiplet <= 1e-10 and elapsed < 5.0
    announce(f"criterion 02 {verdict(ok)}: cyclic shift closes "
             f"(product space {worst_fock:.2e}, multiplet {worst_multiplet:.2e} "
             f"<= 1e-10, {elapsed:.2f}s < 5s)")
    assert worst_fock <= 1e-10
    assert worst_multiplet <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_su2_emergence(announce):
    """Commutators <= 1e-11 (2j <= 25, all r); restriction match <= 1e-12 (k <= 10)."""
    worst_comm = 0.0
    for j in J_SWEEP:
        for r in R_VALUES:
            res = verify_su2(build_spin_ops(SpinSpace(j, r))).residuals
            for key in ("comm_j3_jplus", "comm_j3_jminus", "comm_jplus_jminus"):
                worst_comm = max(worst_comm, res[key])
    worst_restrict = 0.0
    for k in range(2, 11):
        rep = build_rep(k)
        for r in R_VALUES:
            worst_restrict = max(worst_restrict,
                                 quon_restriction_report(rep, r).worst())
    ok = worst_comm <= 1e-11 and worst_restrict <= 1e-12
    announce(f"criterion 03 {verdict(ok)}: ladder algebra closes "
             f"(commutators {worst_comm:.2e} <= 1e-11, oscillator restriction "
             f"{worst_restrict:.2e} <= 1e-12)")
    assert worst_comm <= 1e-11
    assert worst_restrict <= 1e-12


def test_criterion_04_casimir_identities(announce):
    """Both polar Casimir forms, [J^2, U_r] and j(j+1), each <= 1e-11, 2j <= 25."""
    worst = 0.0
    for j in J_SWEEP:
        for r in R_VALUES:
            res = casimir_identities(build_spin_ops(SpinSpace(j, r))).residuals
            for key in ("casimir_form_a", "casimir_form_b",
                        "casimir_commutes_u", "casimir_value"):
                worst = max(worst, res[key])
    ok = worst <= 1e-11
    announce(f"criterion 04 {verdict(ok)}: Casimir identities "
             f"(worst {worst:.2e} <= 1e-11)")
    assert worst <= 1e-11


def test_criterion_05_eigenbasis(announce):
    """Eigenvalue equations <= 1e-10 and overlap unitarity <= 1e-12, 2j <= 25."""
    worst_eigen = 0.0
    worst_unitary = 0.0
    for j in J_SWEEP:
        for r in R_VALUES:
            res = verify_eigenbasis(SpinSpace(j, r)).residuals
            worst_eigen = max(worst_eigen, res["u_eigen"], res["casimir_eigen"])
            worst_unitary = max(worst_unitary, res["overlap_unitary"])
    ok = worst_eigen <= 1e-10 and worst_unitary <= 1e-12
    announce(f"criterion 05 {verdict(ok)}: shift eigenbasis "
             f"(eigen equations {worst_eigen:.2e} <= 1e-10, unitarity "
             f"{worst_unitary:.2e} <= 1e-12)")
    assert worst_eigen <= 1e-10
    assert worst_unitary <= 1e-12


def test_criterion_06_sine_algebra_structure_constants(announce):
    """Sine-bracket residual <= 1e-10 for all m, n in [0,k-1]^2, k = 2..6, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for k in range(2, 7):
        rep = build_rep(k)
        q_power = rep.deformation.q_power
        u = build_ur(rep, 0.0).dense()
        v = np.diag(build_v(rep).ravel())
        eye = np.eye(rep.k ** 2, dtype=complex)
        u_pow, v_pow = [eye], [eye]
        for _ in range(2 * (k - 1)):
            u_pow.append(u_pow[-1] @ u)
            v_pow.append(v_pow[-1] @ v)

        def gen(m1, m2):
            return q_power(m1 * m2) * (u_pow[m1] @ v_pow[m2])

        labels = [(m1, m2) for m1 in range(k) for m2 in range(k)]
        t = {lab: gen(*lab) for lab in labels}
        for m1, m2 in labels:
            for n1, n2 in labels:
                t_sum = gen(m1 + n1, m2 + n2)
                cross = (m1 * n2 - m2 * n1) % k
                coeff = -2j * math.sin(2.0 * math.pi * cross / k)
                bracket = t[(m1, m2)] @ t[(n1, n2)] - t[(n1, n2)] @ t[(m1, m2)]
                worst = max(worst, float(np.max(np.abs(bracket - coeff * t_sum))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    announce(f"criterion 06 {verdict(ok)}: sine-algebra structure constants "
             f"(worst {worst:.2e} <= 1e-10, {elapsed:.2f}s < 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_07_coupling_orthonormality(announce):
    """Both relations <= 1e-10: j1, j2 <= 3/2 at r = 0 and 0.37, and every j1, j2 <= 4 at
    r = 0.37, so every pair that verify's seeded draws (2j1, 2j2 <= 8) can give, at any seed."""
    worst_exhaustive = 0.0
    for t1 in range(4):
        for t2 in range(4):
            for r in (0.0, 0.37):
                report = verify_cg_orthonormality(SpinSpace(H(t1), r),
                                                  SpinSpace(H(t2), r))
                worst_exhaustive = max(worst_exhaustive, report.worst())
    worst_draws = 0.0
    for t1 in range(9):
        for t2 in range(9):
            report = verify_cg_orthonormality(SpinSpace(H(t1), 0.37),
                                              SpinSpace(H(t2), 0.37))
            worst_draws = max(worst_draws, report.worst())
    ok = worst_exhaustive <= 1e-10 and worst_draws <= 1e-10
    announce(f"criterion 07 {verdict(ok)}: coupling orthonormality "
             f"(j <= 3/2 {worst_exhaustive:.2e}, every drawable pair {worst_draws:.2e} "
             f"<= 1e-10)")
    assert worst_exhaustive <= 1e-10
    assert worst_draws <= 1e-10


def test_criterion_08_symmetric_symbol_rules(announce):
    """Permutation sign and conjugation/parity rules <= 1e-10, j1+j2+j3 <= 9/2."""
    worst_sym = 0.0
    worst_parity = 0.0
    count = 0
    for t1 in range(10):
        for t2 in range(10 - t1):
            for t3 in range(10 - t1 - t2):
                spaces = tuple(SpinSpace(H(t), 0.37) for t in (t1, t2, t3))
                worst_sym = max(worst_sym, verify_fbar_symmetry(*spaces).worst())
                tensor = fbar_tensor(*spaces)
                if ((t1 + t2 + t3) // 2) % 2 == 0:
                    worst_parity = max(worst_parity, float(np.max(np.abs(tensor.imag)))
                                       if tensor.size else 0.0)
                else:
                    worst_parity = max(worst_parity, float(np.max(np.abs(tensor.real)))
                                       if tensor.size else 0.0)
                count += 1
    ok = worst_sym <= 1e-10 and worst_parity <= 1e-10
    announce(f"criterion 08 {verdict(ok)}: symmetric 3-symbol rules "
             f"({count} triples, permutation/conjugation {worst_sym:.2e}, "
             f"parity {worst_parity:.2e} <= 1e-10)")
    assert worst_sym <= 1e-10
    assert worst_parity <= 1e-10


def test_criterion_09_recoupling_invariance(announce):
    """Contraction matches the exact 6-j <= 1e-9 for arguments <= 3/2, same at both r."""
    paths = []
    rng4 = range(4)
    for t1 in rng4:
        for t2 in rng4:
            for t3 in rng4:
                for t12 in rng4:
                    if not triangle(H(t1), H(t2), H(t12)):
                        continue
                    for t in rng4:
                        if not triangle(H(t12), H(t3), H(t)):
                            continue
                        for t23 in rng4:
                            if (triangle(H(t2), H(t3), H(t23))
                                    and triangle(H(t1), H(t23), H(t))):
                                paths.append((t1, t2, t3, t12, t23, t))
    worst_match = 0.0
    cross_r = 0.0
    for path in paths:
        values = {}
        for r in (0.0, 0.37):
            report = recoupling_invariance_check(*[H(t) for t in path], r)
            worst_match = max(worst_match, report.worst())
            # contraction value itself, for the cross-winding comparison
            sp = [SpinSpace(H(t), r) for t in path]
            a = cg_nonstandard_tensor(sp[0], sp[1], sp[3])
            b = cg_nonstandard_tensor(sp[3], sp[2], sp[5])
            c = cg_nonstandard_tensor(sp[1], sp[2], sp[4])
            d = cg_nonstandard_tensor(sp[0], sp[4], sp[5])
            left = np.einsum("abe,ecs->abcs", a, b)
            right = np.einsum("bcf,afs->abcs", c, d)
            values[r] = np.einsum("abcs,abcs->s", left.conj(), right)
        cross_r = max(cross_r, float(np.max(np.abs(values[0.0] - values[0.37]))))
    ok = worst_match <= 1e-9 and cross_r <= 1e-9
    announce(f"criterion 09 {verdict(ok)}: recoupling invariance "
             f"({len(paths)} paths, matches exact 6-j {worst_match:.2e}, "
             f"winding spread {cross_r:.2e} <= 1e-9)")
    assert worst_match <= 1e-9
    assert cross_r <= 1e-9


def test_criterion_10_factorization_theorem(announce):
    """Rank-1/2 tensors from the generators: constant reduced element <= 1e-9,
    independent of r <= 1e-9, for j <= 3."""
    worst_residual = 0.0
    worst_spread = 0.0
    for tj in range(1, 7):  # j = 1/2 .. 3
        for rank in (1, 2):
            reduced = []
            for r in R_VALUES:
                ops = build_spin_ops(SpinSpace(H(tj), r))
                result = wigner_eckart_check(spherical_tensor_from_j(ops, rank))
                worst_residual = max(worst_residual, result.residual)
                reduced.append(result.reduced_element)
            worst_spread = max(worst_spread,
                               max(abs(v - reduced[0]) for v in reduced))
    ok = worst_residual <= 1e-9 and worst_spread <= 1e-9
    announce(f"criterion 10 {verdict(ok)}: factorization theorem "
             f"(pattern residual {worst_residual:.2e}, winding spread "
             f"{worst_spread:.2e} <= 1e-9)")
    assert worst_residual <= 1e-9
    assert worst_spread <= 1e-9


def _signed_square(value: ExactSqrtRational) -> Fraction:
    """sign * magnitude_squared: one exact scalar that determines the value."""
    return value.sign * value.magnitude_squared


def test_criterion_11_standard_layer_exactness(announce):
    """Zero rational residue for arguments <= 2; full `verify` run < 60 s."""
    violations = 0

    # CG orthogonality, both relations, via exact radical sums
    for t1 in range(5):
        for t2 in range(5):
            j1, j2 = H(t1), H(t2)
            pairs = [(m1, m2) for m1 in range(-t1, t1 + 1, 2)
                     for m2 in range(-t2, t2 + 1, 2)]
            couplings = [(tj, tm) for tj in range(abs(t1 - t2), t1 + t2 + 1, 2)
                         for tm in range(-tj, tj + 1, 2)]
            for pa in pairs:
                for pb in pairs:
                    acc = RadicalSum()
                    for tj, tm in couplings:
                        x = cg(j1, j2, H(pa[0]), H(pa[1]), H(tj), H(tm))
                        y = cg(j1, j2, H(pb[0]), H(pb[1]), H(tj), H(tm))
                        acc.add_term(Fraction(x.sign * y.sign),
                                     x.magnitude_squared * y.magnitude_squared)
                    acc.add_term(Fraction(-1 if pa == pb else 0), Fraction(1))
                    if not acc.is_zero():
                        violations += 1
            for ca in couplings:
                for cb in couplings:
                    acc = RadicalSum()
                    for m1, m2 in pairs:
                        x = cg(j1, j2, H(m1), H(m2), H(ca[0]), H(ca[1]))
                        y = cg(j1, j2, H(m1), H(m2), H(cb[0]), H(cb[1]))
                        acc.add_term(Fraction(x.sign * y.sign),
                                     x.magnitude_squared * y.magnitude_squared)
                    acc.add_term(Fraction(-1 if ca == cb else 0), Fraction(1))
                    if not acc.is_zero():
                        violations += 1

    # 3-jm symmetry generators: cyclic, odd swap, projection negation
    for t1 in range(5):
        for t2 in range(5):
            for t3 in range(abs(t1 - t2), min(4, t1 + t2) + 1, 2):
                sign = -1 if ((t1 + t2 + t3) // 2) % 2 else 1
                for tm1 in range(-t1, t1 + 1, 2):
                    for tm2 in range(-t2, t2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) > t3:
                            continue
                        base = threejm(H(t1), H(t2), H(t3), H(tm1), H(tm2), H(tm3))
                        if threejm(H(t2), H(t3), H(t1), H(tm2), H(tm3), H(tm1)) != base:
                            violations += 1
                        swap = threejm(H(t2), H(t1), H(t3), H(tm2), H(tm1), H(tm3))
                        if _signed_square(swap) != sign * _signed_square(base):
                            violations += 1
                        negm = threejm(H(t1), H(t2), H(t3), H(-tm1), H(-tm2), H(-tm3))
                        if _signed_square(negm) != sign * _signed_square(base):
                            violations += 1

    # 6-j symmetry generators: two column swaps and one row flip
    for t1 in range(5):
        for t2 in range(5):
            for t12 in range(5):
                if not triangle(H(t1), H(t2), H(t12)):
                    continue
                for t3 in range(5):
                    for t in range(5):
                        if not triangle(H(t12), H(t3), H(t)):
                            continue
                        for t23 in range(5):
                            if not (triangle(H(t2), H(t3), H(t23))
                                    and triangle(H(t1), H(t23), H(t))):
                                continue
                            base = sixj(H(t1), H(t2), H(t12), H(t3), H(t), H(t23))
                            if sixj(H(t2), H(t1), H(t12), H(t), H(t3), H(t23)) != base:
                                violations += 1
                            if sixj(H(t12), H(t2), H(t1), H(t23), H(t), H(t3)) != base:
                                violations += 1
                            if sixj(H(t3), H(t), H(t12), H(t1), H(t2), H(t23)) != base:
                                violations += 1

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wigner_nonstd.cli", "verify"],
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and proc.returncode == 0 and elapsed < 60.0
    announce(f"criterion 11 {verdict(ok)}: exact layer and full verification "
             f"({violations} rational-residue violations, verify exit "
             f"{proc.returncode}, {elapsed:.1f}s < 60s)")
    assert violations == 0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
