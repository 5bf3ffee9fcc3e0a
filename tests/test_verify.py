"""Tests for the verify suites' grid: which checks the default run emits."""

import collections
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wigner_nonstd import cli, nonstandard, verify
from wigner_nonstd.halfint import HalfInt
from wigner_nonstd.quon import MAX_K, build_rep, build_ur
from wigner_nonstd.standard_wra import ExactSqrtRational
from wigner_nonstd.su2gen import ResidualReport, SpinSpace, restrict_fock_operator, winding_turns
from wigner_nonstd.verify import DEFAULT_TOLERANCES, VerifyConfig, run_suites

# The (check, parameters) rows of the default grid with k = 2..22, as the
# benchmark's verify workload runs it. The digest is sha256 over the rows
# serialised with json.dumps([name, parameters], sort_keys=True), sorted
# and joined by newlines.
DEFAULT_K22_ROWS = 1110
DEFAULT_K22_DIGEST = "bbaa10f06bffd0a9fc3db11fdb9dfdd742e034cff6b45546b86c1d78c53c833b"
DEFAULT_K22_COUNTS = {
    "alpha.eigen": 104, "alpha.unitarity": 104,
    "coupling.interchange": 64, "coupling.orthonormality": 64,
    "coupling.orthonormality_random": 4,
    "fbar.parity": 4, "fbar.symmetry": 4,
    "quon.cyclicity": 84, "quon.nilpotency": 21, "quon.relations": 21, "quon.w_infinity": 5,
    "recoupling.sixj": 2,
    "spin.casimir": 104, "spin.commutators": 104, "spin.cyclicity": 104,
    "spin.quon_restriction": 36, "spin.structure": 104, "spin.u_spectrum": 104,
    "standard.cg_orthogonality": 1, "standard.sixj_symmetry": 1,
    "standard.threejm_symmetry": 1,
    "wigner_eckart.r_independent": 14, "wigner_eckart.residual": 56,
}


def test_default_grid_check_set_is_unchanged():
    results = run_suites(VerifyConfig(k_values=tuple(range(2, 23))))
    assert len(results) == DEFAULT_K22_ROWS
    assert dict(collections.Counter(c["check"] for c in results)) == DEFAULT_K22_COUNTS
    # w_infinity stays capped at k <= 6 and the oscillator restriction at k <= 10
    assert {c["parameters"]["k"] for c in results
            if c["check"] == "quon.w_infinity"} == set(range(2, 7))
    assert {c["parameters"]["k"] for c in results
            if c["check"] == "spin.quon_restriction"} == set(range(2, 11))
    rows = sorted(json.dumps([c["check"], c["parameters"]], sort_keys=True) for c in results)
    assert len(set(rows)) == DEFAULT_K22_ROWS
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == DEFAULT_K22_DIGEST
    assert all(c["pass"] for c in results)


def test_suites_run_in_order_on_the_calling_thread(monkeypatch):
    calls = []

    def suite(name):
        def run(config):
            calls.append((name, threading.get_ident()))
            return [{"check": f"{name}.check", "parameters": {"k": 2}, "residual": 0.0,
                     "tolerance": 1.0, "pass": True}]
        return run

    monkeypatch.setattr(verify, "SUITES", (suite("b"), suite("a"), suite("c")))
    results = run_suites(VerifyConfig())
    assert calls == [(name, threading.get_ident()) for name in "bac"]
    assert [c["check"] for c in results] == ["a.check", "b.check", "c.check"]


def test_quon_cyclicity_takes_the_winding_of_the_diagonal_multiplet(monkeypatch):
    # the residual compares U_r^k with e^(i phi_r) for whatever turns it is given, so the row
    # cannot see a wrong winding; this pins phi_r/(2 pi) = j r at j = (k-1)/2
    seen = []

    def recording(rep, turns, *, u):
        seen.append((rep.k, turns))
        return 0.0

    monkeypatch.setattr(verify, "cyclicity_residual", recording)
    r_values = (0.37, -5 / 3, 1e12)
    verify.quon_suite(VerifyConfig(r_values=r_values, k_values=(2, 3, 8)))
    assert seen == [(k, Fraction(r) * (k - 1) / 2) for k in (2, 3, 8) for r in r_values]


def test_quon_cyclicity_fails_on_the_winding_of_another_multiplet(monkeypatch):
    # the winding of j = k/2 instead of (k-1)/2: the wrap entry on the diagonal multiplet
    # no longer equals the spin layer's e^(i phi_r) wherever that phase moves
    winding_turns = verify.winding_turns
    monkeypatch.setattr(verify, "winding_turns", lambda j, r: winding_turns(j + HalfInt(1), r))
    config = VerifyConfig(r_values=(0.0, 0.37, -5 / 3, 1e12), k_values=(2, 3, 8))
    rows = [c for c in verify.quon_suite(config) if c["check"] == "quon.cyclicity"]
    assert len(rows) == 12
    failed = {(c["parameters"]["k"], c["parameters"]["r"]) for c in rows if not c["pass"]}
    assert failed == {(k, r) for k in (2, 3, 8) for r in (0.37, -5 / 3)}


def test_multiplet_wrap_residual_equals_the_restriction_route_bit_for_bit():
    # the wrap entry is read from the one U_r that the cyclicity row uses, through the same
    # k x k block product as restrict_fock_operator, with no leakage scan
    for k in range(2, MAX_K + 1):
        rep = build_rep(k)
        for r in (0.0, 0.37, 1.0, 2.5, -5 / 3):
            turns = Fraction(*winding_turns(HalfInt(k - 1), r))
            block, _ = restrict_fock_operator(build_ur(rep, turns), k)
            old = float(abs(block[0, k - 1] - SpinSpace(HalfInt(k - 1), r).wrap_factor))
            new = verify._multiplet_wrap_residual(build_ur(rep, turns), r)
            assert np.float64(new).view(np.uint64) == np.float64(old).view(np.uint64), (k, r)


@pytest.mark.parametrize("argv, tensors", [
    (["verify", "--k", "2-22", "--seed", "21"], 1719),
    (["verify"], 1756),
], ids=["k2-22-seed21", "default"])
def test_verify_builds_as_many_alpha_results_as_one_lru_of_every_result(monkeypatch, capsys,
                                                                         argv, tensors):
    # the 4 MiB first-use budget that the three caches share is large enough for verify's
    # reuse (with 1 MiB, --k 2-22 --seed 21 builds 1735 tensors). Fresh caches stand in for a
    # fresh process, with every builder counted.
    builds, first_uses = collections.Counter(), nonstandard._FirstUses()
    for name in ("basis_matrix", "cg_nonstandard_tensor", "fbar_tensor"):
        cached = getattr(nonstandard, name)

        def counted(*spaces, build=cached.__wrapped__, name=name):
            builds[name] += 1
            return build(*spaces)

        fresh = nonstandard._cache_on_reuse(counted, first_uses)
        for module in (nonstandard, verify):
            if getattr(module, name, None) is cached:
                monkeypatch.setattr(module, name, fresh)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert builds["cg_nonstandard_tensor"] + builds["fbar_tensor"] == tensors
    assert builds["basis_matrix"] == 104


def test_every_row_carries_its_default_tolerance():
    results = run_suites(VerifyConfig(k_values=tuple(range(2, 23))))
    for c in results:
        assert c["tolerance"] == DEFAULT_TOLERANCES[c["check"]], c["check"]
    assert {c["check"] for c in results} == set(DEFAULT_TOLERANCES)


def test_tol_overrides_every_tolerance():
    config = VerifyConfig(j_max=HalfInt(1), r_values=(0.0, 0.37), k_values=(2, 3), tol=1e-3)
    results = run_suites(config)
    assert {c["check"] for c in results} == set(DEFAULT_TOLERANCES)
    assert {c["tolerance"] for c in results} == {1e-3}


# The smallest grid that runs every suite: one j, one r and one k.
ONE_POINT = VerifyConfig(j_max=HalfInt(0), r_values=(0.0,), k_values=(2,))


def test_every_suite_returns_its_rows_under_a_distinct_label():
    # a timing wrapper calls each entry, counts its rows with len() and
    # names it by its __name__ less "_suite"
    labels = set()
    total = 0
    for suite in verify.SUITES:
        rows = suite(ONE_POINT)
        assert isinstance(rows, list) and all(isinstance(c, dict) for c in rows)
        labels.add(suite.__name__.removesuffix("_suite"))
        total += len(rows)
    assert labels == {"quon", "spin", "alpha", "coupling", "fbar", "recoupling",
                      "wigner_eckart", "standard"}
    assert total == len(run_suites(ONE_POINT))


def test_the_reducer_keeps_each_rows_largest_residual_and_any_nan():
    @verify._suite
    def fake_suite(config):
        for point, residuals in (({"k": 2}, (1.0, 3.0, 2.0)), ({"k": 3}, (1.0, math.nan, 2.0)),
                                 ({"k": 4}, (math.nan, 5.0))):
            for residual in residuals:
                yield "quon.relations", point, residual
        yield "quon.nilpotency", {"k": 2}, 0.0

    rows = fake_suite(VerifyConfig(tol=4.0))
    assert fake_suite.__name__ == "fake_suite"
    assert [(c["check"], c["parameters"]) for c in rows] == [
        ("quon.relations", {"k": 2}), ("quon.relations", {"k": 3}),
        ("quon.relations", {"k": 4}), ("quon.nilpotency", {"k": 2})]
    assert rows[0]["residual"] == 3.0 and rows[0]["pass"]
    assert math.isnan(rows[1]["residual"]) and math.isnan(rows[2]["residual"])
    assert not rows[1]["pass"] and not rows[2]["pass"]
    assert {c["tolerance"] for c in rows} == {4.0}


def test_rows_hold_plain_floats_whatever_a_suite_yields():
    # the CSV writer prints repr() of both numbers, and numpy 2 spells a float64's
    # repr np.float64(...)
    @verify._suite
    def fake_suite(config):
        yield "quon.relations", {"k": 2}, np.float64(0.5)

    (row,) = fake_suite(VerifyConfig(tol=np.float64(1.0)))
    assert (type(row["residual"]), type(row["tolerance"]), type(row["pass"])) == (float, float, bool)
    csv_text = "".join(cli._verify_csv(verify.report_dict([row], VerifyConfig())))
    assert csv_text.splitlines()[1].endswith(',0.5,1.0,True')


def _nan_once(monkeypatch, name, hit):
    """Replace verify.<name> so that the first call where hit(*args) holds adds a NaN residual."""
    func = getattr(verify, name)
    calls = []

    def probe(*args):
        report = func(*args)
        if not calls and hit(*args):
            calls.append(args)
            return ResidualReport({**report.residuals, "probe": math.nan})
        return report

    monkeypatch.setattr(verify, name, probe)
    return calls


def _nan_at_one_random_draw_and_one_path(monkeypatch):
    # only the random draws reach j1 above COUPLING_J_MAX; the path is one of many
    draw = _nan_once(monkeypatch, "verify_cg_orthonormality",
                     lambda sp1, sp2: sp1.j.twice > verify.COUPLING_J_MAX.twice)
    path = _nan_once(monkeypatch, "recoupling_invariance_check",
                     lambda *args: [j.twice for j in args[:6]] == [1, 1, 1, 2, 2, 1])
    return draw, path


def test_a_nan_at_one_point_fails_its_aggregated_row(monkeypatch, capsys):
    draw, path = _nan_at_one_random_draw_and_one_path(monkeypatch)
    rows = verify.coupling_suite(ONE_POINT) + verify.recoupling_suite(ONE_POINT)
    assert len(draw) == 1 and len(path) == 1
    failed = [c for c in rows if not c["pass"]]
    assert [c["check"] for c in failed] == ["coupling.orthonormality_random", "recoupling.sixj"]
    assert all(math.isnan(c["residual"]) for c in failed)
    assert not any(math.isnan(c["residual"]) for c in rows if c["pass"])

    _nan_at_one_random_draw_and_one_path(monkeypatch)
    assert cli.main(["verify", "--j-max", "1", "--k", "2", "--r", "0"]) == 1
    assert "checks passed" in capsys.readouterr().err


def test_each_distinct_random_draw_is_checked_once_in_draw_order(monkeypatch):
    config = VerifyConfig(r_values=(0.0, 0.37))
    check, calls = verify.verify_cg_orthonormality, []

    def counted(sp1, sp2):
        calls.append((sp1.j.twice, sp2.j.twice, sp1.r))
        return check(sp1, sp2)

    monkeypatch.setattr(verify, "verify_cg_orthonormality", counted)
    rows = verify.coupling_suite(config)
    # replay the generator: two draws per sample, 2j1 then 2j2, for each r in turn
    rng, distinct = random.Random(config.seed), []
    for r in config.r_values:
        draws = [tuple(rng.randrange(verify.RANDOM_J_MAX.twice + 1) for _ in range(2))
                 for _ in range(verify.RANDOM_SAMPLES)]
        distinct += [(tj1, tj2, r) for tj1, tj2 in dict.fromkeys(draws)]
    assert len(distinct) < len(config.r_values) * verify.RANDOM_SAMPLES
    fixed = len(config.r_values) * (verify.COUPLING_J_MAX.twice + 1) ** 2
    assert len(calls) == fixed + len(distinct)
    assert calls[fixed:] == distinct
    random_rows = [c for c in rows if c["check"] == "coupling.orthonormality_random"]
    assert [c["parameters"]["samples"] for c in random_rows] == [verify.RANDOM_SAMPLES] * 2


# The first ten (2j1, 2j2) draws for the default seed. random.Random seeded with an int
# gives the same Mersenne Twister stream on every CPython 3 version and platform.
DEFAULT_SEED_FIRST_DRAWS = [(7, 2), (4, 0), (4, 8), (4, 4), (2, 6),
                            (0, 7), (5, 0), (2, 6), (7, 2), (7, 8)]


def test_the_default_seed_draws_a_pinned_stream(monkeypatch):
    config = VerifyConfig(r_values=(0.0,))
    assert config.seed == 20260823
    rng, bound = random.Random(config.seed), verify.RANDOM_J_MAX.twice + 1
    assert [(rng.randrange(bound), rng.randrange(bound))
            for _ in DEFAULT_SEED_FIRST_DRAWS] == DEFAULT_SEED_FIRST_DRAWS
    check, calls = verify.verify_cg_orthonormality, []

    def counted(sp1, sp2):
        calls.append((sp1.j.twice, sp2.j.twice))
        return check(sp1, sp2)

    monkeypatch.setattr(verify, "verify_cg_orthonormality", counted)
    verify.coupling_suite(config)
    # the suite checks each distinct pair once, after the fixed grid, in draw order
    fixed = (verify.COUPLING_J_MAX.twice + 1) ** 2
    first = list(dict.fromkeys(DEFAULT_SEED_FIRST_DRAWS))
    assert calls[fixed:fixed + len(first)] == first


# A fresh interpreter runs two small verify jobs and prints their exit codes and the
# numpy.random and _hashlib modules they loaded beyond those that importing numpy alone loads.
IMPORT_GUARD = """
import json, sys
import numpy
before = set(sys.modules)
from wigner_nonstd import cli
codes = [cli.main(["verify", "--j-max", "1", "--k", k, "--output", sys.argv[1]])
         for k in ("2", "2-4")]
print(json.dumps({"codes": codes, "loaded": sorted(
    m for m in set(sys.modules) - before if m.startswith("numpy.random") or m == "_hashlib")}))
"""


def test_verify_loads_neither_numpy_random_nor_hashlib(tmp_path):
    out = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "report.json")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert json.loads(out) == {"codes": [0, 0], "loaded": []}


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def test_a_failing_report_is_strict_json_with_null_for_a_nan_residual(monkeypatch, capsys,
                                                                      tmp_path):
    argv = ["verify", "--j-max", "1", "--k", "2", "--r", "0"]
    failing = ["coupling.orthonormality_random", "recoupling.sixj"]
    _nan_at_one_random_draw_and_one_path(monkeypatch)
    assert cli.main(argv) == 1
    text = capsys.readouterr().out
    report = json.loads(text, parse_constant=_refuse)
    assert [c["check"] for c in report["checks"] if not c["pass"]] == failing
    assert [c["check"] for c in report["checks"] if c["residual"] is None] == failing
    assert report["failed"] == 2 and report["all_pass"] is False

    # the same report written to --output
    _nan_at_one_random_draw_and_one_path(monkeypatch)
    out = tmp_path / "failing.json"
    assert cli.main(argv + ["--output", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == text

    # CSV keeps the NaN, and the row still fails
    _nan_at_one_random_draw_and_one_path(monkeypatch)
    assert cli.main(argv + ["--format", "csv"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["check"], row["residual"]) for row in rows if row["pass"] == "False"] == [
        (name, "nan") for name in failing]


def test_a_seeded_report_meets_the_benchmarks_invariants(tmp_path):
    # perfbench/checks.py hard-codes the check count of each suite; every row must pass,
    # and no residual may exceed its default tolerance
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    report = tmp_path / "verify.json"
    assert cli.main(["verify", "--k", "2-22", "--seed", "1", "--output", str(report)]) == 0
    assert checks.check_verify_report(str(report), DEFAULT_TOLERANCES, r_count=4) == []


def test_a_non_finite_float_is_written_as_json_null():
    document = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "finite": [1.5, 1e20]}
    text = "".join(cli._json_chunks(document, 0))
    assert json.loads(text, parse_constant=_refuse) == {
        "nan": None, "inf": None, "-inf": None, "finite": [1.5, 1e20]}
    finite = {"finite": [1.5, 1e20, -0.0], "int": 3, "none": None, "bool": True}
    assert "".join(cli._json_chunks(finite, 0)) == json.dumps(finite, indent=2)


def _negated(value):
    """-value, as the exact symbols return it."""
    return ExactSqrtRational(-value.sign, value.magnitude_squared)


def _negated_when_j1_exceeds_j2(symbol):
    """symbol with every nonzero value negated where 2j1 > 2j2."""
    def mutant(*args):
        value = symbol(*args)
        return _negated(value) if args[0].twice > args[1].twice else value
    return mutant


def _sixj_violations_by_loop(limit):
    """The 6-j symmetry count as a loop over label sets, each image a fresh sixj call."""
    bad = 0
    for args in itertools.product(verify._spins(limit), repeat=6):
        j1, j2, j3, j4, j5, j6 = args
        base = verify.sixj(*args)
        columns = ((j1, j4), (j2, j5), (j3, j6))
        images = [tuple(columns[p][0] for p in perm) + tuple(columns[p][1] for p in perm)
                  for perm in itertools.permutations(range(3))]
        images += [(j4, j5, j3, j1, j2, j6), (j4, j2, j6, j1, j5, j3), (j1, j5, j6, j4, j2, j3)]
        if any(verify.sixj(*image) != base for image in images):
            bad += 1
    return bad


def _threejm_violations_by_loop(limit):
    """The 3-jm symmetry count as a loop over label sets, each image a fresh threejm call."""
    bad = 0
    for j1, j2, j3 in itertools.product(verify._spins(limit), repeat=3):
        if not verify.triangle(j1, j2, j3):
            continue
        sign_exp = (j1.twice + j2.twice + j3.twice) // 2
        for m1 in verify.m_values(j1):
            for m2 in verify.m_values(j2):
                m3 = -(m1 + m2)
                if abs(m3.twice) > j3.twice:
                    continue
                base = verify.threejm(j1, j2, j3, m1, m2, m3)
                signed = _negated(base) if sign_exp % 2 else base
                checks = (
                    verify.threejm(j2, j3, j1, m2, m3, m1) == base,
                    verify.threejm(j3, j1, j2, m3, m1, m2) == base,
                    verify.threejm(j2, j1, j3, m2, m1, m3) == signed,
                    verify.threejm(j1, j2, j3, -m1, -m2, -m3) == signed,
                )
                if not all(checks):
                    bad += 1
    return bad


# 551 and 267 are the counts of per-label-set loops; the two loops above are
# the references for the array forms of the checks.
def test_sixj_symmetry_check_counts_a_sign_mutant_as_the_loop_does(monkeypatch):
    assert verify._exact_sixj_symmetry_violations(verify.STANDARD_J_MAX) == 0
    monkeypatch.setattr(verify, "sixj", _negated_when_j1_exceeds_j2(verify.sixj))
    assert verify._exact_sixj_symmetry_violations(verify.STANDARD_J_MAX) == 551
    assert _sixj_violations_by_loop(verify.STANDARD_J_MAX) == 551


def test_threejm_symmetry_check_counts_a_sign_mutant(monkeypatch):
    assert verify._exact_threejm_symmetry_violations(verify.STANDARD_J_MAX) == 0
    assert _threejm_violations_by_loop(verify.STANDARD_J_MAX) == 0
    monkeypatch.setattr(verify, "threejm", _negated_when_j1_exceeds_j2(verify.threejm))
    assert verify._exact_threejm_symmetry_violations(verify.STANDARD_J_MAX) == 267
    assert _threejm_violations_by_loop(verify.STANDARD_J_MAX) == 267


def _cg_changed_at(labels, change):
    """cg with change applied to its value at the label set whose doubled labels are labels."""
    cg = verify.cg

    def mutant(*args):
        value = cg(*args)
        return change(value) if tuple(j.twice for j in args) == labels else value
    return mutant


def test_cg_orthogonality_counts_a_nonzero_off_the_m_block(monkeypatch):
    # (1/2 1/2 1/2 1/2 | 1 0) has m1 + m2 != m; the one nonzero entry is counted once
    monkeypatch.setattr(verify, "cg", _cg_changed_at(
        (1, 1, 1, 1, 2, 0), lambda value: ExactSqrtRational(1, Fraction(1, 2))))
    assert verify._exact_cg_orthogonality_violations(verify.STANDARD_J_MAX) == 1


def test_cg_orthogonality_counts_a_rescaled_entry_in_its_block(monkeypatch):
    assert verify._exact_cg_orthogonality_violations(verify.STANDARD_J_MAX) == 0
    # doubling (1/2 1/2 1/2 -1/2 | 1 0) spoils one column norm and one column pair, counted
    # in both orders, and the same for rows
    monkeypatch.setattr(verify, "cg", _cg_changed_at(
        (1, 1, 1, -1, 2, 0),
        lambda value: ExactSqrtRational(value.sign, 4 * value.magnitude_squared)))
    assert verify._exact_cg_orthogonality_violations(verify.STANDARD_J_MAX) == 6
