"""Tests for the command-line interface: parsing, output formats, exit codes."""

import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from wigner_nonstd import cli
from wigner_nonstd.cli import (
    ConfigError,
    main,
    parse_half,
    parse_k_list,
    parse_r_list,
    parse_tol,
    read_config_file,
)
from wigner_nonstd.halfint import HalfInt
from wigner_nonstd.nonstandard import cg_nonstandard_tensor
from wigner_nonstd.su2gen import SpinSpace, build_spin_ops
from wigner_nonstd.verify import VerifyConfig


def run_main(*argv):
    return main(list(argv))


def run_json(capsys, *argv):
    code = run_main(*argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestParsers:
    def test_parse_half(self):
        assert parse_half("3/2") == HalfInt(3)
        assert parse_half("2") == HalfInt(4)

    def test_parse_half_range_guard(self):
        with pytest.raises(ConfigError):
            parse_half("-1")
        with pytest.raises(ConfigError):
            parse_half("65")
        with pytest.raises(ConfigError):
            parse_half("x")

    def test_parse_half_errors_name_the_flag(self, capsys):
        with pytest.raises(ConfigError, match="^--j2: j = 65 outside"):
            parse_half("65", "--j2")
        assert run_main("verify", "--j-max", "300") == 2
        assert "error: --j-max: j = 300 outside" in capsys.readouterr().err
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "x") == 2
        assert "error: --j2: " in capsys.readouterr().err
        assert run_main("tabulate-standard", "--symbol", "sixj", "--labels", "1,1,1,1,1,-1") == 2
        assert "error: --labels: j = -1 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, message", [
        ("-1", "--seed: cannot parse '-1' as a non-negative integer"),
        ("1.5", "--seed: cannot parse '1.5'"),
        ("x", "--seed: cannot parse 'x'"),
    ])
    def test_bad_seed_exits_two_before_any_suite_runs(self, capsys, monkeypatch, seed, message):
        def no_suites(config):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "run_suites", no_suites)
        assert run_main("verify", "--j-max", "1/2", "--k", "2", "--seed", seed) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_parse_r_list(self):
        assert parse_r_list("0,0.37") == (0.0, 0.37)
        assert parse_r_list("1/4") == (0.25,)
        assert parse_r_list("2, 3/2 ,0.5") == (2.0, 1.5, 0.5)

    def test_parse_r_list_errors(self):
        with pytest.raises(ConfigError):
            parse_r_list("abc")
        with pytest.raises(ConfigError):
            parse_r_list("1/0")
        with pytest.raises(ConfigError):
            parse_r_list(",")
        for bad in ("nan", "inf", "-inf", "1e400", "0.5,nan"):
            with pytest.raises(ConfigError, match="--r"):
                parse_r_list(bad)

    def test_parse_r_list_refuses_a_repeat(self):
        with pytest.raises(ConfigError, match=r"^--r: '1/10' repeats '0.1', both r = 0.1$"):
            parse_r_list("0.1,1/10")
        with pytest.raises(ConfigError, match="'0.37' repeats '0.37'"):
            parse_r_list("0.37, -1.3, 0.37")
        assert parse_r_list("0.1,1/3,-0.1") == (0.1, 1 / 3, -0.1)

    @pytest.mark.parametrize("argv", [
        ["tabulate-cg", "--j1", "1/2", "--j2", "1/2"],
        ["tabulate-fbar", "--j1", "1/2", "--j2", "1/2", "--j3", "1"],
        ["tabulate-standard", "--symbol", "cg", "--j1", "1/2", "--j2", "1/2", "--j", "0"],
        ["export-ops", "--j", "1"],
        ["verify", "--j-max", "1/2", "--k", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("r_text", ["0.37,0.37", "0.1,-2,1/10"])
    def test_repeated_r_exits_two_before_any_work(self, argv, r_text, capsys, monkeypatch):
        forbid_work(monkeypatch)
        assert run_main(*argv, f"--r={r_text}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first, *_, last = r_text.split(",")
        assert f"error: --r: {last!r} repeats {first!r}" in captured.err

    def test_non_finite_r_exits_two_naming_the_flag(self, capsys):
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--r=0,nan") == 2
        err = capsys.readouterr().err
        assert "--r" in err and "'nan'" in err
        assert run_main("verify", "--j-max", "1/2", "--k", "2", "--r=1e400") == 2
        err = capsys.readouterr().err
        assert "--r" in err and "'1e400'" in err

    def test_parse_k_list(self):
        assert parse_k_list("2,4") == (2, 4)
        assert parse_k_list("2-5") == (2, 3, 4, 5)
        assert parse_k_list("2-3,7") == (2, 3, 7)

    def test_parse_k_list_errors(self):
        with pytest.raises(ConfigError):
            parse_k_list("1,3")  # k < 2
        with pytest.raises(ConfigError):
            parse_k_list("x")
        with pytest.raises(ConfigError):
            parse_k_list("")
        with pytest.raises(ConfigError, match="empty"):
            parse_k_list("5-3")

    @pytest.mark.parametrize("text, bad", [
        ("65", "65"), ("1", "1"), ("2-65", "65"), ("2-1000", "1000"), ("3,3", "3"),
    ])
    def test_bad_k_exits_two_naming_the_flag(self, capsys, text, bad):
        # the bounds are checked before a span is expanded, so 2-1000 fails at once
        assert run_main("verify", "--j-max", "1/2", "--k", text, "--r", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--k: {bad} " in captured.err

    def test_parse_k_list_accepts_max_k(self):
        assert parse_k_list("60-64") == (60, 61, 62, 63, 64)
        assert parse_k_list("2-64") == tuple(range(2, 65))

    def test_parse_tol(self):
        assert parse_tol("1e-9") == 1e-9
        with pytest.raises(ConfigError):
            parse_tol("0")
        with pytest.raises(ConfigError):
            parse_tol("-1")
        with pytest.raises(ConfigError):
            parse_tol("soft")
        # inf would pass every check, and 1e400 overflows to inf
        for text in ("inf", "1e400", "nan"):
            with pytest.raises(ConfigError, match="--tol"):
                parse_tol(text)

    def test_non_finite_tol_exits_two_naming_the_flag(self, capsys):
        assert run_main("verify", "--j-max", "1/2", "--k", "2", "--tol", "1e400") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err and "'1e400'" in captured.err

    def test_read_config_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# commented\nj1 = 1/2\n\nr = 0,0.37\n")
        assert read_config_file(str(cfg)) == {"j1": "1/2", "r": "0,0.37"}

    def test_read_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no separator here\n")
        with pytest.raises(ConfigError):
            read_config_file(str(bad))
        with pytest.raises(ConfigError):
            read_config_file(str(tmp_path / "missing.cfg"))


class TestTabulateCg:
    def test_spin_half_pair_has_sixteen_rows(self, capsys):
        payload = run_json(capsys, "tabulate-cg", "--j1", "1/2", "--j2", "1/2")
        assert payload["scheme"] == "nonstandard"
        assert payload["formula"] == "cg"
        assert payload["columns"][:3] == ["j1", "j2", "j"]
        # 2*2*1 rows into j=0 plus 2*2*3 into j=1
        assert len(payload["rows"]) == 16

    def test_contains_coupling_phase_value(self, capsys):
        payload = run_json(capsys, "tabulate-cg", "--j1", "1/2", "--j2", "1/2")
        target = 1.0 / math.sqrt(2.0)
        hits = [row for row in payload["rows"]
                if abs(row["value"][0]) < 1e-12 and abs(abs(row["value"][1]) - target) < 1e-12]
        assert hits, "expected a purely imaginary coupling of magnitude 1/sqrt2"

    def test_rows_are_sorted_by_labels(self, capsys):
        # at |r| = 1e20 every alpha of a block rounds to one float; such rows keep s order
        r_list = ["0.37", "-1.3", "1e20", "0", "-1e20", "-5/3"]
        jobs = [
            (["tabulate-cg", "--j1", "1", "--j2", "1/2"], r_list),
            (["tabulate-fbar", "--j1", "1/2", "--j2", "1", "--j3", "1/2"], r_list),
            # the m-scheme table does not depend on r: one block whatever --r says
            (["tabulate-standard", "--symbol", "cg", "--j1", "1", "--j2", "1/2",
              "--j", "3/2"], ["0"]),
        ]
        for argv, pieces in jobs:
            rows = run_json(capsys, *argv, "--r=" + ",".join(r_list))["rows"]
            # the rows of each r on its own, in input order, then a stable sort
            unsorted = [row for r in pieces
                        for row in run_json(capsys, *argv, f"--r={r}")["rows"]]
            assert rows == sorted(
                unsorted, key=lambda row: [Fraction(x) for x in row["labels"]])

    def test_rows_keep_s_order_where_alphas_round_together(self, capsys):
        # past 2^53 alpha1 = -r + s rounds s = 1 and 2 together while alpha2 stays exact;
        # the rows still come block by block in C order of (s1, s2, s)
        r = 2.0 ** 53 + 2
        rows = run_json(capsys, "tabulate-cg", "--j1", "1", "--j2", "1/2", f"--r={r!r}")["rows"]
        sp1, sp2 = SpinSpace(HalfInt(2), r), SpinSpace(HalfInt(1), r)
        tensors = [cg_nonstandard_tensor(sp1, sp2, SpinSpace(HalfInt(tj), r)) for tj in (1, 3)]
        assert [complex(*row["value"]) for row in rows] == np.concatenate(
            [t.ravel() for t in tensors]).tolist()
        alpha1 = [row["labels"][4] for row in rows[:12]]
        assert alpha1 == [repr(-r), repr(-r)] * 2 + [repr(-r + 2)] * 8

    def test_default_r_is_zero(self, capsys):
        payload = run_json(capsys, "tabulate-cg", "--j1", "1/2", "--j2", "1/2")
        assert {row["labels"][3] for row in payload["rows"]} == {"0.0"}

    def test_rational_r_flag(self, capsys):
        payload = run_json(capsys, "tabulate-cg", "--j1", "1/2", "--j2", "1/2",
                           "--r", "1/4")
        assert {row["labels"][3] for row in payload["rows"]} == {"0.25"}

    def test_csv_format(self, capsys):
        code = run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2",
                        "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        header = next(reader)
        assert header[-4:] == ["re", "im", "magnitude", "phase"]
        assert len(list(reader)) == 16

    def test_missing_labels_exit_two(self, capsys):
        assert run_main("tabulate-cg", "--j1", "1/2") == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_value_exits_two_and_writes_nothing(self, capsys, tmp_path,
                                                            monkeypatch):
        def nan_tensor(sp1, sp2, sp):
            return np.full((sp1.dim, sp2.dim, sp.dim), complex("nan"))

        monkeypatch.setattr(cli, "cg_nonstandard_tensor", nan_tensor)
        out = tmp_path / "table.json"
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2",
                        "--output", str(out)) == 2
        assert "symbol value must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        for fmt in ("json", "csv"):
            assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--format", fmt) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "symbol value must be finite" in captured.err

    def test_csv_signed_zero_has_zero_phase(self, capsys, monkeypatch):
        # atan2 would give -pi for -0.0 - 0.0j; a zero value keeps phase 0.0
        def negative_zero_tensor(sp1, sp2, sp):
            return np.full((sp1.dim, sp2.dim, sp.dim), complex(-0.0, -0.0))

        monkeypatch.setattr(cli, "cg_nonstandard_tensor", negative_zero_tensor)
        code = run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {(r["re"], r["im"], r["phase"]) for r in rows} == {("-0.0", "-0.0", "0.0")}


class TestTabulateFbar:
    def test_row_count(self, capsys):
        payload = run_json(capsys, "tabulate-fbar", "--j1", "1/2", "--j2", "1/2",
                           "--j3", "1")
        assert len(payload["rows"]) == 2 * 2 * 3
        assert payload["formula"] == "fbar"

    def test_two_windings_double_rows(self, capsys):
        payload = run_json(capsys, "tabulate-fbar", "--j1", "1/2", "--j2", "1/2",
                           "--j3", "1", "--r", "0,0.37")
        assert len(payload["rows"]) == 24


class TestTabulateStandard:
    def test_cg_table_with_exact_strings(self, capsys):
        payload = run_json(capsys, "tabulate-standard", "--symbol", "cg",
                           "--j1", "1/2", "--j2", "1/2", "--j", "0")
        assert len(payload["rows"]) == 4
        exacts = {tuple(r["labels"]): r.get("exact") for r in payload["rows"]}
        assert exacts[("1/2", "1/2", "0", "1/2", "-1/2", "0")] == "sqrt(1/2)"

    def test_threejm_table(self, capsys):
        payload = run_json(capsys, "tabulate-standard", "--symbol", "threejm",
                           "--j1", "1", "--j2", "1", "--j3", "1")
        assert len(payload["rows"]) == 27
        by_labels = {tuple(r["labels"]): r for r in payload["rows"]}
        row = by_labels[("1", "1", "1", "1", "-1", "0")]
        assert math.isclose(row["value"][0], math.sqrt(1.0 / 6.0), abs_tol=1e-13)
        assert row["exact"] == "sqrt(1/6)"

    def test_sixj_single_row(self, capsys):
        payload = run_json(capsys, "tabulate-standard", "--symbol", "sixj",
                           "--labels", "1/2,1/2,1,1/2,1/2,1")
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["exact"] == "1/6"

    def test_sixj_needs_six_labels(self, capsys):
        assert run_main("tabulate-standard", "--symbol", "sixj",
                        "--labels", "1,1,1") == 2

    def test_csv_exact_column(self, capsys):
        code = run_main("tabulate-standard", "--symbol", "sixj",
                        "--labels", "1/2,1/2,1,1/2,1/2,1", "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        header = next(reader)
        assert header[-1] == "exact"
        assert next(reader)[-1] == "1/6"

    def test_csv_zero_value_has_zero_phase(self, capsys):
        code = run_main("tabulate-standard", "--symbol", "cg", "--j1", "1/2",
                        "--j2", "1/2", "--j", "0", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        row = next(r for r in rows if (r["m1"], r["m2"], r["m"]) == ("1/2", "1/2", "0"))
        assert float(row["re"]) == 0.0 and row["exact"] == "0"
        assert row["magnitude"] == "0.0"
        assert row["phase"] == "0.0"

    def test_csv_phase_of_negative_value(self, capsys):
        code = run_main("tabulate-standard", "--symbol", "cg", "--j1", "1/2",
                        "--j2", "1/2", "--j", "0", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        row = next(r for r in rows if (r["m1"], r["m2"]) == ("-1/2", "1/2"))
        assert float(row["re"]) < 0
        assert float(row["phase"]) == math.pi


class TestExportOps:
    def test_payload_structure(self, capsys):
        payload = run_json(capsys, "export-ops", "--j", "1")
        assert len(payload["exports"]) == 1
        export = payload["exports"][0]
        assert export["j"] == "1"
        assert export["r"] == 0.0
        assert export["basis_m"] == ["-1", "0", "1"]
        assert export["alpha"] == [0.0, 1.0, 2.0]
        assert set(export["operators"]) == {"h", "u_r", "j_plus", "j_minus",
                                            "j3", "j_squared"}

    def test_shift_wrap_entry(self, capsys):
        # at r = 0 the wrap m = 1 -> m = -1 carries phase exactly 1
        payload = run_json(capsys, "export-ops", "--j", "1")
        u = payload["exports"][0]["operators"]["u_r"]
        assert u[0][2] == [1.0, 0.0]
        assert u[1][0] == [1.0, 0.0]
        assert u[2][1] == [1.0, 0.0]

    def test_winding_changes_wrap_only(self, capsys):
        payload = run_json(capsys, "export-ops", "--j", "1", "--r", "0.37")
        u = payload["exports"][0]["operators"]["u_r"]
        re, im = u[0][2]
        assert math.isclose(math.hypot(re, im), 1.0, abs_tol=1e-12)
        assert abs(im) > 0.1  # nontrivial phase
        assert u[1][0] == [1.0, 0.0]

    def test_csv_format(self, capsys):
        code = run_main("export-ops", "--j", "1/2", "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        assert next(reader) == ["j", "r", "operator", "row", "col",
                                "re", "im", "magnitude", "phase"]
        rows = list(reader)
        assert len(rows) == 6 * 2 * 2  # six operators, 2x2 each

    def test_missing_j_exits_two(self, capsys):
        assert run_main("export-ops") == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_entry_exits_two_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                           fmt):
        real_build = cli.build_spin_ops

        def nan_ops(space):
            ops = real_build(space)
            h = ops.h.copy()
            h[0, -1] = complex("nan")
            return dataclasses.replace(ops, h=h)

        monkeypatch.setattr(cli, "build_spin_ops", nan_ops)
        message = "error: export-ops --j 1 --r 0.37: operator h has a non-finite entry"
        assert run_main("export-ops", "--j", "1", "--r", "0.37", "--format", fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        out = tmp_path / "ops.out"
        assert run_main("export-ops", "--j", "1", "--r", "0.37", "--format", fmt,
                        "--output", str(out)) == 2
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code = run_main("verify", "--j-max", "1", "--k", "2-3",
                        "--r", "0,0.37", "--tol", "1e-9")
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["all_pass"] is True
        assert report["failed"] == 0
        assert report["total"] > 50
        assert "checks passed" in captured.err

    def test_report_echoes_configuration(self, capsys):
        run_main("verify", "--j-max", "1/2", "--k", "2", "--r", "0",
                 "--tol", "1e-9", "--seed", "11")
        report = json.loads(capsys.readouterr().out)
        assert set(report["config"]) == {"j_max", "r_values", "k_values",
                                         "tol_override", "seed"}
        assert report["config"]["seed"] == 11
        assert report["config"]["j_max"] == "1/2"
        assert report["config"]["r_values"] == [0.0]
        assert report["config"]["tol_override"] == 1e-9

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main("verify", "--j-max", "1/2", "--k", "2", "--threads", "2")
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_verify_config_fields(self):
        # the settable grid of the suites; a new knob must be added here on purpose
        assert [f.name for f in dataclasses.fields(VerifyConfig)] == [
            "j_max", "r_values", "k_values", "tol", "seed"]

    def test_impossible_tolerance_exits_one(self, capsys):
        code = run_main("verify", "--j-max", "1", "--k", "2", "--r", "0.37",
                        "--tol", "1e-300")
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["all_pass"] is False
        assert report["failed"] > 0

    def test_huge_winding_parameters_pass(self, capsys):
        # phases are reduced in exact turns, so every check passes at its default tolerance
        code = run_main("verify", "--j-max", "5", "--k", "2-6", "--r=1e6,1e12,123456789/7")
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["all_pass"] is True

    def test_k_up_to_max_k_passes(self, capsys):
        code = run_main("verify", "--j-max", "1", "--k", "60-64")
        captured = capsys.readouterr()
        assert code == 0, captured.err
        report = json.loads(captured.out)
        assert report["all_pass"] is True
        assert report["config"]["k_values"] == [60, 61, 62, 63, 64]

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = run_main("verify", "--j-max", "3/2", "--k", "2-3",
                            "--r", "0,0.37", "--output", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_report(self, capsys):
        code = run_main("verify", "--j-max", "1", "--k", "2", "--r", "0",
                        "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        assert next(reader) == ["check", "parameters", "residual", "tolerance", "pass"]
        assert len(list(reader)) > 20

    def test_check_entries_have_required_fields(self, capsys):
        run_main("verify", "--j-max", "1", "--k", "2", "--r", "0")
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            assert set(check) == {"check", "parameters", "residual", "tolerance", "pass"}
            assert isinstance(check["pass"], bool)
            assert check["residual"] >= 0.0


class TestConfigFile:
    def test_config_file_supplies_labels(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("j1 = 1/2\nj2 = 1/2\n")
        payload = run_json(capsys, "tabulate-cg", "--config", str(cfg))
        assert len(payload["rows"]) == 16

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("j1 = 1/2\nj2 = 1/2\nr = 0.37\n")
        payload = run_json(capsys, "tabulate-cg", "--config", str(cfg),
                           "--j1", "1", "--r", "0")
        assert {row["labels"][0] for row in payload["rows"]} == {"1"}
        assert {row["labels"][3] for row in payload["rows"]} == {"0.0"}

    def test_config_supports_verify_keys(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("j-max = 1\nk = 2\nr = 0\nseed = 5\n")
        code = run_main("verify", "--config", str(cfg))
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["config"]["seed"] == 5
        assert report["config"]["j_max"] == "1"

    def test_readme_sweep_file_serves_every_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep.cfg\nj-max = 3\nk = 2-6\nr = 0, 0.37, 1\nformat = csv\n")
        assert run_main("tabulate-cg", "--config", str(cfg),
                        "--j1", "1/2", "--j2", "1/2") == 0
        assert capsys.readouterr().out.startswith("j1,j2,")

    @pytest.mark.parametrize("line", ["j_max = 1", "threads = 2", "config = other.cfg",
                                      "help = 1"])
    def test_unknown_key_exits_two(self, capsys, tmp_path, line):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"k = 2\nr = 0\n{line}\n")
        assert run_main("verify", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        key = line.partition("=")[0].strip()
        assert f"{cfg}:3: unknown key {key!r}" in captured.err

    @pytest.mark.parametrize("line, flag", [("tol = 0", "--tol"), ("seed = -1", "--seed")],
                             ids=["tol", "seed"])
    def test_a_bad_value_for_another_subcommand_is_skipped(self, capsys, tmp_path, line, flag):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"{line}\n")
        for argv in (["tabulate-cg", "--j1", "1/2", "--j2", "1/2"], ["export-ops", "--j", "1"]):
            assert run_main(*argv, "--config", str(cfg)) == 0
            assert capsys.readouterr().err == ""
        # verify reads the key, so it still refuses the value and names the flag
        assert run_main("verify", "--j-max", "1/2", "--k", "2", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag}:" in captured.err

    def test_a_config_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"j1 = 1/2\xff\n")
        assert run_main("tabulate-cg", "--j2", "1/2", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cfg) in captured.err and "UTF-8" in captured.err
        with pytest.raises(ConfigError, match="latin1.cfg"):
            read_config_file(str(cfg))

    def test_duplicate_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("j1 = 1/2\nj2 = 1/2\nj1 = 1\n")
        assert run_main("tabulate-cg", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}:3: key 'j1' is already set on line 1" in captured.err


# megabytes of output each: a job is still writing when its reader goes away
LARGE_OUTPUT_JOBS = [
    ["tabulate-cg", "--j1", "4", "--j2", "4", "--format", "json"],
    ["tabulate-cg", "--j1", "4", "--j2", "4", "--format", "csv"],
    ["export-ops", "--j", "64"],  # the operator matrices, streamed row by row
]
LARGE_OUTPUT_IDS = ["json", "csv", "export-ops"]


class TestOutputFiles:
    def test_atomic_write_leaves_no_partials(self, tmp_path):
        out = tmp_path / "table.json"
        code = run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2",
                        "--output", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 16
        leftovers = [p for p in tmp_path.iterdir() if p.name != "table.json"]
        assert leftovers == []

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code = run_main("tabulate-standard", "--symbol", "sixj",
                        "--labels", "1/2,1/2,1,1/2,1/2,1", "--output", str(fifo))
        reader.join(timeout=60)
        assert code == 0
        assert json.loads(received[0])["rows"][0]["exact"] == "1/6"
        # still the FIFO, and no temp file left beside it
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("argv", LARGE_OUTPUT_JOBS, ids=LARGE_OUTPUT_IDS)
    def test_closed_fifo_exits_141_quietly(self, tmp_path, argv):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read_100_bytes_and_close():
            with open(fifo, "rb") as fh:
                received.append(fh.read(100))

        reader = threading.Thread(target=read_100_bytes_and_close, daemon=True)
        reader.start()
        proc = subprocess.run(
            [sys.executable, "-m", "wigner_nonstd.cli", *argv, "--output", str(fifo)],
            capture_output=True, timeout=120)
        reader.join(timeout=60)
        assert len(received[0]) == 100
        assert proc.stderr == b""
        assert proc.returncode == 141
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("target", ["missing/table.json", "."])
    def test_unwritable_output_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         target):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "_build_table", no_table)
        out = os.path.join(tmp_path, target)
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--output", out) == 2
        assert f"error: --output: {out!r} is not a file in an existing directory" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["", "newfile/", "afile/"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_output_naming_no_file_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                            target, via_config):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "_build_table", no_table)
        work = tmp_path / "work"
        work.mkdir()
        (work / "afile").write_text("kept\n")
        monkeypatch.chdir(work)
        argv = ["tabulate-cg", "--j1", "1/2", "--j2", "0"]
        if via_config:
            (tmp_path / "job.cfg").write_text(f"output = {target}\n")
            argv += ["--config", str(tmp_path / "job.cfg")]
        else:
            argv += ["--output", target]
        assert run_main(*argv) == 2
        err = capsys.readouterr().err
        assert f"error: --output: {target!r} is not a file in an existing directory" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in work.iterdir()) == ["afile"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["work"] + ["job.cfg"] * via_config)
        assert (work / "afile").read_text() == "kept\n"

    def test_output_mode_follows_umask_or_existing_file(self, tmp_path):
        argv = ["tabulate-standard", "--symbol", "sixj", "--labels", "1/2,1/2,1,1/2,1/2,1"]
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("stale\n")
        old.chmod(0o640)
        umask = os.umask(0o022)
        try:
            assert run_main(*argv, "--output", str(new)) == 0
            assert run_main(*argv, "--format", "csv", "--output", str(old)) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert old.read_text().startswith("j1,j2,")

    def test_failed_job_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = run_main("tabulate-cg", "--j1", "1/2", "--output", str(out))
        assert code == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


WRITER_JOBS = [
    ["tabulate-cg", "--j1", "1", "--j2", "1/2", "--r=0.37,-1.3"],
    ["tabulate-fbar", "--j1", "1/2", "--j2", "1", "--j3", "1/2", "--r=1/4"],
    ["tabulate-standard", "--symbol", "cg", "--j1", "1", "--j2", "1/2", "--j", "3/2"],
    ["tabulate-standard", "--symbol", "threejm", "--j1", "1", "--j2", "1", "--j3", "1"],
    ["tabulate-standard", "--symbol", "sixj", "--labels", "1/2,1/2,1,1/2,1/2,1"],
    ["export-ops", "--j", "3/2", "--r=0.37,0"],
    ["verify", "--j-max", "1/2", "--k", "2", "--r", "0"],
    # one block over cli._CHUNK_ROWS rows: 2,197 with an exact column, and 4,225 per operator
    ["tabulate-standard", "--symbol", "threejm", "--j1", "6", "--j2", "6", "--j3", "6"],
    ["export-ops", "--j", "32"],
    ["tabulate-cg", "--j1", "4", "--j2", "4", "--r=1/3,-5/7"],
    ["tabulate-fbar", "--j1", "2", "--j2", "3/2", "--j3", "3/2", "--r=1/3"],
    ["tabulate-standard", "--symbol", "threejm", "--j1", "2", "--j2", "3/2", "--j3", "5/2"],
    ["export-ops", "--j", "64", "--r=1/3"],
]

# jobs over cli.MAX_ROWS; they must never run for real, their tensors would take gigabytes
OVER_CAP_JOBS = [
    (["tabulate-cg", "--j1", "64", "--j2", "64"],
     "tabulate-cg --j1 64 --j2 64 --r (n = 1) would write 276,922,881 rows"),
    (["tabulate-fbar", "--j1", "64", "--j2", "64", "--j3", "64"],
     "tabulate-fbar --j1 64 --j2 64 --j3 64 --r (n = 1) would write 2,146,689 rows"),
    (["tabulate-standard", "--symbol", "threejm", "--j1", "64", "--j2", "64", "--j3", "64"],
     "tabulate-standard --symbol threejm --j1 64 --j2 64 --j3 64 would write 2,146,689 rows"),
    (["tabulate-standard", "--symbol", "cg", "--j1", "64", "--j2", "64", "--j", "64"],
     "tabulate-standard --symbol cg --j1 64 --j2 64 --j 64 would write 2,146,689 rows"),
    (["tabulate-cg", "--j1", "10", "--j2", "10", "--r=0,1,2"],
     "tabulate-cg --j1 10 --j2 10 --r (n = 3) would write 583,443 rows"),
    (["export-ops", "--j", "64", "--r=0,1,2,3,4,5"],
     "export-ops --j 64 --r (n = 6) would write 599,076 rows"),
]


def no_work(*args, **kwargs):
    raise AssertionError("a tensor or operator was built")


def forbid_work(monkeypatch):
    for name in ("SpinSpace", "cg_nonstandard_tensor", "fbar_tensor", "symbol_table",
                 "sixj", "build_spin_ops", "run_suites"):
        monkeypatch.setattr(cli, name, no_work)


def block_rows(block):
    """The rows of a table block as the dicts the JSON writer spells out."""
    for labels, value, text in zip(itertools.product(*block.axes), block.values.ravel().tolist(),
                                   block.exact or itertools.repeat(None)):
        row = {"labels": [*block.fixed, *labels], "value": [float(value.real), float(value.imag)]}
        if text is not None:
            row["exact"] = text
        yield row


def complex_cells(value):
    """re, im, magnitude and phase cells, spelled one value at a time; a zero value has phase 0.0."""
    return [repr(value.real), repr(value.imag), repr(abs(value)),
            repr(math.atan2(value.imag, value.real) if value else 0.0)]


def csv_reference_rows(command, document):
    """The CSV rows of a command's document as lists of cells, for csv.writer."""
    if command == "export-ops":
        yield ["j", "r", "operator", "row", "col", "re", "im", "magnitude", "phase"]
        for export in document["exports"]:
            for name, entries in sorted(export["operators"].items()):
                for i, row in enumerate(entries.tolist()):
                    for k, value in enumerate(row):
                        yield [export["j"], repr(export["r"]), name, i, k, *complex_cells(value)]
    elif command == "verify":
        yield ["check", "parameters", "residual", "tolerance", "pass"]
        for check in document["checks"]:
            yield [check["check"], json.dumps(check["parameters"]),
                   repr(check["residual"]), repr(check["tolerance"]), check["pass"]]
    else:
        blocks = document["rows"]
        yield document["columns"] + ["re", "im", "magnitude", "phase"] + (
            ["exact"] if blocks[0].exact else [])
        for block in blocks:
            for labels, value, text in zip(itertools.product(*block.axes),
                                           block.values.ravel().tolist(),
                                           block.exact or itertools.repeat(None)):
                yield [*block.fixed, *labels, *complex_cells(value),
                       *([text] if text is not None else [])]


def plain(document):
    """A document with its arrays and table blocks turned into lists and dicts, for json.dumps."""
    if isinstance(document, dict):
        return {key: plain(value) for key, value in document.items()}
    if isinstance(document, np.ndarray):
        return np.stack([document.real, document.imag], axis=-1).tolist()
    if isinstance(document, (list, tuple)):
        return [row for item in document
                for row in (block_rows(item) if isinstance(item, cli._Block) else [plain(item)])]
    return document


class TestStreamedWriter:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", WRITER_JOBS, ids=lambda argv: " ".join(argv[:3]))
    def test_bytes_equal_the_whole_string_formula(self, argv, fmt, tmp_path, capsys,
                                                  monkeypatch):
        # record each document as its command builds it, then rebuild the output the
        # way it was built before the templates: one string from json.dumps, with the
        # arrays and table blocks spelled out as lists and row dicts, or csv.writer
        # over rows expanded one cell at a time; the other format's document is the same
        documents = []

        def recording(builder):
            def record(*args):
                documents.append(builder(*args))
                return documents[-1]
            return record

        for name in ("_build_table", "_export_ops_payload", "report_dict"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        out = tmp_path / "out"
        assert run_main(*argv, "--format", fmt, "--output", str(out)) == 0
        assert run_main(*argv, "--format", fmt) == 0
        stdout = capsys.readouterr().out
        monkeypatch.setattr(cli, "emit", lambda chunks, path: None)
        assert run_main(*argv, "--format", "csv" if fmt == "json" else "json") == 0
        to_file, to_stdout, other_format = documents
        assert plain(to_file) == plain(to_stdout) == plain(other_format)
        if fmt == "json":
            reference = json.dumps(plain(to_file), indent=2) + "\n"
        else:
            buf = io.StringIO()
            csv.writer(buf).writerows(csv_reference_rows(argv[0], to_file))
            reference = buf.getvalue()
            assert reference.endswith("\r\n")
        assert out.read_bytes() == reference.encode("utf-8")
        assert stdout == reference
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("argv", [
        ["tabulate-standard", "--symbol", "sixj", "--labels", "3/2,1,5/2,2,3/2,1"],  # no axes
        ["export-ops", "--j", "0"],
        ["tabulate-cg", "--j1", "2", "--j2", "3/2", "--r=1e20,-1e20,123456789/7,-5/3"],
        ["tabulate-standard", "--symbol", "threejm", "--j1", "1", "--j2", "3/2", "--j3", "1/2"],
        ["verify", "--j-max", "1/2", "--k", "2", "--r", "0"],
        ["export-ops", "--j", "64", "--r=1/3,-5/7"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_json_layout_is_json_dumps_indent_two(self, argv, capsys):
        assert run_main(*argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_negative_zero_keeps_its_sign(self, capsys, monkeypatch):
        def negative_zero_tensor(sp1, sp2, sp):
            return np.full((sp1.dim, sp2.dim, sp.dim), complex(-0.0, -0.0))

        monkeypatch.setattr(cli, "cg_nonstandard_tensor", negative_zero_tensor)
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2") == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert {tuple(map(repr, row["value"])) for row in json.loads(out)["rows"]} == {
            ("-0.0", "-0.0")}

    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (5, 1)])
    def test_array_text_is_json_dumps_at_its_level(self, shape, level):
        # signed zeros in either part mixed with nonzeros, at seeded positions
        parts = [0.0, -0.0, 1.5, -2.25e-300, 1 / 3]
        rng = np.random.default_rng(sum(shape) + level)
        values = np.array([complex(rng.choice(parts), rng.choice(parts))
                           for _ in range(math.prod(shape))]).reshape(shape)
        values[(0,) * len(shape)] = complex(0.0, 0.0)
        values[(-1,) * len(shape)] = complex(-0.0, 0.0)
        values.flat[1] = complex(0.0, -0.0)
        chunks = list(cli._array_text(values, level))
        reference = json.dumps(plain(values), indent=2).replace("\n", "\n" + "  " * level)
        assert "".join(chunks) == reference
        # one chunk per row, then the closing bracket
        assert len(chunks) == shape[0] + 1

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 2)])
    def test_array_text_takes_only_a_matrix(self, shape):
        with pytest.raises(TypeError, match="not JSON serializable"):
            list(cli._array_text(np.zeros(shape, dtype=complex), 0))

    def test_export_ops_negative_zero_keeps_its_sign(self, capsys, monkeypatch):
        signed = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0)]
        real_build = cli.build_spin_ops

        def with_negative_zeros(space):
            ops = real_build(space)
            h = np.array(ops.h, dtype=complex)
            h.flat[:4] = signed
            return dataclasses.replace(ops, h=h)

        monkeypatch.setattr(cli, "build_spin_ops", with_negative_zeros)
        assert run_main("export-ops", "--j", "3/2") == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        (export,) = json.loads(out)["exports"]
        pairs = [tuple(map(repr, pair)) for row in export["operators"]["h"] for pair in row]
        assert pairs[:4] == [("-0.0", "0.0"), ("0.0", "-0.0"), ("-0.0", "-0.0"), ("0.0", "0.0")]

    def test_csv_zero_value_has_phase_zero_and_keeps_its_signs(self, capsys, monkeypatch):
        def negative_zero_tensor(sp1, sp2, sp):
            return np.full((sp1.dim, sp2.dim, sp.dim), complex(-0.0, -0.0))

        monkeypatch.setattr(cli, "cg_nonstandard_tensor", negative_zero_tensor)
        assert run_main("tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--format", "csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        # atan2(-0.0, -0.0) is -pi; a zero value is written with phase 0.0
        assert {tuple(row[-4:]) for row in rows[1:]} == {("-0.0", "-0.0", "0.0", "0.0")}

    def test_csv_table_rows_are_generated_lazily(self):
        config = cli.JobConfig(command="tabulate-cg", j1=HalfInt(1), j2=HalfInt(1))
        chunks = cli._table_csv(cli._build_table(config))
        assert not isinstance(chunks, (list, tuple, str))
        assert next(chunks) == "j1,j2,j,r,alpha1,alpha2,alpha,re,im,magnitude,phase\r\n"
        # then one chunk per block of 2 x 2 x (2j + 1) rows (j1 = j2 = 1/2), the first at j = 0
        assert next(chunks).count("\r\n") == 4

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failure_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch, fmt):
        # both writers fail after the first operator matrix has been written
        real_array_text, real_csv, written = cli._array_text, cli._export_ops_csv, []

        def failing_array_text(values, level):
            if written:
                raise ValueError("matrix writer failed")
            written.append("".join(real_array_text(values, level)))
            return written[-1]

        def failing_csv(payload):
            chunks = real_csv(payload)
            yield next(chunks)  # the header
            written.append(next(chunks))
            yield written[-1]
            raise ValueError("matrix writer failed")

        monkeypatch.setattr(cli, "_array_text", failing_array_text)
        monkeypatch.setattr(cli, "_export_ops_csv", failing_csv)
        out = tmp_path / "ops.out"
        assert run_main("export-ops", "--j", "3/2", "--format", fmt, "--output", str(out)) == 2
        assert "matrix writer failed" in capsys.readouterr().err
        assert len(written) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", [
        "a,b", 'say "hi"', "a\rb", "a\nb", " leading space", "tab\there", "%s", "ĵ₁ = ½ · α",
        json.dumps({"j1": "1/2", "j2": "3/2", "r": -1.3, "k": [2, 3]}),  # a verify parameters cell
    ])
    def test_csv_quote_is_csv_writers_cell(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "x"])
        assert cli._csv_quote(text) + ",x\r\n" == buf.getvalue()

    def test_numpy_hypot_is_abs_complex_bit_for_bit(self):
        # the CSV magnitude column is np.hypot over a block; it must spell abs(complex) exactly
        ops = build_spin_ops(SpinSpace(HalfInt(128), 1 / 3))  # the six export-ops --j 64 matrices
        values = [ops.h, ops.u_r, ops.j_plus, ops.j_minus, ops.j3, ops.j_squared]
        for r in (0.0, 0.37, -5 / 3):
            for tj1, tj2 in [(1, 1), (2, 3), (4, 4), (3, 8), (8, 8)]:
                for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    values.append(cg_nonstandard_tensor(
                        SpinSpace(HalfInt(tj1), r), SpinSpace(HalfInt(tj2), r),
                        SpinSpace(HalfInt(tj), r)))
        for z in values:
            z = np.asarray(z, dtype=complex).ravel()
            reference = np.array([abs(value) for value in z.tolist()])
            assert np.array_equal(np.hypot(z.real, z.imag).view(np.uint64),
                                  reference.view(np.uint64))

    @pytest.mark.parametrize("argv, message", OVER_CAP_JOBS,
                             ids=[" ".join(argv) for argv, _ in OVER_CAP_JOBS])
    def test_job_over_row_cap_exits_two_before_any_work(self, argv, message, tmp_path, capsys,
                                                         monkeypatch):
        forbid_work(monkeypatch)
        assert run_main(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}, over the row cap of {cli.MAX_ROWS:,}" in captured.err
        assert run_main(*argv, "--format", "csv", "--output", str(tmp_path / "t.csv")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, r, j", [
        (["tabulate-cg", "--j1", "64", "--j2", "0", "--format", "csv"], 1e307, "64"),
        (["tabulate-cg", "--j1", "64", "--j2", "1"], 2.79e306, "65"),
        (["tabulate-fbar", "--j1", "1", "--j2", "64", "--j3", "63"], 1e307, "64"),
        (["export-ops", "--j", "64"], 1e307, "64"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
    def test_overflowing_alpha_label_exits_two_before_any_work(self, argv, r, j, capsys,
                                                               monkeypatch):
        # r = 0 comes first, so a late refusal would have built its tensors or operators
        for name in ("cg_nonstandard_tensor", "fbar_tensor", "build_spin_ops"):
            monkeypatch.setattr(cli, name, no_work)
        assert run_main(*argv, f"--r=0,{r!r}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --r: r = {r!r} makes the alpha labels of j = {j} overflow" in captured.err

    def test_largest_finite_alpha_labels_are_written(self, capsys):
        # 64 * 2.8e306 is below the largest float, so every label is finite and printed
        payload = run_json(capsys, "export-ops", "--j", "64", "--r=2.8e306")
        alphas = payload["exports"][0]["alpha"]
        assert len(alphas) == 129 and all(math.isfinite(alpha) for alpha in alphas)
        assert alphas[0] == -(64 * 2.8e306)

    def test_row_cap_admits_the_baseline_jobs(self, capsys, monkeypatch):
        # rows are counted from the blocks that would be written, not formatted
        build_table = cli._build_table

        def row_count(config):
            return {"rows": sum(block.values.size for block in build_table(config)["rows"])}

        monkeypatch.setattr(cli, "_build_table", row_count)
        monkeypatch.setattr(cli, "cg_nonstandard_tensor",
                            lambda sp1, sp2, sp: np.zeros((sp1.dim, sp2.dim, sp.dim)))
        monkeypatch.setattr(cli, "symbol_table", lambda symbol, *spins: (
            np.zeros([spin.twice + 1 for spin in spins]), ()))
        assert run_json(capsys, "tabulate-cg", "--j1", "10", "--j2", "10")["rows"] == 194_481
        assert run_json(capsys, "tabulate-standard", "--symbol", "threejm", "--j1", "32",
                        "--j2", "32", "--j3", "32")["rows"] == 274_625

    @pytest.mark.parametrize("argv", [
        ["tabulate-cg", "--j1", "64", "--j2", "64"],  # over the row cap
        ["tabulate-cg", "--j1", "1/2", "--j2", "1/2", "--r=0,nan"],  # non-finite r
        ["tabulate-cg", "--j1", "1/2"],  # missing flag
        ["export-ops"],
        ["tabulate-standard", "--symbol", "sixj", "--labels", "1,1,1"],
        ["verify", "--j-max", "1/2", "--k", "2", "--tol", "1e400"],
    ], ids=" ".join)
    def test_refused_job_prints_nothing_to_stdout(self, argv, capsys, monkeypatch):
        forbid_work(monkeypatch)
        assert run_main(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


# sha256 of the exact-layer tables; their values come from integer arithmetic and
# correctly rounded sqrt only, so the bytes are the same on every platform
EXACT_TABLE_DIGESTS = [
    (["tabulate-standard", "--symbol", "cg", "--j1", "3/2", "--j2", "1", "--j", "3/2"],
     "abbb2f53fc4ba04fe34b251e0983f3d0e28ace74e670b6fded3bda360428b71a",
     "034a5161f991b794b5473234861da10d88f81e604b015b15e66db41a9f1ad6a2"),
    (["tabulate-standard", "--symbol", "threejm", "--j1", "2", "--j2", "3/2", "--j3", "5/2"],
     "8709e0379ad4698482b379b00a1aa4f5bc1b07bdb55d763f7e34f424e9b8ac32",
     "2b559e6f4d2df6cf09f1bd94bbee04b7425386f4c1621f6192f67a7ec3061100"),
    (["tabulate-standard", "--symbol", "sixj", "--labels", "3/2,1,5/2,2,3/2,1"],
     "be804d0ed4e9cf4e289b8f40f01d0eb952580a14d97a00978625e732c52d165f",
     "7dea3a0ee08ae4b49f4b8db72e5cd5ff2b12b660988021f28cd8c1faeba29345"),
]


@pytest.mark.parametrize("argv, json_digest, csv_digest", EXACT_TABLE_DIGESTS,
                         ids=[argv[2] for argv, *_ in EXACT_TABLE_DIGESTS])
def test_exact_table_bytes_are_pinned(argv, json_digest, csv_digest, capsys):
    for fmt, digest in (("json", json_digest), ("csv", csv_digest)):
        assert run_main(*argv, "--format", fmt) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# the peak RSS that os.wait4 reports for a child includes the high-water mark of
# the process that started it, so a small fresh process starts the job, not pytest
RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv, program=("-m", "wigner_nonstd.cli")):
    """Peak RSS of one fresh Python process: a CLI job, or the program that the flags give."""
    proc = subprocess.run([sys.executable, "-c", RSS_LAUNCHER, sys.executable, *program, *argv],
                          capture_output=True, text=True, check=True, timeout=300)
    code, max_rss = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return max_rss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def test_csv_table_memory_does_not_grow_with_rows():
    # 81 rows against 83,521: the CSV rows stream, so the peaks differ by little
    small = peak_rss_mb("tabulate-cg", "--j1", "1", "--j2", "1", "--format", "csv")
    large = peak_rss_mb("tabulate-cg", "--j1", "8", "--j2", "8", "--format", "csv")
    assert large - small < 15, (small, large)


def test_json_table_memory_does_not_grow_with_rows():
    # the JSON rows are written block by block from templates, never held as a list
    small = peak_rss_mb("tabulate-cg", "--j1", "1", "--j2", "1", "--format", "json")
    large = peak_rss_mb("tabulate-cg", "--j1", "8", "--j2", "8", "--format", "json")
    assert large - small < 15, (small, large)


def test_export_ops_memory_does_not_grow_with_its_matrices():
    # each operator matrix is written one row at a time, never held as one string
    small = peak_rss_mb("export-ops", "--j", "1")
    large = peak_rss_mb("export-ops", "--j", "64", "--r=1/3,-5/7")
    assert large - small < 6, (small, large)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wigner_nonstd.cli", "tabulate-standard",
             "--symbol", "sixj", "--labels", "1/2,1/2,1,1/2,1/2,1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["rows"][0]["exact"] == "1/6"

    @pytest.mark.parametrize("argv", LARGE_OUTPUT_JOBS, ids=LARGE_OUTPUT_IDS)
    def test_closed_stdout_exits_141_quietly(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "wigner_nonstd.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert err == b""
        assert proc.returncode == 141

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, to_stdout", [
        (["export-ops", "--j", "1"], True),
        (["verify", "--j-max", "0", "--k", "2", "--output", "/dev/full"], False),
    ], ids=["stdout", "output"])
    def test_failed_write_exits_74_with_one_line(self, argv, to_stdout):
        # a full device: the write fails, which is neither a bad argument nor a failed check
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "wigner_nonstd.cli", *argv],
                                  stdout=full if to_stdout else subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        target = "stdout" if to_stdout else "/dev/full"
        assert proc.returncode == 74, proc.stderr
        assert proc.stderr.splitlines() == [f"error: cannot write {target}: "
                                            f"{os.strerror(errno.ENOSPC)}"]

    def test_failed_write_to_a_regular_file_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def full_after_one_chunk(document, level):
            yield "{"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_json_chunks", full_after_one_chunk)
        target = tmp_path / "ops.json"
        with pytest.raises(SystemExit) as exit_info:
            run_main("export-ops", "--j", "1", "--output", str(target))
        assert exit_info.value.code == 74
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, seconds", [
        # a 2j = 128 leg contracted through the three-matmul path
        (["tabulate-cg", "--j1", "64", "--j2", "1/2", "--r=0.37"], 60),
        (["tabulate-fbar", "--j1", "64", "--j2", "64", "--j3", "0", "--r=-5/3"], 60),
        # one binomial sum per triad: seconds, not minutes
        (["tabulate-standard", "--symbol", "threejm", "--j1", "32", "--j2", "32", "--j3", "32"],
         20),
    ], ids=["tabulate-cg", "tabulate-fbar", "tabulate-standard"])
    def test_jobs_at_the_advertised_limits_finish_in_time(self, argv, seconds):
        proc = subprocess.run([sys.executable, "-m", "wigner_nonstd.cli", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=seconds)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "--j-max", "2", "--k", "2-8"],
        ["tabulate-cg", "--j1", "1", "--j2", "3/2", "--r=0,1/3", "--format", "csv"],
    ], ids=lambda argv: argv[0])
    def test_output_bytes_do_not_depend_on_the_hash_seed(self, argv):
        # each run in one process has one hash seed; fresh processes under two seeds
        outputs = [subprocess.run([sys.executable, "-m", "wigner_nonstd.cli", *argv],
                                  capture_output=True, check=True, timeout=120,
                                  env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                   for seed in ("1", "2")]
        assert outputs[0] == outputs[1]

    def test_bad_flag_value_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wigner_nonstd.cli", "verify",
             "--j-max", "banana"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "error" in proc.stderr
