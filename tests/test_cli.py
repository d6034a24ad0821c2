"""End-to-end tests of the command-line surface and its artifacts."""

import hashlib
import json
import math
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from modlab import cli
from modlab.cli import (
    COMMON_KEYS,
    SCHEMAS,
    main,
    parse_config_file,
    parse_schedule,
    resolve_params,
)
from modlab.errors import (
    ConfigError,
    DimensionMismatch,
    DimensionTooSmall,
    FlowSingularity,
    GeometryViolation,
    MassNotZero,
    ParameterViolation,
    QuadratureBudgetExceeded,
    ScheduleViolation,
    TruncationBudgetExceeded,
)

SCHEDULE = "1e-2:1.8:40;3e-3:1.6:100;1e-3:1.5:200"


def run(args):
    return main(list(args))


class TestConfigHandling:
    def test_limit_prints_value(self, capsys):
        assert run(["cutoff", "limit", "--s", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1.442695")
        # (s+1)/(s-1) rounds to 1 here; 1/log1p(2/(s-1)) does not
        assert run(["cutoff", "limit", "s=1e17"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(5e16, rel=1e-12)

    def test_unknown_key_rejected(self, capsys):
        assert run(["cutoff", "limit", "bogus=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_unknown_action_rejected(self, capsys):
        assert run(["cutoff", "explode"]) == 2
        assert capsys.readouterr().err == ("configuration error: unknown action 'explode' "
                                           "for cutoff; expected one of "
                                           "['energy', 'limit', 'minimize']\n")

    def test_out_of_range_rejected(self, capsys):
        for argv in (["cutoff", "limit", "--s", "0.5"],
                     ["cutoff", "limit", "--s", "inf"],
                     ["scalar", "flow", "s=nan"],
                     ["scalar", "flow", "point=nan,0.5"],
                     ["scalar", "flow", "point=a,0.5"],
                     ["scalar", "sweep", "schedule=1e-2:1.0:40"],
                     ["scalar", "sweep", "schedule=1e-2:1.8:2"],
                     ["scalar", "sweep", "schedule=1e-3:1.8:40;1e-2:1.6:100"],
                     ["scalar", "sweep", "schedule=0:1.8:40"],
                     ["scalar", "sweep", "schedule=1e-2:1.8:nan"],
                     ["signalling", "check", "--n", "3", "--d1", "4"],
                     ["signalling", "check", "--n", "3", "--d2", "8"],
                     ["signalling", "factorize", "--n", "3", "--outer_dim", "4"],
                     ["signalling", "factorize", "--n", "3", "--middle_dim", "8"],
                     ["signalling", "gap", "--d_factor", "8"],
                     ["signalling", "gap", "--d_factor", "25"],
                     ["scalar", "bound", "geometry=cone", "d=3", "epsilon=0.6"],
                     ["scalar", "bound", "geometry=cone", "d=3", "epsilon=0.5"],
                     ["scalar", "sweep", "geometry=cone", "d=3", "schedule=0.6:1.8:40"],
                     ["scalar", "sweep", "geometry=cone", "d=3",
                      "schedule=0.6:1.8:40;1e-2:1.6:100"],
                     ["scalar", "exact", "geometry=cone", "d=3", "mass=1"],
                     ["scalar", "bound", "geometry=cone", "d=3", "mass=1"],
                     ["scalar", "sweep", "geometry=cone", "d=3", "mass=1"],
                     ["fock", "suite", "--cutoff", "6"],
                     # the suite's fixed weyl_relation gate fails below cutoff 11
                     ["fock", "suite", "--cutoff", "10"],
                     # the suite runs on two modes, with no key to choose them
                     ["fock", "suite", "modes=2"],
                     ["fock", "suite", "modes=3"],
                     ["signalling", "check", "--d1", "64", "--d2", "128"],
                     # eta_{s,t} needs t >= s/(s-1) = 101 at s = 1.01
                     ["scalar", "bound", "s=1.01", "t=2"],
                     ["cutoff", "energy", "s=1.01", "t=2"],
                     # cosh overflows past |s| = 710.4 and m^2 past m = 1.3e154
                     ["scalar", "flow", "s=-800"],
                     ["scalar", "flow", "s=701"],
                     ["scalar", "exact", "mass=1e160"],
                     ["scalar", "sweep", "mass=1e101"],
                     # r^2 overflows past r = 1.3e154 and 1/(2r) below 2.8e-309
                     *(["scalar", action, "geometry=cone", "d=3", f"r={r}"]
                       for action in ("exact", "bound", "sweep") for r in ("1e155", "1e-310")),
                     # outside the double cone N reaches 0 at finite s, and a
                     # huge point overflows its image
                     ["scalar", "flow", "geometry=cone", "point=0.3,2.0", "s=50"],
                     ["scalar", "flow", "point=1e300,1e300", "s=50"],
                     # the discrete minimizer allocates O(n_grid) arrays, the
                     # factorization n dense dim^2 shifts and an outer^2 middle space
                     ["cutoff", "minimize", "n_grid=1000001"],
                     ["signalling", "factorize", "outer_dim=4", "middle_dim=1025"],
                     ["signalling", "factorize", "outer_dim=33", "middle_dim=1024"],
                     # rules only the library enforces
                     ["scalar", "bound", "s=1"],
                     ["scalar", "bound", "t=-200"],
                     ["scalar", "bound", "epsilon=0"],
                     ["scalar", "bound", "epsilon=-0.01"],
                     ["cutoff", "energy", "s=0.5"],
                     ["cutoff", "energy", "t=0"],
                     ["cutoff", "limit", "s=1"],
                     ["signalling", "gap", "epsilon=0"],
                     ["signalling", "gap", "epsilon=0.06"],
                     ["signalling", "check", "n=0"],
                     ["signalling", "factorize", "n=0"],
                     ["cutoff", "minimize", "n_grid=2"],
                     ["cutoff", "minimize", "n_grid=-5"]):
            assert run(argv) == 2, argv
            assert capsys.readouterr().out == ""

    def test_d_factor_cap(self):
        # 256 takes about 2 s; larger factors are refused before anything is built
        assert resolve_params("signalling", "gap", {"d_factor": "256"})["d_factor"] == 256
        for value in ("257", "100000"):
            with pytest.raises(ConfigError):
                resolve_params("signalling", "gap", {"d_factor": value})

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\ns = 2.0\n")
        assert run(["cutoff", "limit", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out.strip()
        assert float(first) == pytest.approx(1.0 / __import__("math").log(3.0))
        assert run(["cutoff", "limit", "--config", str(cfg), "s=3"]) == 0
        second = capsys.readouterr().out.strip()
        assert second.startswith("1.442695")
        assert run(["cutoff", "limit", "--config", str(cfg), "--s=3", "--seed=5"]) == 0
        assert capsys.readouterr().out.strip() == second

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run(["cutoff", "limit", "--config", str(cfg)]) == 2

    def test_parse_schedule(self):
        sched = parse_schedule(SCHEDULE)
        assert sched[0] == (1e-2, 1.8, 40.0)
        with pytest.raises(ConfigError):
            parse_schedule("1:2")

    def test_resolve_defaults(self):
        params = resolve_params("cutoff", "limit", {})
        assert params["s"] == 3.0 and params["seed"] == 0

    def test_every_schema_default_passes_its_check(self):
        for group, action in SCHEMAS:
            params = resolve_params(group, action, {})
            schema = {**SCHEMAS[(group, action)], **COMMON_KEYS}
            assert params.keys() == schema.keys()
            for key, (_, check, default) in schema.items():
                assert params[key] == default and check(default), (group, action, key)

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a = 1 # trailing comment\n\nb=two\n")
        assert parse_config_file(str(cfg)) == {"a": "1", "b": "two"}


class TestCommandLine:
    def test_settings_anywhere_write_identical_bytes(self, tmp_path, capsys):
        # the two bare words may stand anywhere; --out is a setting in each spelling
        spellings = [
            lambda d: ["cutoff", "minimize", "--n_grid", "100", "--seed", "3", "--out", d],
            lambda d: ["--n_grid=100", "cutoff", f"--out={d}", "minimize", "seed=3"],
            lambda d: [f"out={d}", "seed=3", "cutoff", "n_grid=100", "minimize"],
            lambda d: ["--out", d, "--seed=3", "n_grid=100", "cutoff", "minimize"],
        ]
        written, printed = [], []
        for k, argv in enumerate(spellings):
            out = tmp_path / str(k)
            assert run(argv(str(out))) == 0
            printed.append(capsys.readouterr().out)
            written.append([(out / name).read_bytes()
                            for name in ("results.csv", "summary.json", "plot.txt")])
        assert all(files == written[0] for files in written)
        assert all(text == printed[0] for text in printed)

    @pytest.mark.parametrize("argv", [[], ["cutoff"], ["bogus", "run"], ["--s", "3", "fock"]])
    def test_usage_on_malformed_invocation(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: modlab GROUP ACTION")
        for group, action in SCHEMAS:
            assert f"{group} {action}" in captured.err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cutoff", "limit", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == cli.USAGE + "\n"

    def test_unusable_out_refused_before_computing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "cmd_cutoff", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        for out in (blocker, blocker / "x"):
            assert run(["cutoff", "limit", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "cannot write artifacts" in captured.err
        # a flag that swallows --out is missing its value; no directory is made
        assert run(["cutoff", "limit", "--s", "--out", str(tmp_path / "d")]) == 2
        assert "flag --s is missing a value" in capsys.readouterr().err
        # out and config are command-line settings only; a config file may not set them
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {tmp_path / 'd'}\n")
        assert run(["cutoff", "limit", "--config", str(cfg)]) == 2
        assert "unknown parameter 'out'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "out.cfg"]
        assert blocker.read_text() == "x"


class TestSweepArtifacts:
    def test_sweep_outputs_and_monotone_gap(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["scalar", "sweep", "--out", str(out),
                    f"schedule={SCHEDULE}"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "epsilon,s,t,H_minus,H_exact,H_plus,gap,quad_err"
        gaps = [float(line.split(",")[6]) for line in lines[1:]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ordering_ok"] is True
        assert "gap_slope" in summary
        assert (out / "plot.txt").read_text().startswith("# column-indexed")

    def test_no_gap_line_through_one_epsilon(self, tmp_path, recwarn):
        # a squeezing schedule may repeat epsilon; a line through one abscissa
        # was an arbitrary least-squares pick, with a RankWarning
        out = tmp_path / "same"
        assert run(["scalar", "sweep", "--out", str(out),
                    "schedule=1e-2:1.8:40;1e-2:1.6:100"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["entries"] == 2 and "gap_slope" not in summary
        assert not recwarn.list

    def test_empty_schedule_header_only(self, tmp_path):
        out = tmp_path / "empty"
        assert run(["scalar", "sweep", "--out", str(out), "schedule="]) == 0
        content = (out / "results.csv").read_text()
        assert content == "epsilon,s,t,H_minus,H_exact,H_plus,gap,quad_err\n"

    def test_reruns_are_byte_identical(self, tmp_path):
        for k, argv in enumerate((["scalar", "sweep", "--seed", "3", f"schedule={SCHEDULE}"],
                                  ["findim", "suite", "trials=5"],
                                  ["fock", "suite"],
                                  ["signalling", "check"],
                                  ["signalling", "gap", "samples=5"],
                                  ["signalling", "factorize"])):
            out_a, out_b = tmp_path / f"{k}a", tmp_path / f"{k}b"
            for out in (out_a, out_b):
                assert run(argv + ["--out", str(out)]) == 0
            for name in ("results.csv", "summary.json", "plot.txt"):
                if (out_a / name).exists() or (out_b / name).exists():
                    assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                        (argv, name)

    def test_manifest_digests(self, tmp_path):
        out = tmp_path / "m"
        assert run(["scalar", "sweep", "--out", str(out),
                    f"schedule={SCHEDULE}"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {e["file"] for e in manifest["files"]}
        assert {"results.csv", "summary.json", "plot.txt"} <= names
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        # a sweep leaves plot.txt behind; the exact entropy written after it
        # into the same directory emits no plot, so its manifest names none
        out = str(tmp_path / "m")
        assert run(["scalar", "sweep", "schedule=1e-2:1.8:40", "--out", out]) == 0
        assert run(["scalar", "exact", "--out", out]) == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert {e["file"] for e in manifest["files"]} == {"results.csv", "summary.json"}


class NumpyBool(np.bool_):
    pass


class TestFormatting:
    # the text of every cell and of every printed value: a change here moves
    # every artifact and every command's stdout
    GOLDEN = [
        (True, "true"), (np.bool_(False), "false"), (NumpyBool(True), "true"),
        (0.1, "0.10000000000000001"), (np.float64(1 / 3), "0.33333333333333331"),
        (7, "7"), (np.int64(-3), "-3"), ("klein", "klein"), ("", ""),
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (np.float64("nan"), "nan"),
        (-0.0, "-0"), (1e-300, "1e-300"), (np.float64(1e-300), "1e-300"),
        (np.float32(0.1), "0.1"), (None, "None"),
    ]

    @pytest.mark.parametrize("value, text", GOLDEN)
    def test_fmt_golden(self, value, text):
        assert cli._fmt(value) == text

    def test_write_csv_golden(self, tmp_path):
        path = tmp_path / "r.csv"
        cli.write_csv(path, {"a": [True, np.bool_(False), ""], "b": [0.1, -0.0, 1e-300],
                             "c": ["x", np.int64(2), ""]})
        assert path.read_bytes() == b"a,b,c\ntrue,0.10000000000000001,x\nfalse,-0,2\n,1e-300,\n"
        cli.write_csv(path, {"b": [np.float64(1e-300)], "a": [math.nan]})
        assert path.read_bytes() == b"b,a\n1e-300,nan\n"
        cli.write_csv(path, {"a": [], "b": []})
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("value, text", GOLDEN)
    def test_write_csv_column_of_one_type(self, tmp_path, value, text):
        # a column of one type is formatted by one formatter, into _fmt's text
        path = tmp_path / "r.csv"
        cli.write_csv(path, {"v": [value] * 3, "w": [value, "", value]})
        assert path.read_text() == f"v,w\n{text},{text}\n{text},\n{text},{text}\n"

    def test_write_csv_mixed_column(self, tmp_path):
        # every run of one type in a column keeps _fmt's text for each of its cells
        path = tmp_path / "r.csv"
        values, texts = zip(*self.GOLDEN)
        cli.write_csv(path, {"v": list(values), "w": list(values[::-1])})
        assert path.read_text() == "v,w\n" + "".join(f"{a},{b}\n"
                                                     for a, b in zip(texts, texts[::-1]))

    def test_write_csv_floats_read_as_format_spec(self, tmp_path):
        # every finite magnitude, subnormals and the extremes: the ".17g" text of each
        rng = np.random.default_rng(0)
        values = (rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 309, 4000)).tolist()
        values += [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 123456.0]
        path = tmp_path / "r.csv"
        cli.write_csv(path, {"x": values, "y": [np.float64(v) for v in values]})
        assert path.read_text() == "x,y\n" + "".join(f"{v:.17g},{v:.17g}\n" for v in values)


class TestOtherCommands:
    def test_scalar_exact(self, capsys):
        assert run(["scalar", "exact", "--d", "1"]) == 0
        assert float(capsys.readouterr().out) > 0

    def test_scalar_bound_requires_valid_side(self):
        assert run(["scalar", "bound", "side=sideways"]) == 2

    # below the 1e-100 collar floor (eta'/epsilon)^2 overflows: d = 1 exited 3
    # and d = 2 printed inf with exit 0
    @pytest.mark.parametrize("argv", [
        ["scalar", "bound", "data=boundary", "epsilon=1e-160"],
        ["scalar", "bound", "data=boundary", "d=2", "epsilon=1e-200"],
        ["scalar", "bound", "data=boundary", "epsilon=9.9e-101"],
        ["scalar", "sweep", "data=boundary", "schedule=1e-2:1.5:200;1e-160:1.5:200"],
    ])
    def test_collar_below_the_floor_refused(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1e-100" in captured.err

    # past the 1e100 collar cap, near 1e308, the shift 2 epsilon and the weighted
    # integrand overflowed: the bound and the sweep printed RuntimeWarnings and
    # exited 3, out of panels on [1.0, 3.0]
    @pytest.mark.parametrize("argv", [
        ["scalar", "bound", "epsilon=5e307"],
        ["scalar", "bound", "epsilon=5e307", "side=lower"],
        ["scalar", "bound", "d=2", "data=boundary", "epsilon=1.0000000000000002e100"],
        ["scalar", "sweep", "schedule=1e308:1.5:200"],
        ["scalar", "sweep", "data=boundary", "schedule=1e308:1.5:200;1e-2:1.5:200"],
    ])
    def test_collar_above_the_cap_refused(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at most 1e100" in captured.err

    # at the cap with the largest mass, every wedge preset bound stays finite
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("data", ["interior", "boundary"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_collar_at_the_cap_runs(self, capsys, d, data, side):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scalar", "bound", f"d={d}", f"data={data}", f"side={side}",
                        "mass=1e100", "epsilon=1e100"]) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    # the floor is 1e-100 on wedges and 1e-6 r on the cone (here r = 1), below
    # which the rounding of the radius moves a bound past its reported error
    @pytest.mark.parametrize("geometry", [["d=1", "epsilon=1e-100"], ["d=2", "epsilon=1e-100"],
                                          ["geometry=cone", "d=3", "epsilon=1e-06"]])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("transition", [["s=1.000000000001", "t=1e12"], ["s=1e6", "t=2"]])
    def test_collar_at_the_floor_runs(self, capsys, geometry, side, transition):
        assert run(["scalar", "bound", "data=boundary", f"side={side}",
                    *geometry, *transition]) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    @pytest.mark.parametrize("argv", [
        ["scalar", "bound", "epsilon=9.9e-7"],
        ["scalar", "bound", "r=2.5", "epsilon=2.4e-6", "side=lower"],
        ["scalar", "bound", "epsilon=1e-100"],
        ["scalar", "sweep", "schedule=1e-2:1.5:200;1e-12:1.5:200"],
    ])
    def test_cone_collar_below_its_relative_floor_refused(self, capsys, argv):
        # unrefused, the cone boundary preset's upper gap is off by 4.7e-5 at
        # 1e-12 r against a reported error of 1.9e-5, and exactly 0 at 1e-16 r
        assert run(argv + ["geometry=cone", "d=3", "data=boundary"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "[1e-6 r, r/2)" in captured.err

    def test_scalar_flow(self, capsys):
        assert run(["scalar", "flow", "geometry=cone", "point=0.0,0.5,0.0,0.0",
                    "s=1.0"]) == 0
        assert "factor" in capsys.readouterr().out
        assert run(["scalar", "flow", "s=-700"]) == 0
        assert "inf" not in capsys.readouterr().out

    def test_cutoff_minimize(self, tmp_path, capsys):
        out = tmp_path / "mini"
        assert run(["cutoff", "minimize", "--n_grid", "999", "--out", str(out)]) == 0
        val = float(capsys.readouterr().out)
        assert 0.1 < val < 0.2
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "x,eta"

    # the library's invalid-input errors are configuration errors (exit 2);
    # a quadrature out of panels or an overrun truncation is a computation
    # error (exit 3)
    @pytest.mark.parametrize("error, code", [
        (ParameterViolation, 2), (GeometryViolation, 2), (MassNotZero, 2),
        (ScheduleViolation, 2), (FlowSingularity, 2), (DimensionTooSmall, 2),
        (QuadratureBudgetExceeded, 3), (DimensionMismatch, 3), (TruncationBudgetExceeded, 3),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_computation_error_exit_code(self, capsys, monkeypatch, error, code):
        def failing(*args, **kwargs):
            raise error("refused at 20000 panels")

        monkeypatch.setattr(cli, "exact_entropy", failing)
        assert run(["scalar", "exact"]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "refused at 20000 panels" in captured.err

    def test_signalling_gap(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert run(["signalling", "gap", "--samples", "3", "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "epsilon,samples,floor,min_gap,slack,pass"
        assert capsys.readouterr().out.startswith("floor 0.474870")

    # below the 1e-24 floor the norm gap's pass margin 2 sqrt(2 epsilon) meets
    # the rounding of min_gap: the first command printed a min gap 1.1e-16 below
    # the floor (0.76536686473017934 < 0.76536686473017945) and exited 1
    @pytest.mark.parametrize("argv", [
        ["epsilon=1e-300", "samples=1", "d_factor=26", "seed=8"],
        ["epsilon=9.9e-25"],
        ["epsilon=5e-324", "d_factor=64"],
    ])
    def test_gap_epsilon_below_the_floor_refused(self, capsys, argv):
        assert run(["signalling", "gap", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "[1e-24, 0.05]" in captured.err

    @pytest.mark.parametrize("d_factor", [26, 32, 48, 64])
    def test_gap_epsilon_at_the_floor_passes(self, capsys, d_factor):
        for seed in range(10):
            assert run(["signalling", "gap", "epsilon=1e-24", "samples=1",
                        f"d_factor={d_factor}", f"seed={seed}"]) == 0, seed
        capsys.readouterr()

    def test_signalling_check(self, tmp_path, capsys):
        out = tmp_path / "check"
        assert run(["signalling", "check", "--d1", "8", "--d2", "16", "--out", str(out)]) == 0
        assert "max commutator 0" in capsys.readouterr().out
        # one pass column in the CSV; the summary also carries "passed"
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "max_commutator,tolerance,pass,commutation_defect"
        assert json.loads((out / "summary.json").read_text())["passed"] is True


class TestSuitesThroughCli:
    def test_findim_suite_small(self, tmp_path, capsys):
        out = tmp_path / "findim"
        assert run(["findim", "suite", "--out", str(out), "trials=5"]) == 0
        assert "passed=True" in capsys.readouterr().out
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("check,trial_seed")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True

    def test_fock_suite_default_cutoff(self, tmp_path):
        out = tmp_path / "fock"
        assert run(["fock", "suite", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True

    def test_tolerance_failure_exit_code(self, monkeypatch):
        # a zero Weyl-relation tolerance fails its nonzero residuals
        monkeypatch.setattr(cli.suites, "WEYL_TOL", 0.0)
        assert run(["fock", "suite"]) == 1


def modules_after(statement, package="scipy"):
    """The modules of `package` (scipy by default) that a fresh interpreter holds
    after running statement."""
    import modlab
    src = str(Path(modlab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
            "print(sorted(m for m in sys.modules if (m + '.').startswith(sys.argv[2] + '.')))")
    out = subprocess.run([sys.executable, "-c", code, src, package], capture_output=True,
                         text=True, check=True).stdout
    return out.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # every command pays the package import; scipy is imported where it is used,
    # and no scipy module at all, scipy.sparse included, loads with the package.
    # Nor does numpy.random: the seeded suites and the commands that draw load it
    assert modules_after("import modlab.cli") == "[]"
    assert modules_after("import modlab.cli", "numpy.random") == "[]"
    assert modules_after("import numpy.random", "numpy.random") != "[]"


def test_cutoff_minimize_loads_no_scipy():
    # the discrete minimizer is a closed form in numpy
    assert modules_after(
        "from modlab.cli import main; assert main(['cutoff', 'minimize']) == 0") == "[]"


SIGNALLING_COMMANDS = [["signalling", "check"], ["signalling", "factorize"],
                       ["signalling", "gap", "samples=5"]]


@pytest.mark.parametrize("command", [["fock", "suite"], ["findim", "suite", "trials=10"]]
                         + SIGNALLING_COMMANDS)
def test_suite_loads_no_scipy(command):
    # the Fock ladder maps, displacements and modular data are plain numpy, and
    # so are the shift families' column maps and the kept-block commutators
    assert modules_after(
        f"from modlab.cli import main; assert main({command!r}) == 0") == "[]"


def test_commands_run_with_scipy_blocked():
    # scipy is a test dependency only: with every scipy import refused, one
    # command of each kind still exits 0
    import modlab
    src = str(Path(modlab.__file__).resolve().parents[1])
    commands = SIGNALLING_COMMANDS + [["fock", "suite"], ["findim", "suite", "trials=10"],
                                      ["cutoff", "minimize"], ["scalar", "exact"]]
    code = textwrap.dedent(f"""
        import importlib.abc, sys
        sys.path.insert(0, sys.argv[1])

        class NoScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError("scipy is blocked: " + name)

        sys.meta_path.insert(0, NoScipy())
        from modlab.cli import main
        print([main(command) for command in {commands!r}])
    """)
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == str([0] * len(commands))
