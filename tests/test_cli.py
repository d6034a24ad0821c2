"""End-to-end tests of the command-line surface and its artifacts."""

import hashlib
import json

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
                     # outside the double cone N reaches 0 at finite s, and a
                     # huge point overflows its image
                     ["scalar", "flow", "geometry=cone", "point=0.3,2.0", "s=50"],
                     ["scalar", "flow", "point=1e300,1e300", "s=50"]):
            assert run(argv) == 2, argv
            assert capsys.readouterr().out == ""

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


class TestOtherCommands:
    def test_scalar_exact(self, capsys):
        assert run(["scalar", "exact", "--d", "1"]) == 0
        assert float(capsys.readouterr().out) > 0

    def test_scalar_bound_requires_valid_side(self):
        assert run(["scalar", "bound", "side=sideways"]) == 2

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

    def test_signalling_check(self, capsys):
        assert run(["signalling", "check", "--d1", "8", "--d2", "16"]) == 0
        assert "max commutator 0" in capsys.readouterr().out


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

    def test_tolerance_failure_exit_code(self, tmp_path):
        # an absurdly small tolerance scale forces residual checks to fail
        assert run(["fock", "suite", "--tolerance-scale", "1e-30"]) == 1
