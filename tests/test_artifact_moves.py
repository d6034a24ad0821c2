"""Tests for tools/artifact_moves.py, the moved-value report between two artifact sets."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_moves.py"
spec = importlib.util.spec_from_file_location("artifact_moves", TOOL)
artifact_moves = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_moves)


def write_set(root: Path, residual: str, worst: float, passed: str, created: str) -> Path:
    root.mkdir()
    (root / "results.csv").write_text(
        "check,trial_seed,residual,pass\n"
        f"klein,0,0.5,True\npolar,0,{residual},{passed}\npolar,1,0,True\n")
    (root / "summary.json").write_text(json.dumps(
        {"checks": 3, "passed": True, "worst": {"polar": worst, "klein": 0.5}}))
    (root / "manifest.json").write_text(json.dumps({"created": created, "bytes": len(residual)}))
    return root


@pytest.fixture
def sets(tmp_path):
    old = write_set(tmp_path / "old", "2.5e-15", 2.5e-15, "True", "2026-01-01")
    new = write_set(tmp_path / "new", "2.0e-15", 2.0e-15, "False", "2026-01-02")
    return old, new


def test_lists_each_moved_value_with_its_relative_move(sets):
    records = artifact_moves.moves(*sets)
    got = {(m["file"], m["row"], m["column"]): (m["old"], m["new"], m["rel"]) for m in records}
    assert got == {
        ("results.csv", 2, "residual[polar]"): ("2.5e-15", "2.0e-15", pytest.approx(0.2)),
        ("results.csv", 2, "pass[polar]"): ("True", "False", None),
        ("summary.json", None, "worst.polar"): (2.5e-15, 2.0e-15, pytest.approx(0.2)),
    }


def test_identical_sets_report_nothing(sets, capsys):
    old, _ = sets
    assert artifact_moves.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out.strip() == "0 values changed, 0 of them numbers"


def test_report_lists_each_move_then_counts_per_column_and_the_worst(sets, capsys):
    assert artifact_moves.main([str(p) for p in sets]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "results.csv row 2 pass[polar]: True -> False",
        "results.csv row 2 residual[polar]: 2.5e-15 -> 2.0e-15  (rel 2.00e-01)",
        "summary.json worst.polar: 2.5e-15 -> 2e-15  (rel 2.00e-01)",
    ]
    assert "results.csv residual[polar]: 1 changed, worst rel 2.00e-01, worst abs 5.00e-16" in lines[3:]
    assert "results.csv pass[polar]: 1 changed" in lines[3:]
    assert lines[-2].startswith("worst: results.csv row 2 residual[polar]: 2.5e-15 -> 2.0e-15")
    assert lines[-1] == "3 values changed, 2 of them numbers"
    assert not any("->" in line for line in lines[3:-2])


def test_a_file_on_one_side_lists_every_value(sets):
    old, new = sets
    (new / "summary.json").unlink()
    records = [m for m in artifact_moves.moves(old, new) if m["file"] == "summary.json"]
    assert {(m["column"], m["old"], m["new"]) for m in records} == {
        ("checks", 3, None), ("passed", True, None),
        ("worst.polar", 2.5e-15, None), ("worst.klein", 0.5, None)}
