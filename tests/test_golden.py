"""Golden sha256 digests of the `scalar`, `signalling` and suite groups' artifacts.

`scalar exact`, `scalar bound` on both sides and `scalar sweep` run at their
defaults on every preset of criterion 5 (wedge d = 1 and 2 at mass 0 and 1,
the d = 3 cone; interior and boundary data).  `signalling check`, `signalling
factorize` and `signalling gap` at d_factor 26, 32 and 64 run at their other
defaults, and `findim suite` and `fock suite` at theirs, each at the
acceptance seed 20260810 and at seed 0.  Each command
writes into its own directory, and the digests of the results.csv,
summary.json and plot.txt it writes must equal the committed table,
tests/golden_artifacts.json.  The table records the
fingerprint it was made on: the numpy version, its BLAS build and the SIMD
kernels numpy found on the CPU.  Other kernels may round differently, so on
another fingerprint the test skips and names both.  A change that moves
artifact bytes regenerates the table, and the diff then names each moved
artifact:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from modlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_artifacts.json"
ARTIFACTS = ("results.csv", "summary.json", "plot.txt")
PRESETS = [(geometry, d, mass, data)
           for geometry, d, mass in [("wedge", 1, 0.0), ("wedge", 1, 1.0), ("wedge", 2, 0.0),
                                     ("wedge", 2, 1.0), ("cone", 3, 0.0)]
           for data in ("interior", "boundary")]
SCALAR = [["scalar", *action, f"geometry={geometry}", f"d={d}", f"mass={mass:g}",
           f"data={data}"]
          for geometry, d, mass, data in PRESETS
          for action in (["exact"], ["bound", "side=upper"], ["bound", "side=lower"],
                         ["sweep"])]
SIGNALLING = [["signalling", *action, f"seed={seed}"]
              for action in (["check"], ["factorize"], ["gap", "d_factor=26"],
                             ["gap", "d_factor=32"], ["gap", "d_factor=64"])
              for seed in (20260810, 0)]
SUITES = [[group, "suite", f"seed={seed}"] for group in ("findim", "fock")
          for seed in (20260810, 0)]
COMMANDS = SCALAR + SIGNALLING + SUITES


def fingerprint() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": {key: blas[key] for key in ("name", "version", "openblas configuration")
                     if key in blas},
            "simd": config.get("SIMD Extensions", {}).get("found")}


def digests(workdir: Path, commands: list = COMMANDS) -> dict:
    """{command: {artifact: sha256}} of each command, each run into its own directory."""
    table = {}
    for k, argv in enumerate(commands):
        out = workdir / str(k)
        assert main(argv + ["--out", str(out)]) == 0, argv
        table[" ".join(argv)] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                 for name in ARTIFACTS if (out / name).exists()}
    return table


def golden_digests(commands: list) -> dict:
    """The committed digests of `commands`; skips on another fingerprint."""
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(f"the golden digests were made on {golden['fingerprint']}; "
                    f"this machine is {fingerprint()}")
    assert sorted(golden["digests"]) == sorted(" ".join(argv) for argv in COMMANDS)
    return {" ".join(argv): golden["digests"][" ".join(argv)] for argv in commands}


def test_scalar_artifacts_match_the_golden_table(tmp_path):
    assert len(SCALAR) == 40
    assert digests(tmp_path, SCALAR) == golden_digests(SCALAR)


def test_signalling_artifacts_match_the_golden_table(tmp_path):
    assert len(SIGNALLING) == 10
    assert digests(tmp_path, SIGNALLING) == golden_digests(SIGNALLING)


def test_suite_artifacts_match_the_golden_table(tmp_path):
    assert len(SUITES) == 4
    assert digests(tmp_path, SUITES) == golden_digests(SUITES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        table = {"fingerprint": fingerprint(), "digests": digests(Path(workdir))}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} commands to {GOLDEN}")
