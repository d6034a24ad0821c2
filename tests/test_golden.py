"""Golden sha256 digests of the `scalar` group's artifacts on the ten presets.

`scalar exact`, `scalar bound` on both sides and `scalar sweep` run at their
defaults on every preset of criterion 5 (wedge d = 1 and 2 at mass 0 and 1,
the d = 3 cone; interior and boundary data), each into its own directory.  The
digests of the results.csv, summary.json and plot.txt they write must equal
the committed table, tests/golden_artifacts.json.  The table records the
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
COMMANDS = [["scalar", *action, f"geometry={geometry}", f"d={d}", f"mass={mass:g}",
             f"data={data}"]
            for geometry, d, mass, data in PRESETS
            for action in (["exact"], ["bound", "side=upper"], ["bound", "side=lower"],
                           ["sweep"])]


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


def digests(workdir: Path) -> dict:
    """{command: {artifact: sha256}} of every command, each run into its own directory."""
    table = {}
    for k, argv in enumerate(COMMANDS):
        out = workdir / str(k)
        assert main(argv + ["--out", str(out)]) == 0, argv
        table[" ".join(argv)] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                 for name in ARTIFACTS if (out / name).exists()}
    return table


def test_scalar_artifacts_match_the_golden_table(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(f"the golden digests were made on {golden['fingerprint']}; "
                    f"this machine is {fingerprint()}")
    assert len(golden["digests"]) == len(COMMANDS) == 40
    assert digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        table = {"fingerprint": fingerprint(), "digests": digests(Path(workdir))}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} commands to {GOLDEN}")
