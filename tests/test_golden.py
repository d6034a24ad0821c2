"""Golden sha256 digests of the artifacts of every command of the shared table.

The table, `COMMANDS` in tests/conftest.py, holds every (group, action) of
`cli.SCHEMAS`.  `scalar exact`, `scalar bound` on both sides and `scalar sweep`
run at their defaults on every preset of criterion 5 (wedge d = 1 and 2 at mass
0 and 1, the d = 3 cone; interior and boundary data), and `scalar exact` once
more with an `r=` override.  `scalar flow` runs on the wedge and on the cone,
and `cutoff energy`, `cutoff limit` (from a config file) and `cutoff minimize`
at their defaults.  `signalling check`, `signalling factorize` and `signalling
gap` at d_factor 26, 32 and 64 run at their other defaults, and `findim suite`
and `fock suite` at theirs, each at the acceptance seed 20260810 and at seed 0;
`signalling gap` also runs at the largest d_factor, 256, at seed 20260810;
`findim suite` also runs 30 trials from the command line's largest seed, 2**63 - 1.
The table runs once per session, in the traced child interpreter that the
reachability test reads too, each command into its own directory; the digests
of the results.csv, summary.json and plot.txt it writes must equal the
committed ones, tests/golden_artifacts.json.  That file records the
fingerprint it was made on: the numpy version, its BLAS build and the SIMD
kernels numpy found on the CPU.  Other kernels may round differently, so on
another fingerprint the test skips and names both.  A change that moves
artifact bytes regenerates the file through the same child, and the diff then
names each moved artifact:

    python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import CUTOFF, GOLDEN, SCALAR, SIGNALLING, SUITES, run_table


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


def assert_golden(table_run, commands: list) -> None:
    """The traced run's digests of `commands` equal the committed ones; skips on
    another fingerprint."""
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(f"the golden digests were made on {golden['fingerprint']}; "
                    f"this machine is {fingerprint()}")
    keys = [" ".join(argv) for argv in commands]
    assert {key: table_run.digests[key] for key in keys} == {key: golden["digests"][key]
                                                             for key in keys}


def test_scalar_artifacts_match_the_golden_table(table_run):
    assert len(SCALAR) == 43
    assert_golden(table_run, SCALAR)


def test_cutoff_artifacts_match_the_golden_table(table_run):
    assert len(CUTOFF) == 3
    assert_golden(table_run, CUTOFF)


def test_signalling_artifacts_match_the_golden_table(table_run):
    assert len(SIGNALLING) == 11
    assert_golden(table_run, SIGNALLING)


def test_suite_artifacts_match_the_golden_table(table_run):
    assert len(SUITES) == 5
    assert_golden(table_run, SUITES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        table = {"fingerprint": fingerprint(), "digests": run_table(Path(workdir)).digests}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} commands to {GOLDEN}")
