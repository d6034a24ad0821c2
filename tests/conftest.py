"""The one table of whole-CLI commands, and its one traced run per session.

`run_table` runs every command of `COMMANDS` in a fresh interpreter under a
call tracer, each into a directory of its own.  It returns the functions of
src/modlab that the run entered, which `test_reachability` checks against its
keep list, and the sha256 of each command's results.csv, summary.json and
plot.txt, which `test_golden` checks against tests/golden_artifacts.json.  A
fresh interpreter, because in-process the lru_cache'd rules (`gauss_rule`,
`_even_moments`, `_composite01`) read as unreached once an earlier test has
filled their caches.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden_artifacts.json"
ARTIFACTS = ("results.csv", "summary.json", "plot.txt")

# criterion 5's presets: wedge d = 1 and 2 at mass 0 and 1, and the d = 3 cone
PRESETS = [(geometry, d, mass, data)
           for geometry, d, mass in [("wedge", 1, 0.0), ("wedge", 1, 1.0), ("wedge", 2, 0.0),
                                     ("wedge", 2, 1.0), ("cone", 3, 0.0)]
           for data in ("interior", "boundary")]
SCALAR = [["scalar", *action, f"geometry={geometry}", f"d={d}", f"mass={mass:g}",
           f"data={data}"]
          for geometry, d, mass, data in PRESETS
          for action in (["exact"], ["bound", "side=upper"], ["bound", "side=lower"],
                         ["sweep"])] + [
    ["scalar", "exact", "geometry=cone", "d=3", "data=boundary", "r=1.5"],
    ["scalar", "flow"],
    ["scalar", "flow", "geometry=cone", "point=0,0.2,0.1"],
]
# the only command that reads a config file; its key keeps the placeholder
CUTOFF = [["cutoff", "energy"], ["cutoff", "limit", "--config", "{config}"],
          ["cutoff", "minimize"]]
CONFIG = "# cutoff limit\ns = 3.0\n"
SIGNALLING = [["signalling", *action, f"seed={seed}"]
              for action in (["check"], ["factorize"], ["gap", "d_factor=26"],
                             ["gap", "d_factor=32"], ["gap", "d_factor=64"])
              for seed in (20260810, 0)]
# the schema's largest d_factor, once
SIGNALLING += [["signalling", "gap", "d_factor=256", "seed=20260810"]]
SUITES = [[group, "suite", f"seed={seed}"] for group in ("findim", "fock")
          for seed in (20260810, 0)]
# the command line's largest seed, two 32-bit words of entropy
SUITES += [["findim", "suite", "seed=9223372036854775807", "trials=30"]]
COMMANDS = SCALAR + CUTOFF + SIGNALLING + SUITES

CHILD = """
import json, sys
from pathlib import Path

src, out, config, commands = sys.argv[1], Path(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
reached = set()


def tracer(frame, event, arg):  # returns None: sees each call, traces no lines
    reached.add(frame.f_code)


sys.path.insert(0, src)
sys.settrace(tracer)
import modlab.cli

assert Path(modlab.cli.__file__).resolve().parent == Path(src, "modlab").resolve(), modlab.cli.__file__
for k, argv in enumerate(commands):
    argv = [a.replace("{config}", config) for a in argv]
    code = modlab.cli.main(argv + ["--out", str(out / str(k))])
    assert code == 0, (argv, code)
sys.settrace(None)
(out / "reached.json").write_text(json.dumps(
    [[c.co_filename, c.co_firstlineno, c.co_name] for c in reached if c.co_filename.startswith(src)]))
"""


class TableRun(NamedTuple):
    reached: set  # (co_filename, co_firstlineno, co_name) of each function entered
    digests: dict  # {command: {artifact: sha256}}


def run_table(workdir: Path) -> TableRun:
    """Run `COMMANDS` in one fresh traced interpreter, command k into workdir/k."""
    config = workdir / "limit.cfg"
    config.write_text(CONFIG)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(workdir), str(config),
                           json.dumps(COMMANDS)],
                          capture_output=True, text=True, cwd=workdir, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(key) for key in json.loads((workdir / "reached.json").read_text())}
    digests = {" ".join(argv): {name: hashlib.sha256((workdir / str(k) / name).read_bytes())
                                .hexdigest()
                                for name in ARTIFACTS if (workdir / str(k) / name).exists()}
               for k, argv in enumerate(COMMANDS)}
    return TableRun(reached, digests)


@pytest.fixture(scope="session")
def table_run(tmp_path_factory) -> TableRun:
    return run_table(tmp_path_factory.mktemp("commands"))
