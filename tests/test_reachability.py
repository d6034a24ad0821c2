"""Every function of modlab is reached by a command, or is kept for a stated reason.

A fixed list of commands runs in a fresh interpreter under a call tracer; the
functions it never enters must be exactly the keep list. A fresh interpreter,
because in-process the lru_cache'd rules (`gauss_rule`, `_even_moments`,
`_composite01`) read as unreached once an earlier test has filled their
caches. A public name that nothing references can never be
called, so this also catches every unused public name.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from modlab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the functions no command reaches, each kept for the reason beside it
KEEPS = {
    # K of the rotated states is the rotated K: a claim, checked on random states
    "modular.check_unitary_covariance": "a claim of the paper that the tests check",
    "modular.sandwich_op": "only check_unitary_covariance calls it",
    # H(rho, rho') = <Omega, K Omega>: the modular route to the relative entropy
    "modular.entropy_from_modular": "a claim of the paper that the tests check",
    # the uniform-in-t bound on E[eta_{s,t}] behind the dominated-convergence step
    "cutoff.energy_dominating_bound": "a claim of the paper that the tests check",
    # the orthogonal-isometry relations of the shift family, on its defect-free zone
    "cuntz.TruncatedCuntz.relation_report": "a claim of the paper that the tests check",
    "field.FieldQuad.refined": "the finer rule that the field tests use as their reference",
    "cutoff.AnalyticCutoff.eta": "the benchmark's tracer wraps it by name",
}

# every (group, action) of cli.SCHEMAS, both geometries, both sides, both data
# kinds, a --config file and an r= override, at sizes that run in a second
COMMANDS = [
    ["findim", "suite", "trials=2"],
    ["fock", "suite", "cutoff=11"],
    ["scalar", "exact", "geometry=cone", "d=3", "data=boundary", "r=1.5"],
    ["scalar", "exact", "d=2"],
    ["scalar", "bound", "side=lower", "data=boundary", "t=40"],
    ["scalar", "bound", "geometry=cone", "d=3", "t=40"],
    ["scalar", "sweep", "schedule=1e-2:1.8:40;5e-3:1.6:40"],
    ["scalar", "flow"],
    ["scalar", "flow", "geometry=cone", "point=0,0.2,0.1"],
    ["cutoff", "energy", "t=40"],
    ["cutoff", "limit", "--config", "{config}"],
    ["cutoff", "minimize", "n_grid=100"],
    ["signalling", "check", "d1=4", "d2=4"],
    ["signalling", "gap", "samples=3", "d_factor=26"],
    ["signalling", "factorize", "outer_dim=4", "middle_dim=4"],
]

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
for argv in commands:
    argv = [a.replace("{config}", config) for a in argv]
    code = modlab.cli.main(argv + ["--out", str(out / "_".join(argv[:2]))])
    assert code == 0, (argv, code)
sys.settrace(None)
(out / "reached.json").write_text(json.dumps(
    [[c.co_filename, c.co_firstlineno, c.co_name] for c in reached if c.co_filename.startswith(src)]))
"""


def functions():
    """(co_filename, co_firstlineno, co_name) -> dotted name, for every function,
    method and nested function compiled from src/modlab; lambdas and
    comprehensions are left out."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:
                    found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name)

    for path in sorted((SRC / "modlab").glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def unreached(reached):
    """Dotted names of the functions outside `reached`, sorted."""
    return sorted(name for key, name in functions().items() if key not in reached)


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    config = tmp / "limit.cfg"
    config.write_text("# cutoff limit\ns = 3.0\n")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(tmp), str(config),
                           json.dumps(COMMANDS)],
                          capture_output=True, text=True, cwd=tmp, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads((tmp / "reached.json").read_text())}


def test_only_the_keeps_are_unreached(reached):
    assert unreached(reached) == sorted(KEEPS)


def test_a_missing_function_is_reported(reached):
    key, name = next((k, n) for k, n in functions().items() if k in reached)
    assert name in unreached(reached - {key})


def test_every_command_is_listed():
    assert set(cli.SCHEMAS) <= {tuple(argv[:2]) for argv in COMMANDS}
