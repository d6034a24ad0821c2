"""Every function of modlab is reached by a command, or is kept for a stated reason.

The golden table of commands (tests/conftest.py) runs once, in a fresh
interpreter under a call tracer; the functions it never enters must be exactly
the keep list. A public name that nothing references can never be called, so
this also catches every unused public name.
"""

import inspect
import json

from conftest import COMMANDS, GOLDEN, SRC
from modlab import cli

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
    # the commands write columns; the tests and the benchmark's tracer count rows
    "suites.SuiteResult.rows": "the tests and the benchmark's tracer read it",
}

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


def test_only_the_keeps_are_unreached(table_run):
    assert unreached(table_run.reached) == sorted(KEEPS)


def test_a_missing_function_is_reported(table_run):
    key, name = next((k, n) for k, n in functions().items() if k in table_run.reached)
    assert name in unreached(table_run.reached - {key})


def test_every_command_is_listed():
    assert set(cli.SCHEMAS) <= {tuple(argv[:2]) for argv in COMMANDS}
    assert sorted(json.loads(GOLDEN.read_text())["digests"]) == sorted(
        " ".join(argv) for argv in COMMANDS)
