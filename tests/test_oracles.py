"""The shared oracles stay independent of the code they check."""

import ast
import dataclasses
import importlib
from pathlib import Path

import modlab

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def modlab_imports_beyond_data_classes(source: str) -> list:
    """The imports of `source` that reach into modlab for anything but a public
    data class: a bare `import modlab...`, or a name that is not both in
    modlab.__all__ and a dataclass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "modlab"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modlab":
            owner = importlib.import_module(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in modlab.__all__
                      or not dataclasses.is_dataclass(getattr(owner, alias.name, None))]
    return found


def test_oracles_import_only_public_data_classes():
    assert modlab_imports_beyond_data_classes(ORACLES.read_text()) == []


def test_an_import_of_modlab_code_is_reported():
    source = ("import modlab.field\n"
              "from modlab.field import BumpFunction, InitialData, exact_entropy\n"
              "from modlab.quadrature import integrate_1d\n"
              "from modlab import Wedge\n")
    assert modlab_imports_beyond_data_classes(source) == [
        "modlab.field", "modlab.field.exact_entropy", "modlab.quadrature.integrate_1d"]
