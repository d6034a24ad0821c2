"""Every public function, class and method of modlab earns its place: the
package or its benchmark uses it, it is exported, or it states a claim of the
paper that the tests check against an oracle."""

import ast
from collections import Counter
from pathlib import Path

import modlab

ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package calls, kept on purpose
KEEPS = {
    # K of the rotated states is the rotated K: a claim, checked on random states
    "check_unitary_covariance",
    # H(rho, rho') = <Omega, K Omega>: the modular route to the relative entropy
    "entropy_from_modular",
    # the uniform-in-t bound on E[eta_{s,t}] behind the dominated-convergence step
    "energy_dominating_bound",
    # the orthogonal-isometry relations of the shift family, on its defect-free zone
    "relation_report",
    # the finer quadrature rule that field tests use as their reference
    "refined",
}


def sources():
    return sorted((ROOT / "src" / "modlab").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))


def references(node):
    """Names that `node` and its subtree refer to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in sub.names)


def public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def unused_public_names():
    used = Counter()
    definitions = []
    for path in sources():
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "__init__.py":  # its imports re-export; __all__ counts instead
            tree.body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        used.update(references(tree))
        if path.parent.name == "modlab":
            definitions.extend(public_definitions(tree))
    exported = set(modlab.__all__)
    return {d.name for d in definitions
            if d.name not in exported
            and used[d.name] == Counter(references(d))[d.name]}


def test_every_public_name_is_used_exported_or_kept():
    assert unused_public_names() == KEEPS
