"""List the numbers that moved between two sets of modlab artifacts.

    python tools/artifact_moves.py OLD_DIR NEW_DIR

OLD_DIR and NEW_DIR are two artifact directories (as written by
`modlab ... --out DIR`, searched recursively).  Every `.csv` and `.json` file
is compared with its namesake; `manifest.json` is skipped, since it only lists the
digests of the others; a file on one side only lists every value it holds.
Each CSV cell or JSON number that differs is printed as `old -> new` with its
relative move |new - old| / |old|, then one line per column with the count of
moved values and the worst relative and absolute moves, then the worst move
overall.  A CSV column is qualified by the row's
first cell when that cell is a label (`residual[polar_reconstruction]`), and a
JSON number by its key path (`findim.worst_residuals.klein_positivity`).
Text cells that differ, and rows or keys present on one side only, are
listed as changes with no relative move.

The exit code is 0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _number(value):
    """The float a cell or JSON leaf holds, or None for text, booleans and null."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _csv_cells(path: Path) -> dict:
    """{(row, column label): text} for every cell under the header."""
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return {}
    header, cells = rows[0], {}
    for i, row in enumerate(rows[1:], start=1):
        label = row[0] if row and _number(row[0]) is None else None
        for name, text in zip(header, row):
            key = f"{name}[{label}]" if label is not None and name != header[0] else name
            cells[(i, key)] = text
    return cells


def _json_leaves(value, path: str = "") -> dict:
    """{(None, key path): leaf} for every leaf of a JSON document."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_json_leaves(v, f"{path}.{k}" if path else str(k)))
        return out
    if isinstance(value, list):
        out = {}
        for k, v in enumerate(value):
            out.update(_json_leaves(v, f"{path}[{k}]"))
        return out
    return {(None, path): value}


def _leaves(path: Path) -> dict:
    if not path.is_file():
        return {}
    if path.suffix == ".csv":
        return _csv_cells(path)
    return _json_leaves(json.loads(path.read_text()))


def _pairs(old: Path, new: Path) -> list[tuple[str, Path, Path]]:
    names = {p.relative_to(root).as_posix() for root in (old, new) for p in root.rglob("*")
             if p.suffix in (".csv", ".json") and p.name != "manifest.json"}
    return [(n, old / n, new / n) for n in sorted(names)]


def moves(old: Path, new: Path) -> list[dict]:
    """One record per differing value: file, row (None for JSON), column, old, new, rel, abs."""
    out = []
    for name, a, b in _pairs(old, new):
        before, after = _leaves(a), _leaves(b)
        for key in sorted(before.keys() | after.keys(), key=lambda k: (k[0] or 0, k[1])):
            x, y = before.get(key), after.get(key)
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            rel = absolute = None
            if fx is not None and fy is not None:
                if fx == fy or (math.isnan(fx) and math.isnan(fy)):
                    continue
                absolute = abs(fy - fx)
                rel = absolute / abs(fx) if fx else math.inf
            out.append({"file": name, "row": key[0], "column": key[1],
                        "old": x, "new": y, "rel": rel, "abs": absolute})
    return out


def _where(m: dict) -> str:
    row = "" if m["row"] is None else f" row {m['row']}"
    return f"{m['file']}{row} {m['column']}"


def report(records: list[dict]) -> str:
    lines = []
    for m in records:
        move = "" if m["rel"] is None else f"  (rel {m['rel']:.2e})"
        lines.append(f"{_where(m)}: {m['old']} -> {m['new']}{move}")
    columns: dict = {}
    for m in records:
        columns.setdefault((m["file"], m["column"]), []).append(m)
    for (name, column), group in columns.items():
        moved = [m for m in group if m["rel"] is not None]
        text = f"{name} {column}: {len(group)} changed"
        if moved:
            text += (f", worst rel {max(m['rel'] for m in moved):.2e},"
                     f" worst abs {max(m['abs'] for m in moved):.2e}")
        lines.append(text)
    numeric = [m for m in records if m["rel"] is not None]
    if numeric:
        w = max(numeric, key=lambda m: m["rel"])
        lines.append(f"worst: {_where(w)}: {w['old']} -> {w['new']} (rel {w['rel']:.2e})")
    lines.append(f"{len(records)} values changed, {len(numeric)} of them numbers")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)
    records = moves(args.old_dir, args.new_dir)
    print(report(records))
    return 1 if records else 0


if __name__ == "__main__":
    sys.exit(main())
