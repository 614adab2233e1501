"""Tier-1 guard on dead state: no attribute that is written and never read.

An attribute assigned under ``src/repro`` (``obj.name = ...``,
``obj.name += ...``) must be read somewhere: as an attribute load
(``obj.name``) in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``,
or as a string equal to its name (``getattr``, a dict key of an
``asdict`` record).  A counter that is only ever incremented costs a
store on its hot path and tells nobody anything; delete it, or read it.
The names in a ``__slots__`` declaration do not count as reads.
``python tests/unit/test_write_only_state.py`` prints what it finds.

Reads source files only — nothing is imported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
READERS = ("src", "tests", "benchmarks", "examples")


def written() -> dict[str, list[str]]:
    """Attribute name -> ``file:line`` of each store under ``src/repro``."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                found.setdefault(node.attr, []).append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def read() -> set[str]:
    """Every attribute loaded and every string constant outside ``__slots__``."""
    names: set[str] = set()
    for directory in READERS:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text())
            slots = {
                id(constant)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
                for constant in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in slots:
                        names.add(node.value)
    return names


def write_only() -> dict[str, list[str]]:
    seen = read()
    return {name: sites for name, sites in sorted(written().items()) if name not in seen}


def test_every_assigned_attribute_is_read_somewhere():
    unread = write_only()
    assert not unread, (
        f"written, never read: {unread}. Delete the attribute, or read it where "
        "it informs something."
    )


if __name__ == "__main__":  # pragma: no cover - prints the findings
    for name, sites in write_only().items():
        print(f"{name}: {', '.join(sites)}")
