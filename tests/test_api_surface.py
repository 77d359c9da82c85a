"""Every public name in ``src/repro`` is used by the program itself.

A public module-level function or class, or a public method, that nothing
in ``src/``, ``jobs/`` or ``perfbench/`` names apart from its own
definition exists only for the tests, and is a second entry point to keep
in step with the first. Names are read from the syntax tree (``Name``,
``Attribute`` and import nodes), so a mention in a comment, a docstring or
a string does not count, and neither does a package ``__init__.py``: a
re-export there is not a use. The ground-truth oracles are exempt: they exist
to check the algorithms, so only tests call them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = [ROOT / "src", ROOT / "jobs", ROOT / "perfbench"]
EXEMPT = {PACKAGE / "core" / "bruteforce.py", PACKAGE / "oracle.py"}


def _public_definitions() -> dict[str, str]:
    """``module:name`` or ``module:Class.method`` -> its bare name, for
    every public module-level function and class and every public method
    of one."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in EXEMPT:
            continue
        mod = path.relative_to(PACKAGE.parent).with_suffix("").as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{mod}:{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        found[f"{mod}:{node.name}.{m.name}"] = m.name
    return found


def _names_used() -> set[str]:
    """Every identifier the program's code refers to."""
    used = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_no_public_name_only_tests_use():
    used = _names_used()
    unused = sorted(q for q, name in _public_definitions().items() if name not in used)
    assert not unused, f"named only in tests: {unused}"
