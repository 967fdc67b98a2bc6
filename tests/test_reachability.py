"""Every module under ``src/repro`` is reached by the program, not only
by its tests.

A module counts as used when a file under ``src/``, ``bench/`` or
``examples/`` other than its own imports it, or names its dotted path
in a string (the bench's ``module:qualname`` boundaries, an
``importlib`` target), or when a module of its own package names its
file in a string (a script run by path, like the conformance host
oracle).  A docstring or other bare string statement does not count:
documentation alone keeps no module alive.  Importing a module uses its
packages too.  ``__main__`` modules are run, not imported, so they are
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USERS = ("src", "bench", "examples")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
SCRIPT = re.compile(r"(\w+)\.py")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _referenced(tree, package=None):
    """The dotted names a file's code imports or names in a string; a
    file of ``package`` also names the sibling scripts in its strings."""
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in bare:
            names.update(DOTTED.findall(node.value))
            script = SCRIPT.fullmatch(node.value)
            if package and script:
                names.add(f"{package}.{script[1]}")
    return names


def _with_packages(names):
    closed = set()
    for name in names:
        parts = name.split(".")
        closed.update(".".join(parts[:end])
                      for end in range(1, len(parts) + 1))
    return closed


def unused_modules():
    """Modules of ``src/repro`` that no program file reaches."""
    used = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.is_relative_to(SRC):
                names = _referenced(tree, _module_name(path.parent))
                names.discard(_module_name(path))
            else:
                names = _referenced(tree)
            used |= _with_packages(names)
    modules = {_module_name(path) for path in (SRC / "repro").rglob("*.py")
               if path.stem != "__main__"}
    return sorted(modules - used)


def test_every_module_is_reached_outside_the_tests():
    unused = unused_modules()
    assert not unused, (
        "imported by no file under src/, bench/ or examples/ (only "
        f"tests/, or nothing): {', '.join(unused)}")
