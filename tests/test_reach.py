"""Reach lint: every public module-level function and class of the library
is used somewhere outside its own body, in src/hallinv or perfbench/.

A name only the tests reach is a reference, and references live in
tests/reference.py.  A use is an identifier (a name, an attribute or an
imported alias) or a string constant naming a dotted path, as the
benchmark tracer names its targets.  Methods are out of scope: a name
match cannot tell IntMatrix.mul from another class's mul.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "hallinv").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _uses(tree, skip):
    """Every identifier used in tree outside the nodes in skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    unreached = []
    for path in LIBRARY:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any(node.name in _uses(tree, {node})
                       for tree in trees.values()):
                unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, ("reached only from tests; move to "
                           f"tests/reference.py: {unreached}")
