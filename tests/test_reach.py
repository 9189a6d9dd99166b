"""Reach lint: every public module-level function and class of the library
is used somewhere outside its own body, in src/hallinv or perfbench/, and
every defaulted parameter of a public function or method is passed by some
call there.

A name only the tests reach is a reference, and references live in
tests/reference.py.  A use is an identifier (a name, an attribute or an
imported alias) or a string constant naming a dotted path, as the
benchmark tracer names its targets.  Methods are out of scope of the name
check: a name match cannot tell IntMatrix.mul from another class's mul.

A parameter is passed when a call to a callee of the function's name
passes it by keyword or by position.  Callees are matched by name alone,
so a call to another function of the same name can make a dead parameter
look passed: the check may miss one, but flags none that a call names
directly.  A parameter reached only through a variable is listed in
EXEMPT with its reason.
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


# Defaulted parameters that no call in src/hallinv or perfbench/ passes
# to a callee of their function's name, each with the reason it stays.
EXEMPT = {
    # cli._cmd_table calls either table through the variable `builder`
    ("tables.table1", "rows"), ("tables.table1", "jobs"),
    ("tables.table2", "rows"), ("tables.table2", "jobs"),
    # the rejected conventions, kept as the references the golden-value
    # tests select the frozen ones against
    ("braids.artin_action", "reversed_convention"),
    ("braids.full_twist", "opposite"),
}


def _defaulted(path, tree):
    """(qualified name, name callers use, positional parameters in order
    as callers pass them, defaulted parameters) of every public function
    and method of a library module; a class's constructor is called by
    the class's name."""
    defs = [(node.name, node.name, node, False) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(f"{cls.name}.{node.name}",
                      cls.name if node.name == "__init__" else node.name,
                      node, True)
                     for node in cls.body if isinstance(node, ast.FunctionDef)]
    for qualified, called, node, method in defs:
        if called.startswith("_"):
            continue
        args = node.args
        positional = [a.arg for a in args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d]
        # a method's first parameter, self or cls, is not passed in the call
        yield (f"{path.stem}.{qualified}", called,
               positional[1:] if method else positional, defaulted)


def _passed(trees):
    """Callee name -> the parameters its calls pass: keyword names, and
    positions as ints; a starred argument passes every position, a **
    argument every name (None)."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            seen = passed.setdefault(name, set())
            for i, arg in enumerate(node.args):
                seen.add("*" if isinstance(arg, ast.Starred) else i)
            seen.update(k.arg for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    passed = _passed(trees.values())
    unpassed = []
    for path in LIBRARY:
        for qualified, called, positional, defaulted in _defaulted(
                path, trees[path]):
            seen = passed.get(called, set())
            for param in defaulted:
                by_position = param in positional and (
                    "*" in seen or positional.index(param) in seen)
                if not (param in seen or None in seen or by_position
                        or (qualified, param) in EXEMPT):
                    unpassed.append(f"{qualified}({param}=)")
    assert not unpassed, ("defaulted parameters no library or benchmark "
                          f"call passes: {unpassed}")
