"""Reach lint: every public module-level function and class of the library
is used somewhere outside its own body, in src/hallinv or perfbench/, and
every defaulted parameter of a public function or method is passed by some
call there.

A name only the tests reach is a reference, and references live in
tests/reference.py.  A use is an identifier (a name, an attribute or an
imported alias) or a string constant naming a dotted path, as the
benchmark tracer names its targets.  Methods are out of scope of the name
check: a name match cannot tell one class's method from another's of the
same name.

A parameter is passed when a call to a callee of the function's name
passes it by keyword or by position.  Callees are matched by name alone,
so a call to another function of the same name can make a dead parameter
look passed: the check may miss one, but flags none that a call names
directly.  A parameter reached only through a variable is listed in
EXEMPT with its reason.

Names cannot show a function reached only through another that tests
alone call, nor methods; the traced check runs the README's command
lines and one request per route under sys.setprofile, and fails on any
library function or method that none of them enters.
"""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
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


# The command lines the traced check runs, besides the README's: one
# request per route the README lines do not take.
ROUTES = [
    ["beta", "--p", "3", "--q", "0", "--fixture", "non_fano"],
    # the element route (F_{3^11}, past the Zech limit) on a matrix whose
    # elimination subtracts rows
    ["cover", "--order", "23", "--images", "1,1,0", "--q", "3",
     "--fixture", "product:2,1"],
    # a horizontal arrangement with no frozen file, built from its braid
    ["alexander", "--fixture", "horizontal:21534"],
    ["beta", "--p", "3", "--q", "2", "--fixture", "deleted_b3",
     "--jobs", "2"],
    ["beta", "--p", "3", "--q", "2", "--fixture", "free:2",
     "--check-orbits"],
    # surface:2 takes the blocks plan, braid_arrangement the DFS
    *(["oracle", "--target", "s3", "--mode", mode, "--fixture", name]
      for name in ("surface:2", "braid_arrangement")
      for mode in ("all", "epi", "delta")),
    ["oracle", "--target", "cyclic:6", "--fixture", "free:2"],
    ["census", "--k", "4", "--all-counts", "--fixture", "free:2"],
]
# (command line, exit code) of the requests that fail
FAILING = [
    (["oracle", "--target", "s3", "--fixture", "free:2", "--budget", "5"], 2),
    (["beta", "--p"], 1),
    (["parse", "--in", "malformed.txt"], 1),
]

# Library functions no traced command line enters, with the reason.
# perfbench/'s module-level calls are matched by their attribute chains;
# the methods it calls on objects are listed here.
ENTRY_EXEMPT = {
    # runs only in a forked --jobs child, whose profiler record is lost
    "charvar._child_share",
    # perfbench/ builds each abelian target's oracle table by spec.table()
    "hall.AbelianGroupSpec.table",
    # called by AbelianGroupSpec.table, which only perfbench/ calls
    "hall.AbelianGroupSpec.cyclic_factors",
    # perfbench/ checks that a distribution totals (p^n - 1)/(p - 1)
    "charvar.BettiDistribution.total",
    # perfbench/ indexes a distribution (b[depth]), a use no name shows
    "charvar.BettiDistribution.__getitem__",
}
# methods Python calls implicitly, which no command's output relies on
IMPLICIT = {"__repr__", "__eq__", "__hash__"}

# Runs the command lines of argv[1] (JSON) through cli.main in a fresh
# interpreter, where no cache of an earlier test hides a function, and
# writes (exit codes, (file, first line) of every code object entered) as
# JSON to argv[2].  --jobs 2 forks on any machine: the process is told it
# may use two CPUs.
TRACE = """
import contextlib, io, json, os, sys
from hallinv.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
entered = set()
def profile(frame, event, arg):
    entered.add(frame.f_code)
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    sys.setprofile(profile)
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
    sys.setprofile(None)
with open(sys.argv[2], "w") as out:
    json.dump([codes, [(c.co_filename, c.co_firstlineno)
                       for c in entered]], out)
"""


def _library_uses(tree):
    """Every library path tree names as an attribute chain rooted at a
    module it imports from hallinv: in a file that imports hall,
    hall.AbelianGroupSpec.from_cyclic_factors names hall.AbelianGroupSpec
    and hall.AbelianGroupSpec.from_cyclic_factors.  A name imported from
    a module (from hallinv.presentations import Word) roots a chain at
    that module's attribute.  A method called on an object is named by
    no chain."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hallinv":
            roots.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("hallinv."):
            stem = node.module.partition(".")[2]
            roots.update({a.asname or a.name: f"{stem}.{a.name}"
                          for a in node.names})
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            path = roots[node.id]
            yield path
            for attr in reversed(chain):
                path += "." + attr
                yield path


def _library_functions():
    """(qualified name, code object) of every module-level function and
    every method of a module-level class in src/hallinv; a method is
    unwrapped from its classmethod, staticmethod, property or cache."""
    for path in LIBRARY:
        module = importlib.import_module(f"hallinv.{path.stem}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", value)
                           for attr, value in vars(obj).items()]
            for qualified, value in members:
                for inner in ("__func__", "fget", "func", "__wrapped__"):
                    value = getattr(value, inner, value)
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == str(path):
                    yield f"{path.stem}.{qualified}", code


def test_every_library_function_is_entered(tmp_path):
    """Every library function and method is entered by some command line:
    the README's, and one request per route, run through cli.main under
    sys.setprofile.  A function no command enters is dead or test-only,
    and a test-only function belongs in tests/reference.py.  Functions
    perfbench/ names as attribute chains of the hallinv modules it
    imports (_library_uses) are exempt, and so are the methods in
    IMPLICIT and the functions in ENTRY_EXEMPT.  Nested functions are out
    of scope."""
    from test_readme import readme_commands

    (tmp_path / "pres.txt").write_text("gens: x, y\nrels: [x,y]\n")
    # a trailing token, reported through _Tokens.error
    (tmp_path / "malformed.txt").write_text("gens: x\nrels: x)\n")
    runs = [(shlex.split(line)[1:], 0) for line in readme_commands()]
    runs += [(argv, 0) for argv in ROUTES] + FAILING
    result = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, json.dumps([argv for argv, _ in runs]),
         str(result)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, entered = json.loads(result.read_text())
    assert codes == [want for _, want in runs], list(zip(runs, codes))
    entered = {tuple(place) for place in entered}
    perfbench = set()
    for path in CALLERS[len(LIBRARY):]:
        perfbench.update(_library_uses(ast.parse(path.read_text(), str(path))))
    functions = list(_library_functions())
    assert functions, "the library imported is not the one in src/hallinv"
    unentered = [name for name, code in functions
                 if (code.co_filename, code.co_firstlineno) not in entered
                 and name not in ENTRY_EXEMPT
                 and code.co_name not in IMPLICIT
                 and name not in perfbench]
    assert not unentered, ("library functions no command enters; delete "
                           f"them or move them to tests/reference.py: "
                           f"{unentered}")
