"""Command-line surface.

    hallinv parse --in presentation.txt
    hallinv abelianize --fixture deleted_b3
    hallinv alexander --fixture rp:3
    hallinv beta --p 2 --q 3 --fixture horizontal:31425
    hallinv delta --target mpq:3,2 --fixture braid_arrangement
    hallinv cover --order 3 --images 1,1,0,2 --q 0 --in pres.txt
    hallinv census --k 3 --normal --abelian-quotient --conjugacy --in pres.txt
    hallinv arr --perm 31425
    hallinv oracle --target s3 --mode delta --fixture free:2
    hallinv table1 [--rows F2,F3]
    hallinv table2

--json, --jobs and --budget may come before the subcommand or after it.
Exit codes: 0 success, 1 bad input (a malformed command line included),
2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import factorial, prod

from .braids import fixture
from .census import census
from .charvar import Group, b1_cover_cyclic
from .errors import InvariantViolation
from .fields import is_prime, multiplicative_order
from .foxcalc import alexander_matrix
from .hall import construct_mpqs
from .oracle import (DEFAULT_BUDGET, BudgetExceeded, FiniteGroupTable,
                     aut_order, check_table_budget, cover_homology,
                     hom_count, mod_q_betti, regular_cyclic_action)
from .presentations import ParseError, parse_presentation, render_presentation
from .tables import delta_of, render_table, table1, table2


def _add_input_options(sub):
    sub.add_argument("--in", dest="infile", metavar="FILE",
                     help="presentation file")
    sub.add_argument("--fixture", metavar="NAME",
                     help="built-in fixture (e.g. free:3, deleted_b3)")


def _load_presentation(args):
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    if getattr(args, "fixture", None):
        return fixture(args.fixture)
    raise ValueError("supply a presentation with --in or --fixture")


def _emit(args, payload, text):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# target kind -> (the shape it takes, test on its integer parameters)
_TARGET_SHAPES = {
    "ab": ("ab:n1,n2,... with every n >= 1", lambda ns: min(ns) >= 1),
    "mpq": ("mpq:p,q with p and q distinct primes",
            lambda ns: len(ns) == 2 and ns[0] != ns[1]
            and is_prime(ns[0]) and is_prime(ns[1])),
    "sym": ("sym:k with k >= 1", lambda ns: len(ns) == 1 and ns[0] >= 1),
    "cyclic": ("cyclic:n with n >= 1",
               lambda ns: len(ns) == 1 and ns[0] >= 1),
}


def _parse_target(spec):
    """ab:2,4 | mpq:3,2 | s3 | a4 | sym:4 | cyclic:6 | table:file.json"""
    if spec == "s3":
        spec = "mpq:2,3"
    elif spec == "a4":
        spec = "mpq:3,2"
    kind, _, arg = spec.partition(":")
    if kind == "table":
        return "table", (arg,)
    if kind not in _TARGET_SHAPES:
        raise ValueError(f"unknown target {spec!r}")
    shape, valid = _TARGET_SHAPES[kind]
    try:
        params = tuple(int(x) for x in arg.split(","))
    except ValueError:
        params = None
    if params is None or not valid(params):
        raise ValueError(f"{spec}: expected {shape}")
    return kind, params


def _target_table(kind, params, budget):
    """The target's multiplication table, once its size fits the budget."""
    if kind == "table":
        with open(params[0], encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError:  # not JSON, or not UTF-8: the shape error
                data = None
        mul = data.get("mul") if isinstance(data, dict) else None
        n = len(mul) if isinstance(mul, list) else 0
        if not n or any(not isinstance(row, list) or len(row) != n
                        or any(type(x) is not int or not 0 <= x < n
                               for x in row) for row in mul):
            raise ValueError(f"{params[0]}: expected {{\"mul\": [...]}}, "
                             "an n x n table of integers 0..n-1")
        check_table_budget(n, budget)
        return FiniteGroupTable(mul)
    if kind == "mpq":
        p, q = params
        check_table_budget(p * q ** multiplicative_order(q, p), budget)
        return construct_mpqs(p, q).table
    if kind == "sym":
        check_table_budget(factorial(params[0]), budget)
        return FiniteGroupTable.symmetric(params[0])
    check_table_budget(prod(params), budget)
    if kind == "ab":
        return FiniteGroupTable.abelian(list(params))
    return FiniteGroupTable.cyclic(params[0])


def _check_options(args):
    """--p must be prime, --q zero or a prime and --jobs and --budget
    positive, before any work starts."""
    p = getattr(args, "p", None)
    if p is not None and not is_prime(p):
        raise ValueError(f"--p {p}: p must be prime")
    q = getattr(args, "q", 0)
    if q and not is_prime(q):
        raise ValueError(f"--q {q}: q must be 0 or a prime")
    if args.jobs < 1:
        raise ValueError(f"--jobs {args.jobs}: at least one worker is needed")
    if args.budget < 1:
        raise ValueError(f"--budget {args.budget}: the budget must be positive")


def _cmd_parse(args):
    P = _load_presentation(args)
    text = render_presentation(P)
    _emit(args, {"generators": list(P.generators),
                 "relators": text.splitlines()[1][len("rels: "):]},
          text.rstrip("\n"))


def _cmd_abelianize(args):
    abel = Group(_load_presentation(args)).abel
    payload = {"free_rank": abel.free_rank, "torsion": abel.torsion,
               "b1": {str(q): abel.b1(q) for q in (0, 2, 3, 5, 7)}}
    _emit(args, payload, repr(abel))


def _cmd_alexander(args):
    P = _load_presentation(args)
    A = alexander_matrix(P)
    _emit(args, {"entries": A.dump().splitlines(),
                 "shape": [A.num_relators, A.num_generators]}, A.dump())


def _cmd_beta(args):
    G = Group(_load_presentation(args), jobs=args.jobs)
    b = G.beta(args.p, args.q, check_orbits=args.check_orbits)
    payload = {"p": b.p, "q": b.q, "n_p": b.n_p,
               "beta": {str(d): c for d, c in sorted(b.counts.items())}}
    _emit(args, payload, repr(b) + f"   (n_p = {b.n_p})")


def _cmd_delta(args):
    kind, params = _parse_target(args.target)
    if kind not in ("ab", "mpq"):
        raise ValueError("delta targets are ab:... or mpq:p,q")
    G = Group(_load_presentation(args), jobs=args.jobs)
    value, method = delta_of(G, kind, params)
    payload = {"target": args.target, "delta": value, "method": method}
    beta = G.depths(*params)[1] if kind == "mpq" else None
    if beta is not None:
        payload["beta"] = {str(d): c for d, c in sorted(beta.counts.items())}
    _emit(args, payload, f"delta = {value}   [{method}]")


def _parse_images(flag, text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {text}: expected comma-separated integers"
                         ) from None


def _cmd_cover(args):
    P = _load_presentation(args)
    images = _parse_images("--images", args.images)
    value = b1_cover_cyclic(P, args.order, images, args.q)
    payload = {"order": args.order, "images": images, "q": args.q,
               "b1": value}
    _emit(args, payload, f"b1^({args.q}) of the cover = {value}")


def _cmd_census(args):
    G = Group(_load_presentation(args), jobs=args.jobs)
    d = census(G, args.k,
               want_normal=args.normal or args.all_counts,
               want_alpha=args.abelian_quotient or args.all_counts,
               want_conjugacy=args.conjugacy,
               budget=args.budget)
    text = "\n".join(f"{k} = {v}" for k, v in d.items() if not
                     k.endswith("_method"))
    _emit(args, d, text)


def _cmd_arr(args):
    if args.perm:
        if not (args.perm.isascii() and args.perm.isdigit()):
            raise ValueError(f"--perm {args.perm}: expected a permutation "
                             "of 1..n written as digits, e.g. 31425")
        P = fixture("horizontal:" + args.perm)
    elif args.fixture:
        P = fixture(args.fixture)
    else:
        raise ValueError("supply --perm or --fixture")
    text = render_presentation(P)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(args, {"presentation": text}, text.rstrip("\n"))


def _cmd_oracle(args):
    if args.target is None and args.cover_order is None:
        raise ValueError("supply --target or --cover-order")
    if args.cover_order is not None:
        if args.cover_order < 1:
            raise ValueError(f"--cover-order {args.cover_order}: "
                             "the order must be at least 1")
        if not args.cover_images:
            raise ValueError("--cover-order needs --cover-images")
        images = _parse_images("--cover-images", args.cover_images)
    P = _load_presentation(args)
    if args.cover_order is not None:
        # the action permutes N cosets and the Fox matrix has N rows per
        # relator: N is charged to the budget before either is built
        if args.cover_order > args.budget:
            raise BudgetExceeded(f"a cover of order {args.cover_order} "
                                 "has more cosets than the budget")
        action = regular_cyclic_action(args.cover_order, images)
        betti, torsion = cover_homology(P, action)
        payload = {"betti": betti, "torsion": torsion,
                   "b1_q": mod_q_betti(betti, torsion, args.q)}
        _emit(args, payload,
              f"H1(K) = Z^{betti} + {torsion}; b1^({args.q}) = {payload['b1_q']}")
        return
    kind, params = _parse_target(args.target)
    T = _target_table(kind, params, args.budget)
    if args.mode == "delta":
        epi = hom_count(P, T, "epi", args.budget)
        aut = aut_order(T, args.budget)
        if epi % aut:
            raise InvariantViolation(
                "epimorphism count not divisible by |Aut|")
        payload = {"target": args.target, "epi": epi, "aut": aut,
                   "delta": epi // aut}
        _emit(args, payload, f"delta = {payload['delta']} "
                             f"(epi {epi} / aut {aut})")
    else:
        value = hom_count(P, T, args.mode, args.budget)
        _emit(args, {"target": args.target, "mode": args.mode,
                     "count": value}, f"{args.mode} count = {value}")


def _cmd_table(args, builder):
    rows = args.rows.split(",") if args.rows else None
    t = builder(rows, jobs=args.jobs)
    _emit(args, {"table": t}, render_table(t))


class _UsageError(Exception):
    """A command line argparse rejects, reported as bad input (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise _UsageError instead of
    exiting 2, the code reserved for an exceeded budget; subcommand parsers
    inherit the class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def _parser():
    """The command-line parser, built once per process so that repeated
    main calls in one process (tests, scripts) do not rebuild it; a
    one-shot `hallinv` run builds it once either way.  parse_args keeps
    its state in the Namespace it returns."""
    # --json, --jobs and --budget may come before the subcommand or after
    # it: both parsers take them, with no default that could overwrite a
    # value given to the other; main supplies the defaults
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--jobs", type=int,
                        help="processes for character enumeration, this one included")
    common.add_argument("--budget", type=int,
                        help="partial-assignment budget for enumerations")
    parser = _Parser(
        prog="hallinv",
        parents=[common],
        description="Hall invariants and homology of finite-index subgroups"
                    " of finitely presented groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("parse", help="parse and normalize a presentation")
    _add_input_options(s)
    s.set_defaults(func=_cmd_parse)

    s = add_parser("abelianize", help="H_1 structure and Betti numbers")
    _add_input_options(s)
    s.set_defaults(func=_cmd_abelianize)

    s = add_parser("alexander", help="dump the Alexander matrix")
    _add_input_options(s)
    s.set_defaults(func=_cmd_alexander)

    s = add_parser("beta", help="Betti distribution of index-p covers")
    _add_input_options(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--check-orbits", action="store_true",
                   help="verify depth constancy on power orbits")
    s.set_defaults(func=_cmd_beta)

    s = add_parser("delta", help="Hall invariant")
    _add_input_options(s)
    s.add_argument("--target", required=True,
                   help="ab:2,4 or mpq:3,2 (aliases s3, a4)")
    s.set_defaults(func=_cmd_delta)

    s = add_parser("cover", help="b1 of a finite cyclic cover")
    _add_input_options(s)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--images", required=True,
                   help="comma-separated generator images in Z_N")
    s.add_argument("--q", type=int, default=0)
    s.set_defaults(func=_cmd_cover)

    s = add_parser("census", help="index-k subgroup counts")
    _add_input_options(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--normal", action="store_true")
    s.add_argument("--abelian-quotient", dest="abelian_quotient",
                   action="store_true")
    s.add_argument("--conjugacy", action="store_true")
    s.add_argument("--all-counts", dest="all_counts", action="store_true",
                   help="as --normal --abelian-quotient; c_k needs "
                   "--conjugacy")
    s.set_defaults(func=_cmd_census)

    s = add_parser("arr", help="emit an arrangement presentation")
    s.add_argument("--perm", help="horizontal arrangement permutation")
    s.add_argument("--fixture", help="named fixture")
    s.add_argument("--out", help="write the presentation to a file")
    s.set_defaults(func=_cmd_arr)

    s = add_parser("oracle", help="brute-force checks")
    _add_input_options(s)
    s.add_argument("--target", help="s3 | a4 | mpq:p,q | ab:... | sym:k"
                                    " | cyclic:n | table:file")
    s.add_argument("--mode", choices=("all", "epi", "delta"), default="all")
    s.add_argument("--cover-order", dest="cover_order", type=int,
                   help="cyclic cover order for homology via coset action")
    s.add_argument("--cover-images", dest="cover_images",
                   help="generator images for the cyclic cover")
    s.add_argument("--q", type=int, default=0)
    s.set_defaults(func=_cmd_oracle)

    s = add_parser("table1", help="Hall invariants of standard groups")
    s.add_argument("--rows", help="comma-separated row labels")
    s.set_defaults(func=lambda a: _cmd_table(a, table1))

    s = add_parser("table2", help="Hall invariants of 2-arrangements")
    s.add_argument("--rows", help="comma-separated row labels")
    s.set_defaults(func=lambda a: _cmd_table(a, table2))

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv, argparse.Namespace(
            json=False, jobs=1, budget=DEFAULT_BUDGET))
        _check_options(args)
        args.func(args)
    except BudgetExceeded as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except (_UsageError, ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
