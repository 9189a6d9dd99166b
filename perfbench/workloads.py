"""The three workloads: inputs from a seed, the request set, and the
answer checks.

Each workload's setup builds every input (presentations, target tables,
argv lists) and returns a list of Requests.  A request's ``run`` is the
timed call into hallinv; its ``check`` runs afterwards, outside the timed
interval, and returns None or a message saying what is wrong.  Calls go
through module attributes (``charvar.beta_distribution``) so that the
tracer's rebinding sees them.

- betti: Betti distributions of the braid-monodromy arrangements at
  jobs=1.  Loads charvar's depth engine on both backends (Zech codes for
  q > 0, integer polynomials for q = 0); bypasses oracle, census and
  cover SNF.
- oracle: the formula-versus-enumeration sweep.  Loads oracle.hom_count
  and cover SNF; charvar sees only small q > 0 queries.  Left out on
  length alone: deleted_b3, non_fano and horizontal:31425 against M37
  (45 s, 18 s, 22 s) and census k >= 4 on horizontal:31425 (30 s); each
  would outweigh the rest of the run.
- queries: a shuffled stream of small CLI requests at --jobs 2, dominated
  by per-call setup (Alexander matrices, fields and log tables, depth
  engine compiles, fork-pool launches).
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from math import gcd
from pathlib import Path

from hallinv import (braids, census, charvar, cli, foxcalc, hall, oracle,
                     tables)
from hallinv.presentations import Presentation, Word

import expected

HERE = Path(__file__).resolve().parent


class Request:
    __slots__ = ("rid", "run", "check", "orbit_groups")

    def __init__(self, rid, run, check, orbit_groups=()):
        self.rid = rid
        self.run = run
        self.check = check
        # (presentation, p) pairs whose order-p character orbits the
        # answer resolves; the count is the input's work for chars_per_s
        self.orbit_groups = orbit_groups


def orbit_count(P, p):
    n_p = foxcalc.abelianization(P).b1(p)
    return (p ** n_p - 1) // (p - 1)


def _mismatch(label, got, want):
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# betti

BETTI_FIXED = (("deleted_b3", 3, (0, 2, 5, 7)),
               ("non_fano", 3, (0, 2)),
               ("braid_arrangement", 5, (0, 2)))


def _band_generators(tau):
    """Band generators in the combed braid of the horizontal arrangement
    tau: pairs i < j <= n - 1 whose order tau reverses."""
    position = {v: i for i, v in enumerate(tau)}
    n = len(tau)
    return sum(1 for j in range(2, n) for i in range(1, j)
               if position[i] > position[j])


def _perm_pool(n, min_bands, exclude=()):
    """Length-n perms whose braid has at least min_bands band generators.

    The bound keeps the Alexander matrices of every draw within a narrow
    range of sizes, so the work is similar from seed to seed while the
    presentation and its depth distribution vary.
    """
    perms = ("".join(map(str, t)) for t in
             itertools.permutations(range(1, n + 1))
             if _band_generators(t) >= min_bands)
    return tuple(tau for tau in perms if f"horizontal:{tau}" not in exclude)


# 30 perms: n_p = 6 (3906 orbits at p = 5), 118-132 Laurent terms
PERM6_POOL = _perm_pool(6, 9)
BETTI_SEEDED = 2
CHARACTER_SAMPLES = 4


def _betti_check(name, P, p, q, samples):
    def check(b):
        n_p = foxcalc.abelianization(P).b1(p)
        if b.n_p != n_p or b.total() != (p ** n_p - 1) // (p - 1):
            return f"distribution {b.counts} does not total (p^{n_p}-1)/(p-1)"
        want = expected.EXPECTED_BETA.get((name, p, q))
        if want is not None:
            return _mismatch("beta", b.counts, want)
        base = foxcalc.abelianization(P).b1(q)
        for images in samples:
            # b1 of the index-p cover = b1 + (p - 1) depth, by the depth
            # engine and by the Smith form of the coset-action Jacobian
            via_depth = charvar.b1_cover_cyclic(P, p, images, q)
            via_snf = oracle.cover_b1(
                P, oracle.regular_cyclic_action(p, images), q)
            if via_depth != via_snf:
                return (f"cover {images}: depth route {via_depth}, "
                        f"SNF {via_snf}")
            depth, rem = divmod(via_depth - base, p - 1)
            if rem or not b[depth]:
                return f"cover {images}: depth {depth} absent from {b.counts}"
        return None
    return check


def betti_setup(seed):
    rng = random.Random(f"betti:{seed}")
    queries = [(name, p, q) for name, p, qs in BETTI_FIXED for q in qs]
    for tau in rng.sample(PERM6_POOL, BETTI_SEEDED):
        queries += [(f"horizontal:{tau}", 5, q) for q in (0, 2)]
    groups = {name: braids.fixture(name)
              for name in dict.fromkeys(name for name, _, _ in queries)}
    requests = []
    for name, p, q in queries:
        P = groups[name]
        samples = []
        if name.startswith("horizontal:"):
            # H_1 is free on the generators, so any nonzero vector of
            # generator images mod p is an epimorphism onto Z_p
            while len(samples) < CHARACTER_SAMPLES:
                images = [rng.randrange(p) for _ in range(P.num_generators)]
                if any(images):
                    samples.append(images)
        requests.append(Request(
            f"beta {name} p={p} q={q}",
            lambda P=P, p=p, q=q: charvar.beta_distribution(P, p, q, jobs=1),
            _betti_check(name, P, p, q, samples), [(P, p)]))
    return requests


# ---------------------------------------------------------------------------
# oracle

ORACLE_TARGETS = {"S3": (2, 3), "A4": (3, 2), "M37": (3, 7)}
ORACLE_CELLS = (("braid_arrangement", ("S3", "A4", "M37")),
                ("horizontal:123456", ("S3", "A4", "M37")),
                ("non_fano", ("S3", "A4")),
                ("deleted_b3", ("S3", "A4")),
                ("horizontal:31425", ("S3", "A4")),
                ("horizontal:21435", ("S3", "A4", "M37")))
# abelian covers Z_c^2 of these groups, at two characteristics each
ORACLE_COVERS = (("deleted_b3", 4, (0, 3)), ("deleted_b3", 5, (0, 2)),
                 ("non_fano", 4, (0, 3)), ("non_fano", 5, (0, 2)))
RANDOM_PRESENTATIONS = 8
ABELIAN_TARGETS = ([2], [4], [2, 2], [2, 4], [9], [6])


def _pairs_agree(pairs):
    for label, formula, brute in pairs:
        if formula != brute:
            return f"{label}: formula {formula}, enumeration {brute}"
    return None


def _delta_cell(name, label, P, T):
    p, q = ORACLE_TARGETS[label]

    def run():
        return hall.delta_mpqs(P, p, q), oracle.delta_oracle(P, T)

    def check(answer):
        formula, brute = answer
        return (_pairs_agree([(f"delta {label}", formula, brute)])
                or _mismatch(f"delta {label}", formula,
                             expected.EXPECTED_DELTA[name, label]))
    return Request(f"delta {name} {label}", run, check, [(P, p)])


def _surjective_images(rng, c, l):
    """Images of l generators in Z_c^2 that generate it: some 2x2 minor
    is a unit mod the prime dividing c (c is a prime power)."""
    prime = next(d for d in range(2, c + 1) if c % d == 0)
    while True:
        images = [[rng.randrange(c) for _ in range(l)] for _ in range(2)]
        if any((images[0][i] * images[1][j] - images[0][j] * images[1][i])
               % prime for i in range(l) for j in range(i + 1, l)):
            return images


def _cover_request(rng, groups):
    """The abelian covers by depth and by SNF, as one request: the Smith
    form's cost depends on the seeded images, and together they vary less."""
    cases = []
    for name, c, qs in ORACLE_COVERS:
        P = groups[name]
        images = _surjective_images(rng, c, P.num_generators)
        cases.append((f"{name} Z{c}^2", P, c, qs, images,
                      oracle.regular_abelian_action([c, c], images)))

    def run():
        return [(f"{label} b1^({q})",
                 charvar.b1_cover_abelian(P, [c, c], images, q),
                 oracle.cover_b1(P, action, q))
                for label, P, c, qs, images, action in cases for q in qs]
    return Request("abelian covers", run, _pairs_agree)


def random_presentation(rng):
    """A small presentation of the shape the equivalence tests use."""
    l = rng.randint(1, 3)
    rels = []
    for _ in range(rng.randint(0, 3)):
        w = Word([(rng.randrange(l), rng.choice([-3, -2, -1, 1, 2, 3, 4]))
                  for _ in range(rng.randint(1, 4))])
        if not w.is_identity():
            rels.append(w)
    return Presentation([f"g{i}" for i in range(l)], rels)


def _cyclic_images(rng, P, N):
    """Generator images defining an epimorphism onto Z_N, or None."""
    for _ in range(20):
        images = [rng.randrange(N) for _ in range(P.num_generators)]
        if gcd(N, *images) != 1:
            continue
        if all(sum(r.exponent_sum(g) * images[g]
                   for g in range(P.num_generators)) % N == 0
               for r in P.relators):
            return images
    return None


def _random_routes(P, abelian, covers, tables):
    """Formula and enumeration side by side on one small presentation."""
    abel = foxcalc.abelianization(P)
    A = foxcalc.alexander_matrix(P)
    pairs = []
    for factors in abelian:
        spec = hall.AbelianGroupSpec.from_cyclic_factors(factors)
        pairs.append((f"delta Z{factors}", hall.delta_abelian(abel, spec),
                      oracle.delta_oracle(P, spec.table())))
    for label in ("S3", "A4"):
        pairs.append((f"delta {label}",
                      hall.delta_mpqs(P, *ORACLE_TARGETS[label], A=A),
                      oracle.delta_oracle(P, tables[label])))
    for p, q in ((2, 3), (3, 2), (2, 0)):
        all_points = charvar.beta_distribution(P, p, q, A=A,
                                               check_orbits=True)
        orbits = charvar.beta_distribution(P, p, q, A=A)
        pairs.append((f"beta p={p} q={q}", orbits.counts, all_points.counts))
    for N, q, images in covers:
        pairs.append((f"cover N={N} q={q}",
                      charvar.b1_cover_cyclic(P, N, images, q, A=A),
                      oracle.cover_b1(
                          P, oracle.regular_cyclic_action(N, images), q)))
    return pairs


def _random_request(rng, tables):
    """Every route on each of a few seeded small presentations, as one
    request, so that their varying sizes average out."""
    cases = []
    for i in range(RANDOM_PRESENTATIONS):
        P = random_presentation(rng)
        abelian = rng.sample(ABELIAN_TARGETS, 2)
        covers = []
        for N, q in ((2, 0), (3, 0), (4, 3), (6, 5)):
            images = _cyclic_images(rng, P, N)
            if images is not None:
                covers.append((N, q, images))
        cases.append((i, P, abelian, covers))

    def run():
        return [(f"#{i} {label}", formula, brute)
                for i, P, abelian, covers in cases
                for label, formula, brute in
                _random_routes(P, abelian, covers, tables)]
    return Request(f"{RANDOM_PRESENTATIONS} random presentations", run,
                   _pairs_agree)


def oracle_setup(seed):
    rng = random.Random(f"oracle:{seed}")
    names = {name for name, _ in ORACLE_CELLS} | \
        {name for name, _, _ in ORACLE_COVERS}
    groups = {name: braids.fixture(name) for name in sorted(names)}
    tables = {label: hall.construct_mpqs(p, q).table
              for label, (p, q) in ORACLE_TARGETS.items()}
    requests = [_delta_cell(name, label, groups[name], tables[label])
                for name, labels in ORACLE_CELLS for label in labels]
    requests.append(_cover_request(rng, groups))

    hall_group = "horizontal:21435"
    P = groups[hall_group]
    requests.append(Request(
        f"a_4 {hall_group}",
        lambda: census.a_k_via_hall_recursion(P, 4),
        lambda a4: _mismatch("a_4", a4,
                             expected.EXPECTED_A4_HALL[hall_group])))
    requests.append(_random_request(rng, tables))
    return requests


# ---------------------------------------------------------------------------
# queries

QUERY_GROUPS = ("free:2", "product:2,1", "surface:2", "rp:3",
                "braid_arrangement", "non_fano", "deleted_b3",
                "horizontal:2134", "horizontal:31425")
# 20 perms: 78-92 Laurent terms
PERM5_POOL = _perm_pool(5, 5, exclude=QUERY_GROUPS)
QUERY_SEEDED = 3
# the small --budget census takes the infeasible path for Hall's recursion
QUERY_KINDS = (
    ("abelianize",),
    ("delta", "--target", "ab:2,4"),
    ("delta", "--target", "s3"),
    ("delta", "--target", "a4"),
    ("delta", "--target", "mpq:3,7"),
    ("beta", "--p", "2", "--q", "3"),
    ("beta", "--p", "3", "--q", "2"),
    ("census", "--k", "2", "--all-counts", "--conjugacy"),
    ("census", "--k", "3", "--all-counts", "--conjugacy"),
    ("census", "--k", "4", "--all-counts", "--budget", "100"),
    ("cover", "--order", "3", "--q", "2"),
    ("oracle", "--target", "s3", "--mode", "delta"),
)
QUERY_SUFFIX = ("--json", "--jobs", "2")
TARGET_LABELS = {"s3": "S3", "a4": "A4", "mpq:3,7": "M37"}
TARGET_P = {"s3": 2, "a4": 3, "mpq:3,7": 3}
RECORDED_QUERIES = HERE / "recorded_queries.json"


def query_argv(kind, group, num_generators):
    argv = list(kind) + ["--fixture", group]
    if kind[0] == "cover":
        argv += ["--images", ",".join(["1"] * num_generators)]
    return argv


def query_pool(groups):
    """Every request the queries workload can draw, for the given
    {group: presentation} map, plus the two tables."""
    argvs = [query_argv(kind, name, P.num_generators)
             for name, P in groups.items() for kind in QUERY_KINDS]
    return argvs + [["table1"], ["table2"]]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _grid(payload, columns):
    grid = tables.values_grid(payload["table"])
    return {row: [values[c] for c in columns] for row, values in grid.items()}


def _group(argv):
    return argv[argv.index("--fixture") + 1]


def _published_query(argv, payload):
    """Published value for a request, compared where one exists."""
    if argv[0] == "table1":
        return _mismatch("table1", _grid(payload, expected.TABLE1_COLUMNS),
                         expected.TABLE1_EXPECTED)
    if argv[0] == "table2":
        grid = _grid(payload, expected.TABLE2_COLUMNS)
        return _mismatch("table2", {r: grid.get(r) for r in
                                    expected.TABLE2_EXPECTED},
                         expected.TABLE2_EXPECTED)
    group = _group(argv)
    if argv[0] == "delta" and argv[2] in TARGET_LABELS:
        want = expected.EXPECTED_DELTA.get((group, TARGET_LABELS[argv[2]]))
        if want is not None:
            return _mismatch("delta", payload["delta"], want)
    if argv[0] == "beta":
        p, q = int(argv[2]), int(argv[4])
        want = expected.EXPECTED_BETA.get((group, p, q))
        if want is not None:
            return _mismatch("beta", payload["beta"],
                             {str(d): c for d, c in want.items()})
    return None


@functools.cache
def recorded_queries():
    """The recorded answers, read at the first check, not during set-up."""
    return json.loads(RECORDED_QUERIES.read_text())


def _query_check(argv):
    key = " ".join(argv)

    def check(answer):
        code, out = answer
        want = recorded_queries().get(key)
        if want is None:
            return "no recorded answer"
        if [code, out] != want:
            return f"exit {code} {out.strip()!r}, recorded {want!r}"
        return _published_query(argv, json.loads(out)) if code == 0 else None
    return check


def queries_setup(seed):
    rng = random.Random(f"queries:{seed}")
    names = list(QUERY_GROUPS) + [f"horizontal:{tau}" for tau in
                                  rng.sample(PERM5_POOL, QUERY_SEEDED)]
    groups = {name: braids.fixture(name) for name in names}
    argvs = query_pool(groups)
    rng.shuffle(argvs)
    requests = []
    for argv in argvs:
        orbit_groups = []
        if argv[0] == "beta":
            orbit_groups = [(groups[_group(argv)], int(argv[2]))]
        elif argv[0] == "delta" and argv[2] in TARGET_P:
            orbit_groups = [(groups[_group(argv)], TARGET_P[argv[2]])]
        requests.append(Request(
            " ".join(argv),
            lambda argv=argv: run_cli(argv + list(QUERY_SUFFIX)),
            _query_check(argv), orbit_groups))
    return requests


WORKLOADS = {"betti": betti_setup, "oracle": oracle_setup,
             "queries": queries_setup}
