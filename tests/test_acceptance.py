"""Acceptance suite: every criterion is exact (integer equality), and each
test prints one PASS/FAIL line.  Run standalone with

    pytest tests/test_acceptance.py -v -s
"""

import time
from itertools import product as iproduct

import pytest

from hallinv.braids import fixture
from hallinv.census import a2_a3, a_k_via_hall_recursion, a_normal, alpha_k
from hallinv.charvar import Group, b1_cover_cyclic, beta_distribution
from hallinv.fields import multiplicative_order
from hallinv.foxcalc import abelianization, alexander_matrix
from hallinv.hall import construct_mpqs, delta_mpqs
from hallinv.oracle import (FiniteGroupTable, cover_b1, delta_oracle,
                            regular_cyclic_action)
from hallinv.presentations import parse_presentation
from hallinv.tables import table1, table2, values_grid
from reference import (a_k_free, a_k_Zn, a_normal_closed,
                       check_bounds_congruence, delta_abelian_of,
                       determinantal_divisors, fox_fundamental_identity_holds,
                       max_depth_of_order_dividing, smith_basis_holds)


def _report(number, label):
    def decorator(fn):
        def wrapped(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL  {label}")
                raise
            print(f"ACCEPTANCE {number}: PASS  {label}"
                  f"  [{time.time() - start:.1f}s]")
        wrapped.__name__ = fn.__name__
        return wrapped
    return decorator


# --------------------------------------------------------------------------
# 1. The Hall-invariant table of standard groups, exactly as published.

TABLE1_EXPECTED = {
    "F2":    [3, 4, 1, 6, 3, 12, 3, 4, 8],
    "F3":    [7, 13, 7, 28, 42, 112, 28, 65, 208],
    "F4":    [15, 40, 35, 120, 420, 960, 195, 840, 4560],
    "F2xF1": [7, 13, 7, 28, 42, 112, 3, 4, 8],
    "F2xF2": [15, 40, 35, 120, 420, 960, 6, 8, 16],
    "F3xF1": [15, 40, 35, 120, 420, 960, 28, 65, 208],
    "F3xF2": [31, 121, 155, 496, 3720, 7936, 31, 69, 216],
    "T2#2":  [15, 40, 35, 120, 420, 960, 60, 200, 640],
    "T2#3":  [63, 364, 651, 2016, 31248, 64512, 2520, 30940, 291200],
    "T2#4":  [255, 3280, 10795, 32640, 2072640, 4177920,
              92820, 4477200, 128628480],
    "RP2#2": [3, 1, 1, 2, 1, 2, 1, 0, 0],
    "RP2#3": [7, 4, 7, 12, 18, 24, 10, 4, 8],
    "RP2#4": [15, 13, 35, 56, 196, 224, 69, 65, 208],
    "RP2#5": [31, 40, 155, 240, 1800, 1920, 430, 840, 4560],
}

COLUMNS = ("Z2", "Z3", "Z2^2", "Z4", "Z2+Z4", "Z8", "S3", "A4", "M37")


@_report(1, "delta table of standard groups (all 126 entries, < 2 min)")
def test_criterion_1_table1():
    start = time.time()
    grid = values_grid(table1())
    for row, values in TABLE1_EXPECTED.items():
        got = [grid[row][c] for c in COLUMNS]
        assert got == values, f"{row}: {got} != {values}"
    assert time.time() - start < 120


# --------------------------------------------------------------------------
# 2. Braid arrangement: the pure braid group on four strands.

@_report(2, "braid arrangement: beta_p = (5(p+1)), delta = 5(p^2-1)/s")
def test_criterion_2_braid_arrangement():
    G = Group(fixture("braid_arrangement"))
    for p in (2, 3, 5):
        for q in (0, 2, 3, 7):
            if q == p:
                continue
            b = G.beta(p, q)
            assert b[1] == 5 * (p + 1), (p, q, b)
            assert all(b[d] == 0 for d in range(2, 8)), (p, q, b)
            if q:
                s = multiplicative_order(q, p)
                assert delta_mpqs(G, p, q) == 5 * (p * p - 1) // s


# --------------------------------------------------------------------------
# 3. Deleted B3 arrangement.

@_report(3, "deleted B3: beta grids, delta_A4 = 110, delta_S3 = 63, "
            "b1 of the exceptional order-3 cover")
def test_criterion_3_deleted_b3():
    P = fixture("deleted_b3")
    A = alexander_matrix(P)
    for q in (0, 3, 5, 7):
        assert beta_distribution(P, 2, q, A=A).positive_part() == (27, 9), q
    for q in (0, 5, 7):
        assert beta_distribution(P, 3, q, A=A).positive_part() == (44, 13), q
    G = Group(P, A=A)
    assert G.beta(3, 2).positive_part() == (45, 13)
    assert delta_mpqs(G, 3, 2) == 110
    assert delta_mpqs(P, 2, 3, A=A) == 63  # 9(q+4) at q = 3
    # the order-3 character on the translated component (paper's mu, with
    # the y coordinates negated to this presentation's conjugation side)
    mu = [1, 2, 2, 1, 1, 0, 2, 0]
    assert b1_cover_cyclic(P, 3, mu, 0, A=A) == 8
    assert b1_cover_cyclic(P, 3, mu, 2, A=A) == 10
    # and the same numbers straight from the coset-action oracle
    action = regular_cyclic_action(3, mu)
    assert cover_b1(P, action, 0) == 8
    assert cover_b1(P, action, 2) == 10


# --------------------------------------------------------------------------
# 4. Non-Fano arrangement (the frozen full-twist convention).

@_report(4, "non-Fano: beta_2 = (24, 1) and delta_{D_2q} = q + 25")
def test_criterion_4_non_fano():
    P = fixture("non_fano")
    A = alexander_matrix(P)
    for q in (0, 3, 5, 7):
        assert beta_distribution(P, 2, q, A=A).positive_part() == (24, 1), q
    for q in (3, 5, 7):
        assert delta_mpqs(P, 2, q, A=A) == q + 25, q


# --------------------------------------------------------------------------
# 5. Horizontal plane arrangements: the classification table.

TABLE2_EXPECTED = {
    "A(2134)": [25, 38, 72],
    "A(21345)": [168, 435, 1184],
    "A(21435)": [150, 273, 632],
    "A(31425)": [139, 191, 290],
    "A(123456)": [1240, 10285, 96800],
}


@_report(5, "horizontal arrangements: table rows and beta fixtures, < 5 min")
def test_criterion_5_horizontal():
    start = time.time()
    grid = values_grid(table2())
    for row, values in TABLE2_EXPECTED.items():
        got = [grid[row][c] for c in ("S3", "A4", "M37")]
        assert got == values, f"{row}: {got} != {values}"

    P = fixture("horizontal:2134")
    assert beta_distribution(P, 2, 3).positive_part() == (1, 6)
    assert beta_distribution(P, 3, 2).positive_part() == (18, 4)

    Q = fixture("horizontal:31425")
    A = alexander_matrix(Q)
    assert beta_distribution(Q, 2, 3, A=A).counts == {0: 15, 1: 5, 2: 1,
                                                      3: 10}
    assert beta_distribution(Q, 3, 2, A=A).positive_part() == (41, 30)
    assert beta_distribution(Q, 3, 5, A=A).positive_part() == (70, 10)
    assert beta_distribution(Q, 3, 7, A=A).positive_part() == (65, 10)
    assert time.time() - start < 300


# --------------------------------------------------------------------------
# 6. Low-index censuses.

@_report(6, "index censuses: a_2/a_3 both routes, normal counts as "
            "delta sums, sublattice recursion")
def test_criterion_6_censuses():
    for n in (2, 3, 4):
        want = 3 * (3 ** (n - 1) - 1) * 2 ** (n - 1) + 1
        P = fixture(f"free:{n}")
        _, a3 = a2_a3(P)
        assert a3 == want
        assert a_k_via_hall_recursion(P, 3) == want
        assert a_k_free(n, 3) == want

    braid = fixture("braid_arrangement")
    _, a3 = a2_a3(braid)
    assert a3 == 409
    assert a_k_via_hall_recursion(braid, 3) == 409

    delb3 = fixture("deleted_b3")
    _, a3 = a2_a3(delb3)
    assert a3 == 3469
    assert a_k_via_hall_recursion(delb3, 3) == 3469

    assert a_k_Zn(2, 6) == 12
    for k in (2, 3, 4, 6, 12):
        assert a_k_Zn(2, k) == sum(d for d in range(1, k + 1) if k % d == 0)
    Z2 = parse_presentation("gens: x, y; rels: [x,y]")
    for k in (2, 3, 4, 6):
        assert alpha_k(Z2, k) == a_k_Zn(2, k)

    # normal counts: the closed forms against independent delta sums, and
    # a_normal, which sums the library's Hall invariants, against both
    for name in ("free:2", "free:3"):
        P = fixture(name)
        for k in (4, 6, 9, 10, 15):
            fac = sorted({2: [2], 4: [2], 6: [2, 3], 9: [3], 10: [2, 5],
                          15: [3, 5]}[k])
            if k in (4, 9):
                p = fac[0]
                want = delta_abelian_of(P, [k]) + delta_abelian_of(P, [p, p])
            else:
                u, v = fac
                want = delta_abelian_of(P, [k])
                if (v - 1) % u == 0:
                    want += delta_mpqs(P, u, v)
            assert a_normal_closed(P, k) == want == a_normal(P, k), (name, k)
        assert a_normal_closed(P, 2) == delta_abelian_of(P, [2]) \
            == a_normal(P, 2)


# --------------------------------------------------------------------------
# 7. Oracle equivalence: formulas against brute-force enumeration.

ALL_FIXTURES = (
    "free:2", "free:3", "free:4",
    "product:2,1", "product:2,2", "product:3,1", "product:3,2",
    "surface:2", "surface:3", "surface:4",
    "rp:2", "rp:3", "rp:4", "rp:5",
    "braid_arrangement", "non_fano", "deleted_b3",
    "horizontal:123", "horizontal:1234", "horizontal:2134",
    "horizontal:12345", "horizontal:21345", "horizontal:21435",
    "horizontal:31425", "horizontal:123456",
)

COVER_FIXTURES = ("free:2", "free:3", None, "surface:2", "rp:3",
                  "horizontal:2134")


def _index_p_kernel_reps(abel, p):
    """One epimorphism onto Z_p per index-p normal subgroup, as generator
    image vectors: the order-p characters whose first nonzero chi
    coordinate exponent is 1."""
    moduli = [p if e % p == 0 else 1 for e in abel.torsion] + \
        [p] * abel.free_rank
    reps = []
    for coords in iproduct(*(range(m) for m in moduli)):
        if next((e for e in coords if e), None) != 1:
            continue
        reps.append([sum(a * b for a, b in zip(image, coords)) % p
                     for image in abel.images])
    return reps


@_report(7, "formula delta = enumerated delta on every fixture/target, "
            "and prime covers match the Fox/SNF oracle, < 10 min")
def test_criterion_7_oracle_equivalence():
    start = time.time()
    targets = [
        ("Z2", FiniteGroupTable.cyclic(2), ("ab", (2,))),
        ("Z3", FiniteGroupTable.cyclic(3), ("ab", (3,))),
        ("Z4", FiniteGroupTable.cyclic(4), ("ab", (4,))),
        ("Z2^2", FiniteGroupTable.abelian([2, 2]), ("ab", (2, 2))),
        ("S3", construct_mpqs(2, 3).table, ("mpq", (2, 3))),
        ("A4", construct_mpqs(3, 2).table, ("mpq", (3, 2))),
        ("M37", construct_mpqs(3, 7).table, ("mpq", (3, 7))),
    ]
    for name in ALL_FIXTURES:
        P = fixture(name)
        assert P.num_generators <= 8
        G = Group(P)
        for label, T, (kind, params) in targets:
            if kind == "ab":
                formula = delta_abelian_of(P, list(params))
            else:
                formula = delta_mpqs(G, *params)
            brute = delta_oracle(P, T)
            assert formula == brute, (name, label, formula, brute)

    # homology of every prime-index normal subgroup, both routes
    Z2 = parse_presentation("gens: x, y; rels: [x,y]")
    for name in COVER_FIXTURES:
        P = Z2 if name is None else fixture(name)
        G = Group(P)
        for p in (2, 3):
            for images in _index_p_kernel_reps(G.abel, p):
                action = regular_cyclic_action(p, images)
                for q in (0, 2, 3, 5, 7):
                    if q == p:
                        continue
                    formula = b1_cover_cyclic(G, p, images, q)
                    assert formula == cover_b1(P, action, q), \
                        (name, p, images, q)
    assert time.time() - start < 600


# --------------------------------------------------------------------------
# 8. Property suites (standalone, exact).

@_report(8, "property suites: Fox identity, SNF transforms, field axioms, "
            "betasum, cover bounds, orbit invariance")
def test_criterion_8_property_suites():
    import random
    from hallinv.fields import extension_field, factorize, prime_field
    from hallinv.linalg import smith_normal_form
    from hallinv.presentations import Word
    from reference import CyclotomicField, root_of_unity

    rng = random.Random(2024)

    # Fox fundamental identity on random words
    for _ in range(120):
        w = Word([(rng.randrange(3), rng.choice([-2, -1, 1, 2]))
                  for _ in range(rng.randrange(8))])
        assert fox_fundamental_identity_holds(w, 3)

    # SNF unimodular transforms on random matrices: the basis V with
    # U A V = D for some unimodular U, the divisors those of the minors
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        form = smith_normal_form([dict(enumerate(row)) for row in rows], n,
                                 want_basis=True)
        assert form.divisors == determinantal_divisors(rows, n)
        assert smith_basis_holds(rows, form)

    # field axioms and root-of-unity orders, in the library's finite
    # fields and the tests' Q(zeta_N)
    for K, N in ((prime_field(7), 3), (extension_field(2, 2), 3),
                 (extension_field(3, 4), 5), (prime_field(11), 5),
                 (CyclotomicField(5), 5), (CyclotomicField(3), 6),
                 (CyclotomicField(12), 4)):
        zeta = root_of_unity(K, N)
        assert (zeta ** N).is_one()
        for r in factorize(N):
            assert not (zeta ** (N // r)).is_one()
        powers = {tuple((zeta ** k).coeffs) for k in range(N)}
        assert len(powers) == N

    # betasum totals and Galois-orbit invariance (the check is built into
    # the slow path of beta_distribution and raises on failure)
    for name in ("free:3", "rp:3", "product:2,2", "horizontal:2134"):
        P = fixture(name)
        abel = abelianization(P)
        for p, q in ((2, 3), (3, 2), (2, 0)):
            b = beta_distribution(P, p, q, check_orbits=True)
            assert b.total() == (p ** b.n_p - 1) // (p - 1)
            assert b == beta_distribution(P, p, q)

    # bounds and congruences on enumerated cyclic covers
    for name in ("free:2", "rp:3", "product:2,1"):
        P = fixture(name)
        G = Group(P)
        for N, q in ((2, 0), (3, 0), (4, 3), (6, 5)):
            d_sup = max_depth_of_order_dividing(G, N, q)
            base = G.abel.b1(q)
            for images in iproduct(range(N), repeat=P.num_generators):
                try:
                    b1K = b1_cover_cyclic(G, N, list(images), q)
                except ValueError:
                    continue
                check_bounds_congruence(base, b1K, P.num_generators, N, q,
                                        depth_sup=d_sup)
