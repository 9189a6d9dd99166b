import ast
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import hallinv
from hallinv import oracle
from hallinv.braids import fixture
from hallinv.foxcalc import abelianization
from hallinv.hall import construct_mpqs
from hallinv.oracle import (
    BudgetExceeded, FiniteGroupTable, aut_order, cover_b1, cover_homology,
    delta_oracle, hom_count, regular_cyclic_action,
)
from hallinv.presentations import (
    free_group, nonorientable_surface_group, orientable_surface_group,
    parse_presentation, product_of_free_groups,
)
from reference import direct_product_with_Z, letters

Z2_PRES = parse_presentation("gens: x, y; rels: [x,y]")


def brute_counts(P, T):
    """(|Hom|, |Epi|) from every one of the n^l image tuples, with no
    pruning, no plan and no Moebius inversion: the reference the search
    is checked against."""
    def value(letters, images):
        x = T.identity
        for g, s in letters:
            x = T.mul[x][images[g] if s > 0 else T.inv[images[g]]]
        return x

    relators = [letters(r) for r in P.relators]
    hom = epi = 0
    for images in product(range(T.order), repeat=P.num_generators):
        if all(value(r, images) == T.identity for r in relators):
            hom += 1
            epi += len(T.closure(images)) == T.order
    return hom, epi


def test_table_axioms_checked():
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 1]])
    T = FiniteGroupTable.cyclic(6)
    assert T.identity == 0 and T.inv[2] == 4
    # the mixed-radix numbering, first coordinate least significant:
    # row a of an abelian table is the regular action of element a
    assert T.mul == [[(a + b) % 6 for b in range(6)] for a in range(6)]
    assert FiniteGroupTable.abelian([2, 4]).mul == [
        [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 4, 5, 6, 7, 0, 1], [3, 2, 5, 4, 7, 6, 1, 0],
        [4, 5, 6, 7, 0, 1, 2, 3], [5, 4, 7, 6, 1, 0, 3, 2],
        [6, 7, 0, 1, 2, 3, 4, 5], [7, 6, 1, 0, 3, 2, 5, 4]]
    assert oracle.regular_abelian_action([2, 3], [[1, 0, 1], [0, 1, 2]]) \
        == [(1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1), (5, 4, 1, 0, 3, 2)]
    assert regular_cyclic_action(5, [2, 0]) == [(2, 3, 4, 0, 1),
                                                (0, 1, 2, 3, 4)]


def test_symmetric_table():
    S3 = FiniteGroupTable.symmetric(3)
    assert S3.order == 6
    assert any(S3.mul[a][b] != S3.mul[b][a] for a in range(6) for b in range(a))
    assert sorted(len(H) for H in S3.all_subgroups()) == [1, 2, 2, 2, 3, 6]
    mu = S3.moebius()
    by_size = {}
    for H, m in mu.items():
        by_size.setdefault(len(H), []).append(m)
    assert by_size[6] == [1] and by_size[3] == [-1]
    assert by_size[2] == [-1, -1, -1] and by_size[1] == [3]


def test_a4_moebius():
    S4 = FiniteGroupTable.symmetric(4)
    evens = [i for i in range(24)
             if sum(1 for a in range(4) for b in range(a + 1, 4)
                    if sorted(__import__("itertools").permutations(range(4)))[i][a]
                    > sorted(__import__("itertools").permutations(range(4)))[i][b])
             % 2 == 0]
    A4 = S4.subgroup_table(S4.closure(evens))
    mu = A4.moebius()
    by_size = {}
    for H, m in mu.items():
        by_size.setdefault(len(H), []).append(m)
    assert by_size[12] == [1]
    assert by_size[4] == [-1]
    assert sorted(by_size[3]) == [-1, -1, -1, -1]
    assert by_size[2] == [0, 0, 0]
    assert by_size[1] == [4]


def test_hom_count_free():
    S2 = FiniteGroupTable.symmetric(2)
    assert hom_count(free_group(3), S2) == 8
    S3 = FiniteGroupTable.symmetric(3)
    assert hom_count(free_group(2), S3) == 36


def test_hom_count_commuting_pairs():
    # |Hom(Z^2, S_3)| = sum over g of |C(g)| = 6+2+2+2+3+3
    S3 = FiniteGroupTable.symmetric(3)
    assert hom_count(Z2_PRES, S3) == 18
    assert hom_count(Z2_PRES, S3) == sum(
        1 for g in range(6) for h in range(6)
        if S3.mul[g][h] == S3.mul[h][g])


def test_epi_count_a4():
    M = __import__("hallinv.hall", fromlist=["construct_mpqs"])
    A4 = M.construct_mpqs(3, 2).table
    assert hom_count(free_group(2), A4, mode="epi") == 96
    assert delta_oracle(free_group(2), A4) == 4


def test_epi_paths_agree():
    # Moebius inversion vs a generation check on every tuple
    S3 = FiniteGroupTable.symmetric(3)
    Z4 = FiniteGroupTable.cyclic(4)
    for P in (free_group(2), Z2_PRES, nonorientable_surface_group(2)):
        for T in (S3, Z4):
            assert hom_count(P, T, "epi") == brute_counts(P, T)[1]


def test_counting_strategies_agree():
    # the block convolution and the component search (a central
    # generator, free factors) must match unpruned enumeration
    S3 = FiniteGroupTable.symmetric(3)
    groups = [orientable_surface_group(2), nonorientable_surface_group(3),
              product_of_free_groups([2, 2]),
              direct_product_with_Z(free_group(2)),
              direct_product_with_Z(product_of_free_groups([2, 1]))]
    for P in groups:
        assert hom_count(P, S3) == brute_counts(P, S3)[0]


def test_components_counted_separately():
    # horizontal:123456 is F_5 x Z: the central generator, then five
    # one-generator components, 21 + 21 * 5 * 21 assignments in all
    M37 = construct_mpqs(3, 7).table
    P = fixture("horizontal:123456")
    assert hom_count(P, M37, budget=2226) == 4188345
    with pytest.raises(BudgetExceeded):
        hom_count(P, M37, budget=2225)


def test_budget_charged_on_every_search():
    # F_2 x Z into S_3 takes 6 + 6 * (6 + 6) = 78 assignments; none may
    # go uncharged
    S3 = FiniteGroupTable.symmetric(3)
    with pytest.raises(BudgetExceeded):
        hom_count(direct_product_with_Z(free_group(2)), S3, budget=40)


def test_lattice_and_automorphisms_charged_to_the_budget():
    # S_4's lattice takes 9522 closure elements and its automorphism count
    # 24^2 = 576 image tuples; past the budget both raise, and at the
    # default budget the counts are the unpruned ones
    S4 = FiniteGroupTable.symmetric(4)
    with pytest.raises(BudgetExceeded):
        S4.all_subgroups(budget=9521)
    with pytest.raises(BudgetExceeded):
        hom_count(free_group(2), S4, "epi", budget=9521)
    with pytest.raises(BudgetExceeded):
        aut_order(S4, budget=575)
    assert len(S4.all_subgroups(budget=9522)) == 30
    assert aut_order(S4, budget=576) == 24
    assert hom_count(free_group(2), FiniteGroupTable.symmetric(4), "epi") \
        == brute_counts(free_group(2), S4)[1] == 216
    assert delta_oracle(free_group(2), FiniteGroupTable.symmetric(4)) == 9
    # S_3's lattice (102 elements) is charged before the epimorphism
    # search; with the lattice built, the search's own charge still trips
    S3 = FiniteGroupTable.symmetric(3)
    P = parse_presentation("gens: x, y, z; rels: x*y*x*y, y*z*y*z, z*x*z*x")
    S3.moebius(budget=102)
    with pytest.raises(BudgetExceeded):
        hom_count(P, S3, mode="epi", budget=101)


def test_aut_orders():
    assert aut_order(FiniteGroupTable.symmetric(3)) == 6
    assert aut_order(FiniteGroupTable.abelian([2, 2])) == 6
    assert aut_order(FiniteGroupTable.cyclic(8)) == 4
    assert aut_order(FiniteGroupTable.abelian([2, 4])) == 8


def test_budget_exceeded():
    S3 = FiniteGroupTable.symmetric(3)
    # pairwise-entangled relators form one component, and its search is
    # larger than the budget
    P = parse_presentation("gens: x, y, z; rels: x*y*x*y, y*z*y*z, z*x*z*x")
    with pytest.raises(BudgetExceeded):
        hom_count(P, S3, mode="epi", budget=10)
    assert hom_count(P, S3, mode="all", budget=10 ** 6) > 0


def test_cover_homology_free_group():
    # index-2 subgroup of F_2 is F_3
    action = regular_cyclic_action(2, [1, 0])
    betti, torsion = cover_homology(free_group(2), action)
    assert (betti, torsion) == (3, [])


@pytest.mark.parametrize("action", [
    # the regular action of Z_3 + Z_2, and S_4 on 4 points, not regular
    oracle.regular_abelian_action([3, 2], [[1, 0, 2], [0, 1, 1]]),
    [(1, 2, 3, 0), (1, 0, 2, 3), (0, 1, 3, 2)],
])
def test_cover_fox_rows_match_letter_by_letter(monkeypatch, action):
    # the rows cover_homology reduces, against every Fox term's
    # permutation composed letter by letter: seeded relators with
    # exponents up to +-5, each a random word raised to the order of its
    # permutation so that it acts as the identity
    import random
    from hallinv.presentations import Presentation, Word
    from reference import cover_fox_rows, word_permutation
    rows = []
    smith = oracle.smith_normal_form
    monkeypatch.setattr(oracle, "smith_normal_form",
                        lambda r, cols: rows.append(r) or smith(r, cols))
    rng = random.Random(31)
    for _ in range(20):
        relators = []
        for _ in range(rng.randrange(1, 4)):
            w = Word([(rng.randrange(3), rng.choice([-5, -3, -2, -1,
                                                     1, 2, 3, 5]))
                      for _ in range(rng.randrange(1, 7))])
            # both groups have exponent dividing 12
            relators.append(next(w ** m for m in range(1, 13)
                                 if word_permutation(w ** m, action)
                                 == sorted(action[0])))
        P = Presentation(("a", "b", "c"), relators)
        cover_homology(P, action)
        got = [{col: v for col, v in row.items() if v} for row in rows.pop()]
        assert got == cover_fox_rows(P, action), relators


def test_regular_cyclic_action_needs_positive_order():
    for N in (0, -3):
        with pytest.raises(ValueError):
            regular_cyclic_action(N, [1, 0])


def test_cover_homology_z2():
    # finite-index subgroups of Z^2 are Z^2
    for images in ([1, 0], [1, 2], [0, 1]):
        action = regular_cyclic_action(3, images)
        betti, torsion = cover_homology(Z2_PRES, action)
        assert (betti, torsion) == (2, [])


def test_cover_homology_trivial_cover():
    # k = 1 returns H_1(G) itself
    P = nonorientable_surface_group(2)
    betti, torsion = cover_homology(P, [(0,), (0,)])
    abel = abelianization(P)
    assert betti == abel.free_rank and torsion == abel.torsion


def test_cover_homology_nontransitive_rejected():
    with pytest.raises(ValueError):
        cover_homology(free_group(2), [(0, 1), (0, 1)])


def test_cover_homology_needs_a_homomorphism():
    # <x | x^2> -> Z_3, x -> 1 is not a homomorphism: x^2 shifts by 2
    P = parse_presentation("gens: x\nrels: x^2\n")
    with pytest.raises(ValueError, match="not a homomorphism"):
        cover_homology(P, regular_cyclic_action(3, [1]))
    assert cover_homology(P, regular_cyclic_action(2, [1])) == (0, [])


def test_regular_cyclic_action_needs_generating_images():
    for N, images in ((3, [0, 0]), (4, [2, 0]), (6, [2, 4])):
        with pytest.raises(ValueError, match=f"do not generate Z_{N}"):
            regular_cyclic_action(N, images)
    assert len(regular_cyclic_action(6, [2, 3])) == 2


def test_cover_b1_klein_bottle():
    # the orientation double cover of the Klein bottle is the torus
    P = nonorientable_surface_group(2)
    action = regular_cyclic_action(2, [1, 1])
    assert cover_b1(P, action, 0) == 2


def test_counting_strategies_agree_random():
    # random presentations: whichever route counts them must agree with
    # unpruned enumeration, in both modes
    import random
    from hallinv.presentations import Presentation, Word
    rng = random.Random(77)
    S3 = FiniteGroupTable.symmetric(3)
    Z4 = FiniteGroupTable.cyclic(4)
    for _ in range(120):
        l = rng.randint(1, 4)
        rels = []
        for _ in range(rng.randint(0, 3)):
            w = Word([(rng.randrange(l), rng.choice([-2, -1, 1, 2]))
                      for _ in range(rng.randint(1, 5))])
            if not w.is_identity():
                rels.append(w)
        P = Presentation([f"g{i}" for i in range(l)], rels)
        for T in (S3, Z4):
            assert (hom_count(P, T, "all"), hom_count(P, T, "epi")) == \
                brute_counts(P, T)


def unreduced_count(relators, l, T):
    """The component search without conjugation orbits or check masks:
    every node tries every element and walks the letters of each relator
    it completes.  Returns (|Hom|, the partial assignments it makes), the
    count the budget is charged."""
    n = T.order
    images = [None] * l
    charges = 0
    words = [letters(r) for r in relators]

    def value(letters):
        x = T.identity
        for g, s in letters:
            x = T.mul[x][images[g] if s > 0 else T.inv[images[g]]]
        return x

    def count_forest(forest):
        nodes, free = forest
        total = n ** free
        for child in nodes:
            if not total:
                break
            total *= count_node(child)
        return total

    def count_node(node):
        nonlocal charges
        g, checks, forest = node
        total = 0
        for v in range(n):
            charges += 1
            images[g] = v
            # a check's first entry is the number of the relator it checks
            if all(value(words[check[0]]) == T.identity
                   for check in checks):
                total += count_forest(forest)
        return total

    return count_forest(oracle._search_plan(tuple(relators), l)), charges


def dihedral_table(n):
    """D_n of order 2n, r^a s^b as (a, b), s r s = r^-1."""
    elts = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elts)}
    return FiniteGroupTable([[index[((a + (-c if b else c)) % n, (b + d) % 2)]
                              for c, d in elts] for a, b in elts])


def quaternion_table():
    """Q_8 as signed units 1, i, j, k."""
    # UNITS[u][v] = (sign, unit) of the product of units u and v
    units = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
    elts = [(s, u) for s in (1, -1) for u in range(4)]
    index = {e: i for i, e in enumerate(elts)}
    return FiniteGroupTable([[index[(s * t * units[u][v][0], units[u][v][1])]
                              for t, v in elts] for s, u in elts])


# targets whose centralizers nest deeply: a generator's image cuts the
# group acting on the next one down to its centralizer
DEEP_TARGETS = {
    "S3": FiniteGroupTable.symmetric(3), "A4": construct_mpqs(3, 2).table,
    "M37": construct_mpqs(3, 7).table, "S4": FiniteGroupTable.symmetric(4),
    "D4": dihedral_table(4), "Q8": quaternion_table(),
}


def random_presentation(rng):
    """2-3 generators: up to two Baumslag-Solitar-type relators
    x a^i x^-1 a^-j and one to three random words, each on one or two
    generators, so the search often splits into several components."""
    from hallinv.presentations import Presentation, Word
    l = rng.randint(2, 3)
    rels = []
    for _ in range(rng.randint(0, 2)):
        x, a = rng.randrange(l), rng.randrange(l)
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        rels.append(Word([(x, 1), (a, i), (x, -1), (a, -j)]))
    for _ in range(rng.randint(1, 3)):
        gens = rng.sample(range(l), rng.randint(1, 2))
        rels.append(Word([(rng.choice(gens), rng.choice([-2, -1, 1, 2]))
                          for _ in range(rng.randint(2, 6))]))
    return Presentation([f"g{k}" for k in range(l)],
                        [w for w in rels if not w.is_identity()])


def check_search_up_to_conjugacy(P, targets=tuple(DEEP_TARGETS)):
    """The search over conjugation orbits counts what the unreduced search
    and unpruned enumeration (up to 20000 image tuples) count, and trips
    the budget exactly past the unreduced charge."""
    relators = tuple(r for r in P.relators if not r.is_identity())
    l = P.num_generators
    for name in targets:
        T = DEEP_TARGETS[name]
        count, charges = unreduced_count(relators, l, T)
        assert oracle._dfs_count(relators, l, T, charges) == count, (P, name)
        if charges:
            with pytest.raises(BudgetExceeded):
                oracle._dfs_count(relators, l, T, charges - 1)
        if T.order ** l <= 20000:
            assert (count, hom_count(P, T, "epi")) == brute_counts(P, T), \
                (P, name)


@pytest.mark.parametrize("seed", range(25))
def test_search_up_to_conjugacy_random(seed):
    # seeded, so every run draws the same presentations
    import random
    check_search_up_to_conjugacy(
        random_presentation(random.Random(f"conjugacy:{seed}")))


@pytest.mark.parametrize("P, targets", [
    # one component three nodes deep: each image shrinks the centralizer
    (parse_presentation("gens: x, y, z; rels: x*y*x*y, y*z*y*z, z*x*z*x"),
     tuple(DEEP_TARGETS)),
    # a central generator, then two components under its centralizer
    (parse_presentation("gens: x, y, z; rels: [x,y], [y,z]"),
     tuple(DEEP_TARGETS)),
    (parse_presentation("gens: w, x, y, z; rels: [w,x], [x,y], [y,z], w^2"),
     tuple(DEEP_TARGETS)),
    (direct_product_with_Z(free_group(2)), tuple(DEEP_TARGETS)),
    (product_of_free_groups([2, 2]), tuple(DEEP_TARGETS)),
    (fixture("horizontal:2134"), tuple(DEEP_TARGETS)),
    # relators of 22 to 80 letters, one reading a generator 38 times, so a
    # check folds long generator-free segments; the unreduced reference
    # walks 4-8M partial assignments on M37 and S4 (half a minute each),
    # so those two are left out
    (fixture("horizontal:31425"), ("S3", "A4", "D4", "Q8")),
], ids=["triangle", "chain3", "chain4", "F2xZ", "F2xF2", "horizontal2134",
        "horizontal31425"])
def test_search_up_to_conjugacy_fixed(P, targets):
    check_search_up_to_conjugacy(P, targets)


def test_one_plan_serves_every_table():
    # the plan is cached across tables and the check masks are not: one
    # plan searched against two tables in turn, and back, gives each
    # table its own count
    P = fixture("horizontal:2134")
    relators, l = tuple(P.relators), P.num_generators
    tables = [DEEP_TARGETS["S3"], DEEP_TARGETS["Q8"], DEEP_TARGETS["S3"]]
    want = [unreduced_count(relators, l, T)[0] for T in tables]
    oracle._search_plan.cache_clear()
    got = [oracle._dfs_count(relators, l, T, 10 ** 8) for T in tables]
    assert oracle._search_plan.cache_info().misses == 1
    assert got == want and want[0] != want[1]


@pytest.mark.parametrize("target", ["S4", "M37"])
def test_moebius_by_conjugacy_class(target, monkeypatch):
    # one hom count per conjugacy class of subgroups, times the class
    # size, gives the per-subgroup Moebius sum; M37's seven Z_3 subgroups
    # cost one count
    T = DEEP_TARGETS[target]
    mu = T.moebius()
    classes = {frozenset(frozenset(T.mul[T.mul[t][h]][T.inv[t]] for h in H)
                         for t in range(T.order))
               for H, m in mu.items() if m}
    groups = (free_group(2), Z2_PRES, nonorientable_surface_group(3),
              fixture("horizontal:2134"))
    per_subgroup = [sum(m * hom_count(P, T.subgroup_table(H))
                        for H, m in mu.items() if m) for P in groups]
    calls = []

    def counted(P, sub, mode="all", budget=10 ** 8):
        calls.append(sub.order)
        return hom_count(P, sub, mode, budget)

    monkeypatch.setattr(oracle, "hom_count", counted)
    for P, want in zip(groups, per_subgroup):
        calls.clear()
        assert oracle._epi_by_moebius(P, T, 10 ** 8) == want
        assert len(calls) == len(classes)
    if target == "M37":
        assert sum(1 for H, m in mu.items() if m and len(H) == 3) == 7
        assert calls.count(3) == 1


def test_abelian_cover_matches_oracle():
    # non-cyclic abelian covers: depth formula vs Fox/SNF on the regular
    # action of the quotient
    import random
    from hallinv.charvar import b1_cover_abelian
    from hallinv.oracle import regular_abelian_action
    rng = random.Random(19)
    groups = [free_group(2), nonorientable_surface_group(3), Z2_PRES,
              product_of_free_groups([2, 1])]
    cases = 0
    while cases < 25:
        P = rng.choice(groups)
        factors = rng.choice([[2, 2], [2, 4], [3, 3], [2, 2, 2]])
        q = rng.choice([0, 3, 5, 7])
        if q and any(c % q == 0 for c in factors):
            continue
        images = [[rng.randrange(c) for _ in range(P.num_generators)]
                  for c in factors]
        try:
            want = b1_cover_abelian(P, factors, images, q)
        except ValueError:
            continue
        action = regular_abelian_action(factors, images)
        assert cover_b1(P, action, q) == want, (factors, images, q)
        cases += 1


def test_square_covers_of_arrangements_match_depth_formula():
    # the Z_4^2 and Z_5^2 covers of two arrangement groups, up to 625 x 200
    # Fox matrices: one Smith form per cover gives b1 at q = 0 and q > 0,
    # equal to the depth formula
    import random
    from hallinv.charvar import Group, b1_cover_abelian
    from hallinv.oracle import mod_q_betti, regular_abelian_action
    rng = random.Random(25)
    for name in ("deleted_b3", "non_fano"):
        G = Group(fixture(name))
        l = G.P.num_generators
        for c, qs in ((4, (0, 3)), (5, (0, 2))):
            while True:
                images = [[rng.randrange(c) for _ in range(l)]
                          for _ in range(2)]
                if any((images[0][i] * images[1][j]
                        - images[0][j] * images[1][i]) % c in (1, c - 1)
                       for i in range(l) for j in range(l)):
                    break
            betti, torsion = cover_homology(
                G.P, regular_abelian_action([c, c], images))
            for q in qs:
                assert mod_q_betti(betti, torsion, q) == \
                    b1_cover_abelian(G, [c, c], images, q), (name, c, q)


def test_cover_matches_depth_formula():
    # Fox/SNF value equals the depth formula for small cyclic covers
    from hallinv.charvar import b1_cover_cyclic
    from itertools import product as iproduct
    from math import gcd
    groups = [free_group(2), nonorientable_surface_group(3),
              product_of_free_groups([2, 1])]
    for P in groups:
        l = P.num_generators
        for N, q in [(2, 0), (2, 3), (3, 2), (3, 0)]:
            for images in iproduct(range(N), repeat=l):
                if gcd(N, *images) != 1:
                    continue
                try:
                    want = b1_cover_cyclic(P, N, list(images), q)
                except ValueError:
                    continue
                action = regular_cyclic_action(N, list(images))
                assert cover_b1(P, action, q) == want


def test_invariant_checks_survive_optimize():
    # under python -O a bare assert vanishes, and an |Aut| that does not
    # divide the epimorphism count would give 18 // 4 = 4
    script = "\n".join([
        "from hallinv import cli, oracle",
        "from hallinv.errors import InvariantViolation",
        "from hallinv.presentations import free_group",
        "oracle.aut_order = cli.aut_order = lambda T, budget=None: 4",
        "S3 = oracle.FiniteGroupTable.symmetric(3)",
        "for call in (lambda: oracle.delta_oracle(free_group(2), S3),",
        "             lambda: cli.main(['oracle', '--target', 's3',",
        "                               '--mode', 'delta',",
        "                               '--fixture', 'free:2'])):",
        "    try:",
        "        call()",
        "        print('returned')",
        "    except InvariantViolation:",
        "        print('raised')",
    ])
    src = str(Path(hallinv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.split() == ["raised", "raised"], proc.stderr


def test_oracle_independent_of_formula_routes():
    # the oracle checks the character/depth formulas from the outside, so
    # it may use the Smith form, Fox derivatives and the invariant
    # exception, nothing else of ours
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "hallinv"
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hallinv":
                module = module.removeprefix("hallinv.")
                internal |= {(module, a.name) for a in node.names}
    assert {m for m, _ in internal} == {"linalg", "foxcalc", "errors"}
    assert {name for m, name in internal if m == "foxcalc"} == \
        {"fox_terms"}
