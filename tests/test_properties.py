"""Property-based checks on generated presentations: the character/depth
formulas against brute-force enumeration where q has order less than
p - 1 mod p, so that one index-p subgroup's characters fall into several
Frobenius orbits, and the normal counts against the oracle's sum over the
groups of order k.  Each route is also run on the direct products of the
presentations with Z and on free products of two of them: the cyclic
covers against the oracle's, over fields past the Zech tables too,
abelian delta against the oracle, the Betti distribution against its
every-character walk and the oracle's covers, the Alexander matrix
against the reference Fox derivatives, and the index-2 and 3 counts
against Hall's recursion.  Derandomized, so every run draws the same
examples."""

from collections import Counter
from itertools import islice, product
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hallinv.census import (a_k_via_hall_recursion, a_normal,  # noqa: E402
                            census)
from hallinv.charvar import Group, b1_cover_cyclic  # noqa: E402
from hallinv.foxcalc import alexander_matrix  # noqa: E402
from hallinv.hall import construct_mpqs, delta_mpqs  # noqa: E402
from hallinv.oracle import (FiniteGroupTable, cover_b1,  # noqa: E402
                            delta_oracle, regular_cyclic_action)
from hallinv.presentations import Presentation, Word  # noqa: E402
from reference import (a_normal_by_enumeration,  # noqa: E402
                       alexander_entries, delta_abelian_of,
                       direct_product_with_Z, free_product)

M37 = construct_mpqs(3, 7).table
ABELIAN_TARGETS = [(factors, FiniteGroupTable.abelian(factors))
                   for factors in ([2, 4], [9])]


@st.composite
def presentations(draw, max_generators=3):
    """1 to max_generators generators; Baumslag-Solitar-type relators
    x a^i x^-1 a^-j on generators x, a, plus up to one random word."""
    l = draw(st.integers(1, max_generators))
    gen = st.integers(0, l - 1)
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        x, a = draw(gen), draw(gen)
        i, j = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rels.append(Word([(x, 1), (a, i), (x, -1), (a, -j)]))
    for _ in range(draw(st.integers(0, 1))):
        rels.append(Word(draw(st.lists(
            st.tuples(gen, st.sampled_from([-2, -1, 1, 2])),
            min_size=1, max_size=4))))
    return Presentation([f"g{k}" for k in range(l)],
                        [w for w in rels if not w.is_identity()])


def _epimorphisms(P, N):
    """Every map of the generators onto Z_N that kills the relators, in
    lexicographic order, each built when asked for."""
    sums = [[r.exponent_sum(g) for g in range(P.num_generators)]
            for r in P.relators]
    return ([*v] for v in product(range(N), repeat=P.num_generators)
            if gcd(N, *v) == 1 and
            all(sum(s * a for s, a in zip(row, v)) % N == 0 for row in sums))


@st.composite
def products(draw):
    """A presentation as drawn, its direct product with Z, and the free
    product of two more with at most two generators each."""
    P = draw(presentations())
    small = presentations(max_generators=2)
    return P, direct_product_with_Z(P), free_product(draw(small), draw(small))


SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


@SETTINGS
@given(presentations())
def test_delta_mpqs_matches_oracle_at_3_7(P):
    assert delta_mpqs(P, 3, 7) == delta_oracle(P, M37), P


@SETTINGS
@given(products())
def test_cyclic_cover_matches_oracle(Ps):
    # (3, 257) and (19, 2) take values in F_{257^2} and F_{2^18}, past the
    # Zech tables: the element route
    for P, (N, q) in product(Ps, ((3, 7), (7, 2), (3, 257), (19, 2))):
        for images in islice(_epimorphisms(P, N), 3):
            assert b1_cover_cyclic(P, N, images, q) == \
                cover_b1(P, regular_cyclic_action(N, images), q), \
                (P, N, images, q)


@SETTINGS
@given(presentations())
def test_a_normal_matches_enumeration(P):
    for k in (2, 3, 4, 5, 6, 9, 10):
        assert a_normal(P, k) == a_normal_by_enumeration(P, k), (P, k)


@SETTINGS
@given(products())
def test_abelian_delta_matches_oracle(Ps):
    for P, (factors, T) in product(Ps, ABELIAN_TARGETS):
        assert delta_abelian_of(P, factors) == delta_oracle(P, T), \
            (P, factors)


@SETTINGS
@given(products())
def test_beta_walk_matches_every_character_and_the_covers(Ps):
    # the orbit walk against the walk that ranks every character, and its
    # distribution against the oracle's Betti numbers of the index-p
    # covers, one per subgroup (the first nonzero image 1)
    for P, (p, q) in product(Ps, ((2, 3), (3, 2), (2, 0))):
        G = Group(P)
        walk = G.depths(p, q)
        assert walk == G.depths(p, q, check_orbits=True), (P, p, q)
        jumps = Counter()
        for images in _epimorphisms(P, p):
            if next(a for a in images if a) == 1:
                b1 = cover_b1(P, regular_cyclic_action(p, images), q)
                jumps[(b1 - G.abel.b1(q)) // (p - 1)] += 1
        assert walk[1].counts == jumps, (P, p, q)


@SETTINGS
@given(products())
def test_alexander_matrix_matches_fox_reference(Ps):
    for P in Ps:
        A = alexander_matrix(P)
        assert A.entries == alexander_entries(P, A.abel), P


@SETTINGS
@given(products())
def test_low_index_census_matches_hall_recursion(Ps):
    for P, k in product(Ps, (2, 3)):
        assert census(P, k)["a_k"] == a_k_via_hall_recursion(P, k), (P, k)
