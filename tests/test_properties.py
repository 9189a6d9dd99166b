"""Property-based checks on generated presentations: the character/depth
formulas against brute-force enumeration where q has order less than
p - 1 mod p, so that one index-p subgroup's characters fall into several
Frobenius orbits, and the normal counts against the oracle's sum over the
groups of order k.  Derandomized, so every run draws the same examples."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hallinv.census import a_normal  # noqa: E402
from hallinv.charvar import b1_cover_cyclic  # noqa: E402
from hallinv.hall import construct_mpqs, delta_mpqs  # noqa: E402
from hallinv.oracle import (cover_b1, delta_oracle,  # noqa: E402
                            regular_cyclic_action)
from hallinv.presentations import Presentation, Word  # noqa: E402
from reference import a_normal_by_enumeration  # noqa: E402

M37 = construct_mpqs(3, 7).table


@st.composite
def presentations(draw):
    """1-3 generators; Baumslag-Solitar-type relators x a^i x^-1 a^-j on
    generators x, a, plus up to one random word."""
    l = draw(st.integers(1, 3))
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
    """Every map of the generators onto Z_N that kills the relators."""
    sums = [[r.exponent_sum(g) for g in range(P.num_generators)]
            for r in P.relators]
    images = [[]]
    for _ in range(P.num_generators):
        images = [v + [a] for v in images for a in range(N)]
    return [v for v in images if gcd(N, *v) == 1 and
            all(sum(s * a for s, a in zip(row, v)) % N == 0 for row in sums)]


SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


@SETTINGS
@given(presentations())
def test_delta_mpqs_matches_oracle_at_3_7(P):
    assert delta_mpqs(P, 3, 7) == delta_oracle(P, M37), P


@SETTINGS
@given(presentations())
def test_cyclic_cover_matches_oracle(P):
    for N, q in ((3, 7), (7, 2)):
        for images in _epimorphisms(P, N)[:3]:
            assert b1_cover_cyclic(P, N, images, q) == \
                cover_b1(P, regular_cyclic_action(N, images), q), \
                (P, N, images, q)


@SETTINGS
@given(presentations())
def test_a_normal_matches_enumeration(P):
    for k in (2, 3, 4, 5, 6, 9, 10):
        assert a_normal(P, k) == a_normal_by_enumeration(P, k), (P, k)
