import random
from itertools import permutations

import pytest

from hallinv import braids
from hallinv.braids import fixture, horizontal_arrangement_group
from hallinv.foxcalc import abelianization
from hallinv.errors import InvariantViolation
from hallinv.presentations import Word, free_group, render_presentation
from reference import (FROZEN_FIXTURES, BraidWord, abelianized,
                       apply_automorphism, artin_action,
                       artin_action_reversed, build_fixture, compose,
                       conjugate_braid, full_twist, identity_automorphism,
                       is_identity, linking_matrix, monodromy_presentation,
                       non_fano_group, pure_braid_presentation,
                       pure_generator, semidirect_presentation,
                       xi_from_permutation)


def braid(k, *letters):
    return BraidWord(k, letters)


def test_artin_elementary():
    a = artin_action(braid(2, (1, 1)))
    assert a.images == (Word([(0, 1), (1, 1), (0, -1)]), Word([(0, 1)]))
    a2 = artin_action(braid(2, (1, 1), (1, 1)))
    assert a2.images == (Word([(0, 1), (1, 1), (0, 1), (1, -1), (0, -1)]),
                         Word([(0, 1), (1, 1), (0, -1)]))
    assert is_identity(artin_action(BraidWord.identity(3)))


def test_artin_inverse_letters_cancel():
    b = braid(3, (1, 1), (2, 1), (1, -1))
    assert is_identity(artin_action(b * b ** -1))


def test_braid_relations_hold():
    for k in range(3, 7):
        for i in range(1, k - 1):
            lhs = artin_action(braid(k, (i, 1), (i + 1, 1), (i, 1)))
            rhs = artin_action(braid(k, (i + 1, 1), (i, 1), (i + 1, 1)))
            assert lhs == rhs
        for i in range(1, k - 1):
            for j in range(i + 2, k):
                lhs = artin_action(braid(k, (i, 1), (j, 1)))
                rhs = artin_action(braid(k, (j, 1), (i, 1)))
                assert lhs == rhs


def test_conjugation_functoriality():
    # letters act left to right, so word concatenation reverses under
    # classical function composition: artin(uv) = artin(v) o artin(u),
    # and a^b = b^-1 a b maps to artin(b) o artin(a) o artin(b)^-1
    a = pure_generator(1, 2, 3)
    b = pure_generator(2, 3, 3)
    lhs = artin_action(conjugate_braid(a, b))
    rhs = compose(compose(artin_action(b), artin_action(a)),
                  artin_action(b ** -1))
    assert lhs == rhs
    assert conjugate_braid(a, BraidWord.identity(3)) == a


def test_pure_generator_forms():
    assert pure_generator(1, 2, 2) == braid(2, (1, 1), (1, 1))
    A13 = pure_generator(1, 3, 3)
    assert A13.letters == ((2, 1), (1, 1), (1, 1), (2, -1))
    with pytest.raises(ValueError):
        pure_generator(2, 2, 3)


def test_full_twist_adjacent_is_center():
    # the full twist on all of 1..3 acts as conjugation by x1 x2 x3
    ft = full_twist([1, 2, 3], 3)
    a = artin_action(ft)
    w = Word([(0, 1), (1, 1), (2, 1)])
    assert list(a.images) == [w * Word.generator(i) * w.inverse()
                              for i in range(3)]


def test_pure_braids_act_trivially_on_homology():
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for b in (pure_generator(1, 3, 4), pure_generator(2, 4, 4),
              full_twist([1, 2, 4], 4), full_twist([1, 3, 4], 4),
              xi_from_permutation([3, 1, 4, 2, 5]) ** 2):
        assert abelianized(artin_action(b)) == identity


def test_pure_braids_fix_boundary_product():
    full = Word([(i, 1) for i in range(4)])
    for b in (pure_generator(1, 3, 4), full_twist([2, 3, 4], 4),
              full_twist([1, 2, 4], 4),
              xi_from_permutation([2, 1, 4, 3, 5]) ** 2):
        assert apply_automorphism(artin_action(b), full) == full


def test_linking_numbers():
    assert linking_matrix(pure_generator(1, 3, 4)) == {(1, 3): 1}
    assert linking_matrix(full_twist([1, 2, 4], 4)) == \
        {(1, 2): 1, (1, 4): 1, (2, 4): 1}
    assert linking_matrix(full_twist([2, 3, 5], 6)) == \
        {(2, 3): 1, (2, 5): 1, (3, 5): 1}
    with pytest.raises(ValueError):
        linking_matrix(braid(2, (1, 1)))  # not pure


def test_xi_from_permutation():
    assert xi_from_permutation([2, 1, 3, 4]) == pure_generator(1, 2, 3)
    want = (pure_generator(1, 3, 4) * pure_generator(2, 3, 4)
            * pure_generator(2, 4, 4))
    assert xi_from_permutation([3, 1, 4, 2, 5]) == want
    assert xi_from_permutation([1, 2, 3, 4]) == BraidWord.identity(3)
    with pytest.raises(ValueError):
        xi_from_permutation([1, 1, 2])


def test_semidirect_presentation_shapes():
    phi = identity_automorphism(1)
    P = semidirect_presentation([phi])
    abel = abelianization(P)
    assert (abel.free_rank, abel.torsion) == (2, [])

    P = build_fixture("horizontal:2134")
    assert P.num_generators == 4
    assert abelianization(P).free_rank == 4

    with pytest.raises(ValueError):
        semidirect_presentation([])


def test_monodromy_presentation_drops_trivial_relators():
    phi = identity_automorphism(2)
    P = monodromy_presentation([phi])
    assert P.relators == ()


def test_pure_braid_presentation_h1():
    P = pure_braid_presentation(4)
    abel = abelianization(P)
    assert (abel.free_rank, abel.torsion) == (6, [])
    P3 = pure_braid_presentation(3)
    assert abelianization(P3).free_rank == 3


def test_frozen_fixtures_match_braid_code():
    # golden tests read the frozen files; this is the one place the braid
    # machinery is required to reproduce them
    for name in FROZEN_FIXTURES:
        frozen = fixture(name)
        rebuilt = build_fixture(name)
        assert render_presentation(rebuilt) == render_presentation(frozen), name


def test_library_horizontal_builder_matches_braid_toolkit():
    # the library builds each horizontal:<perm> with no frozen file in one
    # function; the toolkit composes the same braid from BraidWord,
    # pure_generator and artin_action, checked by the tests above
    rng = random.Random(7)
    taus = [list(tau) for n in range(2, 7)
            for tau in permutations(range(1, n + 1))]
    taus += [rng.sample(range(1, n + 1), n) for n in (7, 8) for _ in range(5)]
    for tau in taus:
        name = "horizontal:" + "".join(map(str, tau))
        assert render_presentation(horizontal_arrangement_group(tau)) == \
            render_presentation(build_fixture(name)), name


def test_horizontal_builder_checks_pure_braid_invariant(monkeypatch):
    # an elementary action that does not permute H_1 sends x1 to
    # x1 x2^4 under the square of A_{1,2}, which no pure braid does
    def skewed(i, k, forward):
        images = [Word.generator(j) for j in range(k)]
        images[i - 1] = Word.generator(i - 1) * Word.generator(i)
        return images

    monkeypatch.setattr(braids, "_elementary_images", skewed)
    with pytest.raises(InvariantViolation):
        horizontal_arrangement_group([2, 1, 3])


def test_fixture_families():
    assert fixture("free:3") == free_group(3)
    assert fixture("product:2,2").num_generators == 4
    assert fixture("surface:2").num_generators == 4
    assert fixture("rp:3").num_generators == 3
    with pytest.raises(ValueError):
        fixture("nonsense")


def test_reversed_convention_differs():
    # the alternate elementary action is documented and really is different
    b = braid(3, (1, 1), (2, 1))
    assert artin_action(b) != artin_action_reversed(b)


def test_full_twist_convention_selected_by_goldens():
    # building the non-Fano group with the opposite conjugation side for
    # full twists breaks the published distribution; the frozen side is
    # the one that reproduces it (see reference.full_twist)
    from hallinv.charvar import beta_distribution

    frozen = build_fixture("non_fano")
    flipped = non_fano_group(opposite=True)
    assert beta_distribution(frozen, 2, 3).positive_part() == (24, 1)
    assert beta_distribution(flipped, 2, 3).positive_part() != (24, 1)


def test_mirror_permutation_same_invariants():
    from hallinv.charvar import beta_distribution
    tau = [2, 1, 4, 3, 5]
    mirror = list(reversed(tau))
    P1 = build_fixture("horizontal:" + "".join(map(str, tau)))
    P2 = build_fixture("horizontal:" + "".join(map(str, mirror)))
    for p, q in [(2, 0), (3, 2), (2, 3)]:
        assert beta_distribution(P1, p, q) == beta_distribution(P2, p, q)
