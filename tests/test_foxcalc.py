import random

from hallinv.foxcalc import (
    abelianization, alexander_matrix, augmentation_jacobian, fox_terms,
)
from hallinv.presentations import (
    Word, commutator, free_group, nonorientable_surface_group,
    orientable_surface_group, parse_presentation, product_of_free_groups,
)
from reference import derivative_from_terms, fox_fundamental_identity_holds


def W(*sylls):
    return Word(sylls)


x, y = W((0, 1)), W((1, 1))


def test_fox_basic_rules():
    assert derivative_from_terms(x * y, 0) == {Word(): 1}
    assert derivative_from_terms(x * y, 1) == {x: 1}
    assert derivative_from_terms(x.inverse(), 0) == {x.inverse(): -1}
    # x^2 y^-2: terms 1 + x of d/dx, and -(x^2 y^-1 + x^2 y^-2) of d/dy
    assert list(fox_terms(x ** 2 * y ** -2)) == [
        (0, 0, 0, 1), (0, 0, 1, 1), (1, 1, -1, -1), (1, 1, -2, -1)]


def test_fox_commutator():
    # d([x,y])/dx = 1 - x y x^-1
    d = derivative_from_terms(commutator(x, y), 0)
    assert d == {Word(): 1, x * y * x.inverse(): -1}
    assert sum(d.values()) == 0


def test_fox_fundamental_identity_fixtures():
    fixtures = [
        commutator(x, y),
        x ** 2 * y ** 2,
        x ** -3 * y * x * y ** -2,
        commutator(x, y) * commutator(x, y.inverse()),
    ]
    for w in fixtures:
        assert fox_fundamental_identity_holds(w, 2)


def test_fox_fundamental_identity_random():
    rng = random.Random(17)
    for _ in range(100):
        w = Word([(rng.randrange(3), rng.choice([-2, -1, 1, 2]))
                  for _ in range(rng.randrange(8))])
        assert fox_fundamental_identity_holds(w, 3)
        for j in range(3):
            assert sum(derivative_from_terms(w, j).values()) == \
                w.exponent_sum(j)


def test_fox_derivative_matches_letter_by_letter():
    # seeded words with exponents up to 5 in size and generators repeated
    # many times, against the product rule taken one letter at a time
    import reference
    rng = random.Random(23)
    for _ in range(300):
        w = Word([(rng.randrange(3), rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
                  for _ in range(rng.randrange(14))])
        for j in range(3):
            assert derivative_from_terms(w, j) == \
                reference.fox_derivative(w, j), (w, j)


def test_alexander_matrices_of_fixtures_unchanged():
    # every fixture's Alexander matrix, terms in their order included, is
    # the one the letter-by-letter derivative mapped through chi gives
    from hallinv.braids import fixture
    from reference import FROZEN_FIXTURES, alexander_entries

    def terms(entries):
        return [[list(entry.items()) for entry in row] for row in entries]
    for name in FROZEN_FIXTURES + ("rp:3", "surface:2", "product:2,1"):
        P = fixture(name)
        abel = abelianization(P)
        assert terms(alexander_matrix(P, abel).entries) == \
            terms(alexander_entries(P, abel)), name


def test_augmentation_jacobian():
    P = parse_presentation("gens: x, y; rels: [x,y]")
    assert augmentation_jacobian(P) == [[0, 0]]
    P = parse_presentation("gens: x, y; rels: x^2*y^2")
    assert augmentation_jacobian(P) == [[2, 2]]
    assert augmentation_jacobian(free_group(3)) == []


def test_abelianization_examples():
    abel = abelianization(nonorientable_surface_group(2))
    assert (abel.free_rank, abel.torsion) == (1, [2])
    assert abel.b1(2) == 2 and abel.b1(3) == 1 and abel.b1(0) == 1

    abel = abelianization(product_of_free_groups([2, 1]))
    assert (abel.free_rank, abel.torsion) == (3, [])

    abel = abelianization(parse_presentation("gens: x; rels: x^4"))
    assert (abel.free_rank, abel.torsion) == (0, [4])
    assert abel.b1(2) == 1 and abel.b1(0) == 0


def test_alexander_matrix_z2():
    # <x,y | [x,y]> has Alexander row (1 - t2, t1 - 1) up to the chi basis;
    # check augmentation and the term structure instead of a fixed basis
    P = parse_presentation("gens: x, y; rels: [x,y]")
    A = alexander_matrix(P)
    assert A.num_relators == 1 and A.num_generators == 2
    e1, e2 = A.entries[0]
    assert sorted(e1.values()) == [-1, 1]
    assert sorted(e2.values()) == [-1, 1]
    assert sum(e1.values()) == 0


def test_alexander_matrix_free():
    A = alexander_matrix(free_group(3))
    assert A.num_relators == 0 and A.num_generators == 3


def test_alexander_matrix_reduction_independent():
    # inserting cancelling pairs into a relator must not change the matrix
    base = parse_presentation("gens: x, y; rels: x^2*y^2")
    padded = parse_presentation("gens: x, y; rels: x^2*y*x*x^-1*y")
    A1, A2 = alexander_matrix(base), alexander_matrix(padded)
    assert A1.entries == A2.entries


def test_surface_relator_jacobian_is_zero_augmented():
    P = orientable_surface_group(2)
    J = augmentation_jacobian(P)
    assert all(v == 0 for row in J for v in row)
    abel = abelianization(P)
    assert (abel.free_rank, abel.torsion) == (4, [])


def test_evaluate_at_trivial_character_gives_augmentation():
    from hallinv.fields import prime_field
    from reference import FiniteField, evaluate
    for P in (parse_presentation("gens: x, y; rels: x^2*y^2, [x,y]"),
              nonorientable_surface_group(3)):
        A = alexander_matrix(P)
        K = FiniteField(prime_field(5))
        J = augmentation_jacobian(P)
        evaluated = evaluate(A, K, 1, (0,) * A.abel.num_coordinates)
        for i in range(A.num_relators):
            for j in range(A.num_generators):
                assert evaluated[i][j] == K.from_int(J[i][j])


def _scrambled_abel(abel, seed):
    """A different valid chi for a torsion-free H_1: recombine the free
    coordinates by a random unimodular matrix."""
    from hallinv.foxcalc import AbelStructure
    assert not abel.torsion
    n = abel.free_rank
    rng = random.Random(seed)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):          # column op on U: col j += c * col i
            U[k][j] += c * U[k][i]
        for k in range(n):          # inverse row op on Uinv
            Uinv[i][k] -= c * Uinv[j][k]
    images = [tuple(sum(gf[i] * U[i][j] for i in range(n))
                    for j in range(n)) for gf in abel.images]
    inv_rows = [[sum(Uinv[c][i] * abel.coordinate_rows[i][g]
                     for i in range(n))
                 for g in range(len(abel.images))] for c in range(n)]
    return AbelStructure(n, [], images, inv_rows, abel.jacobian)


def test_counts_invariant_under_scrambled_chi():
    # the chi isomorphism is only canonical up to a monomial change of
    # basis; every computed count must not see the difference
    from hallinv.charvar import b1_cover_cyclic, beta_distribution
    from hallinv.foxcalc import alexander_matrix
    for P, seed in ((orientable_surface_group(2), 5),
                    (product_of_free_groups([2, 1]), 6)):
        abel = abelianization(P)
        A_default = alexander_matrix(P)
        A_scrambled = alexander_matrix(P, abel=_scrambled_abel(abel, seed))
        for p, q in [(2, 3), (3, 2), (2, 0)]:
            assert beta_distribution(P, p, q, A=A_default) == \
                beta_distribution(P, p, q, A=A_scrambled)
        images = [1] + [0] * (P.num_generators - 1)
        assert b1_cover_cyclic(P, 4, images, 3, A=A_default) == \
            b1_cover_cyclic(P, 4, images, 3, A=A_scrambled)


def test_nonorientable_matrix_matches_explicit_form():
    # the published 1 x n Alexander matrix of the connected sum of n
    # projective planes, evaluated entrywise:
    #   (1+t1, t1^2(1+t2), ..., t1^2...t_{n-1}^2 (1 + (t1...t_{n-1})^-1 s))
    # must have the same rank as ours at every matched character
    from itertools import product as iproduct
    from hallinv.charvar import DepthEngine
    from hallinv.foxcalc import alexander_matrix
    from reference import (depth_at, rank_of_elements, reference_field,
                           root_of_unity)

    for n, N, q in ((2, 4, 0), (3, 4, 3), (3, 2, 7), (4, 4, 5)):
        P = nonorientable_surface_group(n)
        A = alexander_matrix(P)
        abel = A.abel
        K = reference_field(N, q)
        engine = DepthEngine(A, N, q)
        zeta = root_of_unity(K, N)
        h = len(abel.torsion)
        for exps in iproduct(range(N), repeat=abel.num_coordinates):
            if any((e * ei) % N for e, ei in zip(exps[:h], abel.torsion)):
                continue
            # generator values from the chi coordinates
            vals = [zeta ** (sum(a * b for a, b in zip(image, exps)) % N)
                    for image in abel.images]
            t = vals[:-1]
            s = vals[0]
            for v in vals[1:]:
                s = s * v
            one = K.one()
            row = []
            prefix = one
            for i in range(n - 1):
                row.append(prefix * (one + t[i]))
                prefix = prefix * t[i] * t[i]
            tail_inv = one
            for v in t:
                tail_inv = tail_inv * v.inv()
            row.append(prefix * (one + tail_inv * s))
            paper_rank = rank_of_elements([row])
            ours = n - depth_at(engine, exps) - 1
            assert paper_rank == ours
