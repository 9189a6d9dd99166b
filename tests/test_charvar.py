from collections import Counter
from math import prod

import pytest

from hallinv.charvar import (
    Group, InvariantViolation, b1_cover_abelian, b1_cover_cyclic, beta_distribution,
    coordinate_exponents_from_generators,
)
from hallinv.fields import prime_field, sufficiently_large_field
from hallinv.foxcalc import alexander_matrix
from hallinv.presentations import (
    free_group, nonorientable_surface_group, orientable_surface_group,
    parse_presentation, product_of_free_groups,
)
from reference import (check_bounds_congruence, depth, depth_at,
                       direct_product_with_Z, max_depth_of_order_dividing,
                       order_p_exponents, reference_field)


# BS(1,2) and Z x| Z^3: at (p, q) = (3, 7) and (7, 2), q has order less
# than p - 1 mod p, so an index-p subgroup's characters split into several
# Frobenius orbits, and here they differ in depth
BS12 = parse_presentation("gens: x, a; rels: x*a*x^-1*a^-2")
Z_Z3 = parse_presentation(
    "gens: x, a, b, c; rels: [a,b], [a,c], [b,c], x*a*x^-1*b^-1, "
    "x*b*x^-1*c^-1, x*c*x^-1*b*a")
SPLIT_ORBITS = ((BS12, 3, 7, 1, 2), (Z_Z3, 7, 2, 1, 4))


def beta(P, p, q, **kw):
    return beta_distribution(P, p, q, **kw)


def test_depth_free_group():
    # every nontrivial character of F_n has depth n - 1
    P = free_group(3)
    A = alexander_matrix(P)
    K = sufficiently_large_field(2, 3)
    for e in order_p_exponents(A.abel, 2):
        assert depth(A, K, 2, e) == 2


def test_depth_surface_group():
    P = orientable_surface_group(2)
    A = alexander_matrix(P)
    K = sufficiently_large_field(3, 7)
    for e in order_p_exponents(A.abel, 3):
        assert depth(A, K, 3, e) == 2  # 2g - 2


def test_depth_product_of_frees():
    # on F_2 x F_2, characters trivial on one factor but not the other
    # have depth 1; fully mixed ones have depth 0
    P = product_of_free_groups([2, 2])
    A = alexander_matrix(P)
    K = sufficiently_large_field(2, 3)
    for gens, d in (([0, 0, 0, 1], 1), ([1, 0, 0, 1], 0)):
        e = coordinate_exponents_from_generators(A.abel, 2, gens)
        assert depth(A, K, 2, e) == d


def test_character_count_and_validation():
    # 2^2 - 1 order-2 and 3 - 1 order-3 characters on H1 = Z + Z/2; a
    # field of characteristic 3 has no primitive cube root of unity
    P = nonorientable_surface_group(2)
    A = alexander_matrix(P)
    assert len(list(order_p_exponents(A.abel, 2))) == 3
    assert len(list(order_p_exponents(A.abel, 3))) == 2
    with pytest.raises(ValueError):
        depth(A, prime_field(3), 3, (0, 1))


def test_beta_free_groups():
    # beta_{p,n-1} = (p^n - 1)/(p - 1), all other d >= 1 empty
    for n in (2, 3):
        for p, q in [(2, 3), (3, 2), (3, 0), (5, 2)]:
            b = beta(free_group(n), p, q)
            want = (p ** n - 1) // (p - 1)
            assert b[n - 1] == want
            assert b.positive_part() == (0,) * (n - 2) + (want,)


def test_beta_product_f2xf2():
    for p, q in [(2, 3), (3, 2), (2, 0)]:
        b = beta(product_of_free_groups([2, 2]), p, q)
        assert b[0] == (p ** 2 - 1) ** 2 // (p - 1)
        assert b[1] == 2 * (p ** 2 - 1) // (p - 1)
        assert b.total() == (p ** 4 - 1) // (p - 1)


def test_beta_surface():
    for p, q in [(2, 3), (3, 0)]:
        b = beta(orientable_surface_group(2), p, q)
        assert b.positive_part() == (0, (p ** 4 - 1) // (p - 1))


def test_beta_nonorientable():
    # genus n: beta_{2,n-2} = 2^n - 2, beta_{2,n-1} = 1,
    # beta_{p,n-2} = (p^{n-1}-1)/(p-1) for odd p
    for n in (2, 3, 4):
        for q in (3, 0, 7):
            b = beta(nonorientable_surface_group(n), 2, q)
            assert b[n - 2] == 2 ** n - 2
            assert b[n - 1] == 1
            assert b.total() == 2 ** n - 1
    for n in (3, 4):
        for q in (2, 0):
            b = beta(nonorientable_surface_group(n), 3, q)
            assert b[n - 2] == (3 ** (n - 1) - 1) // 2


def test_beta_paths_agree():
    for P in (free_group(2), nonorientable_surface_group(3),
              product_of_free_groups([2, 1])):
        for p, q in [(2, 3), (3, 2), (2, 0), (3, 0)]:
            fast = beta(P, p, q)
            slow = beta(P, p, q, check_orbits=True)
            assert fast == slow


def test_beta_invalid_args():
    with pytest.raises(ValueError):
        beta(free_group(2), 3, 3)


def test_b1_cover_cyclic_free():
    # index-k subgroup of F_n is free of rank k(n-1) + 1
    assert b1_cover_cyclic(free_group(2), 2, [1, 0], 0) == 3
    assert b1_cover_cyclic(free_group(2), 4, [1, 0], 0) == 5
    assert b1_cover_cyclic(free_group(2), 4, [1, 2], 0) == 5
    assert b1_cover_cyclic(free_group(3), 3, [1, 1, 2], 0) == 7
    assert b1_cover_cyclic(free_group(2), 6, [1, 1], 5) == 7


def test_b1_cover_cyclic_arrangement_point():
    # the unique depth-1 order-2 character of the 4-plane arrangement
    # group: its double cover gains exactly one Betti number.  In this
    # presentation's basis the point is (-1,-1,-1,1); the published
    # (-1,1,-1,1) corresponds under the monomial change t2 -> t1 t2.
    from itertools import product as iproduct
    from hallinv.braids import fixture
    G = Group(fixture("horizontal:2134"))
    assert b1_cover_cyclic(G, 2, [1, 1, 1, 0], 0) == 5
    jumped = [images for images in iproduct(range(2), repeat=4)
              if any(images)
              and b1_cover_cyclic(G, 2, list(images), 0) == 5]
    assert jumped == [(1, 1, 1, 0)]


def test_b1_cover_cyclic_validation():
    with pytest.raises(ValueError):
        b1_cover_cyclic(free_group(2), 4, [2, 2], 0)  # not surjective
    with pytest.raises(ValueError):
        # x has nonzero image in Z_2 but x^2 = 1 in the group forces it to 0
        b1_cover_cyclic(parse_presentation("gens: x; rels: x^3"), 2, [1], 0)
    with pytest.raises(ValueError):
        b1_cover_cyclic(free_group(2), 4, [1, 0], 2)  # q | N


def test_b1_cover_abelian_matches_cyclic():
    # the one-factor abelian cover and the cyclic cover against the Smith
    # form of the coset action; at (N, q) = (3, 7) and (6, 7) Frobenius
    # does not join the generators of a subgroup into one Galois orbit
    import random
    from hallinv.oracle import cover_b1, regular_cyclic_action
    rng = random.Random(31)
    groups = [Group(P) for P in (free_group(2),
                                 nonorientable_surface_group(3),
                                 product_of_free_groups([2, 1]), BS12)]
    pairs = [(N, q) for N in (2, 3, 4, 6) for q in (0, 5, 7)
             if q == 0 or N % q]
    for _ in range(200):
        G = rng.choice(groups)
        P = G.P
        N, q = rng.choice(pairs)
        images = [rng.randrange(N) for _ in range(P.num_generators)]
        try:
            want = b1_cover_abelian(G, [N], [images], q)
        except ValueError:
            continue
        assert b1_cover_cyclic(G, N, images, q) == want
        assert cover_b1(P, regular_cyclic_action(N, images), q) == want, \
            (P, N, images, q)


def test_b1_cover_abelian_klein_four():
    # index-4 subgroup of F_2 with quotient Z_2 x Z_2 has rank 5
    assert b1_cover_abelian(free_group(2), [2, 2],
                            [[1, 0], [0, 1]], 0) == 5
    # finite-index subgroups of Z^2 are Z^2
    Z2 = parse_presentation("gens: x, y; rels: [x,y]")
    assert b1_cover_abelian(Z2, [2, 2], [[1, 0], [0, 1]], 0) == 2
    with pytest.raises(ValueError):
        b1_cover_abelian(free_group(2), [2, 2], [[1, 0], [1, 0]], 0)


def test_group_builds_jacobian_and_engines_once():
    # cover calls on one Group share its augmentation Jacobian and its
    # depth engine for each (N, q)
    G = Group(BS12)
    assert b1_cover_cyclic(G, 3, [1, 0], 7) == \
        b1_cover_cyclic(BS12, 3, [1, 0], 7)
    engine, jacobian = G.engine(3, 7), G.abel.jacobian
    b1_cover_cyclic(G, 3, [2, 0], 7)
    b1_cover_abelian(G, [3], [[1, 0]], 7)
    max_depth_of_order_dividing(G, 3, 7)
    assert G.engine(3, 7) is engine and G.abel.jacobian is jacobian
    assert G.engine(3, 0) is not engine


def test_bounds_and_congruence():
    report = check_bounds_congruence(2, 3, 2, 2, 0)
    assert report["jump"] == 1
    with pytest.raises(InvariantViolation):
        check_bounds_congruence(2, 6, 2, 2, 0)  # above (k-1)(l-1) bound
    with pytest.raises(InvariantViolation):
        check_bounds_congruence(2, 3, 5, 9, 0)  # jump 1 not divisible by D = 2
    # sharpened bound via max depth
    P = free_group(2)
    d = max_depth_of_order_dividing(P, 2, 0)
    assert d == 1
    check_bounds_congruence(2, 3, 2, 2, 0, depth_sup=d)


def test_cover_bounds_hold_on_enumerated_covers():
    for P in (free_group(2), nonorientable_surface_group(3)):
        G = Group(P)
        for N, q in [(2, 0), (2, 3), (3, 0), (4, 3)]:
            d_sup = max_depth_of_order_dividing(G, N, q)
            b1_base = G.abel.b1(q)
            for images in _all_epis(P.num_generators, N):
                try:
                    b1K = b1_cover_cyclic(G, N, images, q)
                except ValueError:
                    continue
                check_bounds_congruence(b1_base, b1K, P.num_generators, N,
                                        q, depth_sup=d_sup)


def _all_epis(l, N):
    from itertools import product
    from math import gcd
    for images in product(range(N), repeat=l):
        if gcd(N, *images) == 1:
            yield list(images)


def test_beta_parallel_matches_serial():
    P = orientable_surface_group(2)
    assert beta(P, 3, 2, jobs=2) == beta(P, 3, 2, jobs=1)


def test_group_computes_each_invariant_once(monkeypatch):
    import hallinv.charvar as charvar
    tallies = []
    tally = charvar._depth_tally
    monkeypatch.setattr(charvar, "_depth_tally",
                        lambda *a: tallies.append(a) or tally(*a))
    P = orientable_surface_group(2)
    G = Group(P)
    abel = G.abel
    assert G.alexander.abel is abel and G.alexander is G.alexander
    b = G.beta(3, 2)
    assert G.beta(3, 2) is b and len(tallies) == 1
    # the orbit check always runs on the all-points path
    assert G.beta(3, 2, check_orbits=True) == b and len(tallies) == 2
    assert b == beta(P, 3, 2)
    assert Group.of(G) is G and Group.of(P).P is P


def test_depth_engine_matches_elements_on_arrangement_group():
    # sampled characters of the 8-generator arrangement fixture, engine
    # against element-level evaluation over F_4 and the tests' Q(zeta_3)
    import random
    from hallinv.braids import fixture
    from hallinv.charvar import DepthEngine
    rng = random.Random(63)
    P = fixture("deleted_b3")
    A = alexander_matrix(P)
    for q in (2, 0):
        K = reference_field(3, q)
        engine = DepthEngine(A, 3, q)
        for _ in range(12):
            exps = tuple(rng.randrange(3) for _ in range(8))
            assert depth_at(engine, exps) == depth(A, K, 3, exps)


def test_depth_engine_matches_element_arithmetic():
    # the engine's compiled forms must agree with the reference's
    # term-by-term evaluation, over finite fields and the tests' Q(zeta_N)
    from itertools import product as iproduct
    from hallinv.charvar import DepthEngine
    groups = [free_group(2), nonorientable_surface_group(3),
              product_of_free_groups([2, 1]), orientable_surface_group(2)]
    for P in groups:
        A = alexander_matrix(P)
        abel = A.abel
        h = len(abel.torsion)
        for N, q in [(2, 3), (3, 2), (4, 3), (6, 5), (2, 0), (3, 0), (4, 0)]:
            K = reference_field(N, q)
            engine = DepthEngine(A, N, q)
            for exps in iproduct(range(N), repeat=abel.num_coordinates):
                if all(e == 0 for e in exps):
                    continue
                if any((e * ei) % N for e, ei in zip(exps[:h], abel.torsion)):
                    continue  # not a valid torsion coordinate value
                assert depth_at(engine, exps) == depth(A, K, N, exps)


def test_char0_rank_certified_past_a_bad_prime():
    # <x, y | x^7>: the order-3 characters send x to 1, so the row is
    # (7, 0), of rank 1 over Q(zeta_3) but 0 mod 7; the split primes lie
    # just below 2^30, far from 7 (the engine meets primes that kill an
    # entry in test_char0_rank_certified_past_two_bad_primes)
    from hallinv.oracle import cover_b1, regular_cyclic_action
    P = parse_presentation("gens: x, y\nrels: x^7\n")
    assert beta(P, 3, 0).counts == {0: 1}
    assert b1_cover_cyclic(P, 3, [0, 1], 0) == 1 == \
        cover_b1(P, regular_cyclic_action(3, [0, 1]), 0)


def _laurent_matrix(rows, num_coordinates):
    """An AlexanderMatrix of Laurent polynomials in num_coordinates free
    variables, each entry given as {exponent tuple: coefficient}."""
    from hallinv.foxcalc import AlexanderMatrix
    return AlexanderMatrix(None, rows, len(rows[0]))


def test_form_exponents():
    # the engine sums form . e mod N as e_c times coordinate c's weight
    # column: at small N, and with 70 coordinates at N = 2^29 - 3
    import random
    from hallinv.charvar import DepthEngine
    rng = random.Random(29)
    for N, coords in ((5, 6), (1000, 8), (2 ** 29 - 3, 70)):
        forms = list({tuple(rng.randint(-3, 3) for _ in range(coords))
                      for _ in range(40)})
        engine = DepthEngine(_laurent_matrix(
            [[{form: 1} for form in forms]], coords), N, 0)
        for e in [[N - 1] * coords] + [[rng.randrange(N) for _ in
                                        range(coords)] for _ in range(5)]:
            assert engine._exponents(e) == \
                [sum(w * a for w, a in zip(form, e)) % N for form in forms]


def test_char0_rank_certified_past_two_bad_primes():
    # a 1 x 1 entry equal to the product of the engine's first two split
    # primes has rank 1 over Q but 0 mod either; its norm bound, B2 = the
    # entry squared at phi(2) = 1, is passed only by a third prime
    from hallinv.charvar import DepthEngine, _split_prime
    (ell1, _), (ell2, _) = _split_prime(2, 0), _split_prime(2, 1)
    assert 2 ** 29 < ell2 < ell1 < 2 ** 30
    engine = DepthEngine(_laurent_matrix([[{(0,): ell1 * ell2}]], 1), 2, 0)
    assert engine._certified_rank(engine._exponents((0,)), 1) == 1
    assert depth_at(engine, (0,)) == -1


def test_pivot_rows_fall_back_to_the_full_matrix():
    # rows t1 - 1 and t2 - 1 at N = 2: the character (1, 0) has rank 1 on
    # row 0, which is remembered; at (0, 1) row 0 vanishes, so the pivot
    # rows alone see rank 0 and the elimination goes on to row 1
    from hallinv.charvar import DepthEngine
    A = _laurent_matrix([[{(1, 0): 1, (0, 0): -1}],
                         [{(0, 1): 1, (0, 0): -1}]], 2)
    for q in (0, 3):
        engine = DepthEngine(A, 2, q)
        assert engine._certified_rank(engine._exponents((1, 0)), 1) == 1
        assert engine.pivots == [0]
        assert engine._certified_rank(engine._exponents((0, 1)), 1) == 1
        assert engine.pivots == [1]
        assert engine._certified_rank(engine._exponents((1, 1)), 1) == 1


@pytest.mark.parametrize("q, N", [(0, 5), (2, 1), (2, 3), (2, 5), (3, 2),
                                  (7, 3), (3, 4), (5, 3), (3, 13)])
def test_packed_codes_never_carry(q, N):
    # q = 0 and F_2, F_4, F_16, F_3, F_7, F_9, F_25, F_27.  Every term of
    # the widest entries has coefficient q - 1 (-1 at q = 0) and a monomial
    # t^(a + jN), so at each character all of an entry's terms are one
    # element: the digit sums of its slots reach terms * (q - 1) in every
    # slot where that element has digit q - 1 (slot 0 at a = 0; here each
    # slot does at some character).  The engine's rank must equal
    # the reference's elimination on the entries evaluated as field
    # elements, at the engine's own zeta
    from hallinv.charvar import DepthEngine
    from hallinv.fields import log_tables
    from reference import FiniteElement, FiniteField, rank_of_elements
    c, T = (q - 1 if q else -1), 6
    widest = [{(a + j * N,): c for j in range(T)} for a in (0, 1, 2)]
    rows = [[widest[0], {(1,): 1, (0,): 1}],
            [{(1,): 1}, widest[1]],
            [widest[2], {(2,): c, (N + 2,): c}]]
    engine = DepthEngine(_laurent_matrix(rows, 1), N, q)
    if q:
        K, lt = FiniteField(engine.field), log_tables(engine.field)
        assert engine.mode == "zech" and K.char == q
        zeta = FiniteElement(K, lt.codes[lt.n // N % lt.n])  # g^(n / N)
    else:
        K = reference_field(N, 0)
        zeta = K.root_of_unity(N)
    for e in range(N):
        grid = [[sum((K.from_int(coeff) * zeta ** (k * e % N)
                      for (k,), coeff in entry.items()), K.zero())
                 for entry in row] for row in rows]
        assert engine._certified_rank(engine._exponents((e,)), 2) == \
            rank_of_elements(grid), (q, N, e)


def _count_rows_built(monkeypatch):
    """A list that counts the rows every DepthEngine builds from now on:
    each reduced row the rank kernels read is counted once."""
    import hallinv.charvar as charvar
    built = []

    class Rows(list):
        def __getitem__(self, k):
            built.append(k)
            return list.__getitem__(self, k)

    reduction = charvar.DepthEngine._reduction

    def counted(engine, i):
        head, rows = reduction(engine, i)
        return head, Rows(rows)

    monkeypatch.setattr(charvar.DepthEngine, "_reduction", counted)
    return built


@pytest.mark.parametrize("q", [0, 2, 7])
def test_rank_does_not_depend_on_the_row_order(q):
    # ranks taken with the remembered pivots and row order scrambled
    # before every call equal those of a fresh engine per character
    import random
    from hallinv.braids import fixture
    from hallinv.charvar import DepthEngine
    A = alexander_matrix(fixture("deleted_b3"))
    engine = DepthEngine(A, 3, q)
    rng = random.Random(17)
    m = len(engine.rows)
    for _ in range(40):
        e = tuple(rng.randrange(3) for _ in range(8))
        engine.order = rng.sample(range(m), m)
        engine.pivots = engine.order[:rng.randrange(m)]
        assert depth_at(engine, e) == depth_at(DepthEngine(A, 3, q), e), e


def test_warm_pivots_build_only_the_pivot_rows(monkeypatch):
    # deleted_b3 at (3, 2): a generic character (rank 7 = l - 1 of 19
    # rows) remembers its 7 pivot rows, and its Frobenius conjugate, whose
    # matrix is the entrywise square, builds exactly those 7
    from hallinv.braids import fixture
    engine = Group(fixture("deleted_b3")).engine(3, 2)
    built = _count_rows_built(monkeypatch)
    e = (1, 0, 2, 1, 1, 0, 2, 1)
    assert depth_at(engine, e) == 0
    assert len(built) > 7 and len(engine.pivots) == 7
    built.clear()
    assert depth_at(engine, tuple(2 * a % 3 for a in e)) == 0
    assert sorted(built) == sorted(engine.pivots)


@pytest.mark.parametrize("name, rows", [("deleted_b3", 24617),
                                        ("non_fano", 8307)])
def test_rows_built_per_walk(monkeypatch, name, rows):
    # the order-3 walk over F_4 builds each row of a rank only when the
    # rank reaches it, the pivot rows of the last full rank first; a
    # change that loses that locality builds more rows
    from hallinv.braids import fixture
    built = _count_rows_built(monkeypatch)
    Group(fixture(name)).depths(3, 2)
    assert len(built) == rows


@pytest.mark.parametrize("name, p, q, rows", [
    ("deleted_b3", 3, 2, 24617), ("non_fano", 3, 2, 8307),
    ("braid_arrangement", 5, 2, 20121), ("deleted_b3", 3, 5, 24504),
    ("non_fano", 3, 7, 15520)])
def test_element_kernel_builds_the_zech_rows(monkeypatch, name, p, q, rows):
    # with the Zech table limit forced below every field, the element
    # kernel takes the rows in the order the Zech kernel does, builds
    # exactly as many, stops at the same ceilings, and tallies the same
    # depths; F_7 (non_fano at q = 7) is the prime-field case
    import hallinv.charvar as charvar
    from hallinv.braids import fixture
    built = _count_rows_built(monkeypatch)
    found = {}
    for limit in (charvar._LOG_TABLE_LIMIT, 3):
        monkeypatch.setattr(charvar, "_LOG_TABLE_LIMIT", limit)
        built.clear()
        G = Group(fixture(name))
        depths = G.depths(p, q)
        found[G.engine(p, q).mode] = len(built), depths
    assert found["zech"][0] == rows and found["element"] == found["zech"]


def test_char0_uses_no_finite_field_arithmetic(monkeypatch):
    # q = 0 ranks by integers mod ell: no log tables, no finite field
    # arithmetic, no Zech kernel and no packed field (the element route's
    # head), at small N and at N = 1000.
    # Only the root of unity mod each split prime is found by the field's
    # power, once per prime
    import hallinv.charvar as charvar
    import hallinv.fields as fields

    def forbidden(*args):
        raise RuntimeError("field arithmetic at q = 0")

    for module, name in ((fields, "log_tables"), (charvar, "log_tables"),
                         (charvar, "_rank_codes"), (charvar, "_Packed"),
                         *((fields.FieldHandle, name) for name in
                           ("add", "mul", "inv"))):
        monkeypatch.setattr(module, name, forbidden)
    P = direct_product_with_Z(free_group(2))
    G = Group(P)
    for N in (3, 4, 12, 1000):
        # the kernel is F_{N+1} x Z
        assert b1_cover_cyclic(G, N, [1, 0, 0], 0) == N + 2
        assert G.engine(N, 0).mode == "modular"


def test_char0_order_bound():
    # at q = 0 N must be below 2^29, past which at most one number
    # = 1 (mod N) lies below 2^30
    from hallinv.charvar import DepthEngine, _split_prime
    from hallinv.fields import factorize, is_prime
    A = _laurent_matrix([[{(0,): 1}]], 1)
    DepthEngine(A, 2 ** 29 - 1, 0)
    with pytest.raises(ValueError, match="2\\^29"):
        DepthEngine(A, 2 ** 29, 0)
    # below it the primes may still run out: 2^30 - 1 and 2^29 are the
    # only numbers = 1 (mod 2^29 - 1) between N and 2^30, and neither is
    # prime, so the first split prime lies above 2^30
    N = 2 ** 29 - 1
    ell, zeta = _split_prime(N, 0)
    assert ell > 2 ** 30 and ell % N == 1 and is_prime(ell)
    assert pow(zeta, N, ell) == 1 and \
        all(pow(zeta, N // r, ell) != 1 for r in factorize(N))


def test_char0_rank_certified_past_the_primes_below_the_limit(monkeypatch):
    # with the prime limit at 64, 53 is the only split prime for N = 13
    # below it; F_2 x Z's rank-1 characters need P^2 > 2^60, so the
    # engine must go on to the primes above the limit
    import hallinv.charvar as charvar
    from hallinv.oracle import cover_b1, regular_cyclic_action
    monkeypatch.setattr(charvar, "_PRIME_LIMIT", 64)
    monkeypatch.setattr(charvar, "_SPLIT_PRIMES", {})
    P = direct_product_with_Z(free_group(2))
    G = Group(P)
    assert b1_cover_cyclic(G, 13, [1, 0, 0], 0) == 15 == \
        cover_b1(P, regular_cyclic_action(13, [1, 0, 0]), 0)
    # the engine reduces mod a prime when a rank first needs it, in order
    primes = [ell for ell, _ in G.engine(13, 0).reductions]
    assert primes[0] == 53 and max(primes) > 64
    assert all(ell % 13 == 1 for ell in primes)


def test_char0_rank_falls_back_past_the_table_limit(monkeypatch):
    # the Zech table cap concerns q > 0 only: at q = 0 the row (7, 0) is
    # ranked mod split primes below 2^30 whatever the cap, and at q = 5
    # F_25 is past a cap of 7, so it is ranked on its elements
    import hallinv.charvar as charvar
    monkeypatch.setattr(charvar, "_LOG_TABLE_LIMIT", 7)
    P = parse_presentation("gens: x, y\nrels: x^7\n")
    assert beta(P, 3, 0).counts == {0: 1}
    assert beta(P, 3, 5).counts == {0: 1}  # F_25: element mode throughout


def test_char0_large_primes_match_the_cover_snf():
    # the q = 0 cover Betti numbers, ranked mod split primes below 2^30,
    # must equal the oracle's, read off a Smith normal form of the cover's
    # relations.  On F_2 x Z the characters have rank 1, below every
    # ceiling, so only the norm bound certifies them: its minors of size 2
    # have B2 = 32, so at N = 13 (phi = 12) P^2 must pass 2^60, which no
    # one prime below 2^30 does
    from hallinv.oracle import cover_b1, regular_cyclic_action
    cases = {"F2xZ": (direct_product_with_Z(free_group(2)), [1, 0, 0]),
             "x^7": (parse_presentation("gens: x, y\nrels: x^7\n"), [0, 1])}
    primes = {}
    for name, (P, images) in cases.items():
        G = Group(P)
        for N in (3, 4, 6, 12, 13):
            assert b1_cover_cyclic(G, N, images, 0) == \
                cover_b1(P, regular_cyclic_action(N, images), 0)
            # the primes the engine reduced mod, each when a rank needed it
            primes[name, N] = {ell for ell, _ in G.engine(N, 0).reductions}
    assert len(primes["F2xZ", 13]) > 1
    assert all(ell < 2 ** 30 and ell % N == 1
               for (_, N), ells in primes.items() for ell in ells)


def test_engine_past_the_table_limit_matches_reference(monkeypatch):
    # ord_19(2) = 18: the order-19 characters of rp:3 take values in
    # F_{2^18}, past the real 2^16 Zech table limit, so every rank is
    # taken on the codes of field elements; the engine builds zeta once,
    # however many characters it ranks
    import hallinv.charvar as charvar
    from hallinv.braids import fixture
    from hallinv.oracle import cover_b1, regular_cyclic_action
    roots = []
    root = charvar.primitive_root_of_unity
    monkeypatch.setattr(charvar, "primitive_root_of_unity",
                        lambda K, N: roots.append((K, N)) or root(K, N))
    G = Group(fixture("rp:3"))
    engine = G.engine(19, 2)
    K = engine.field
    assert (K.char, K.degree, engine.mode) == (2, 18, "element")
    assert G.beta(19, 2).positive_part() == (20,)
    for e in list(order_p_exponents(G.abel, 19))[::9]:
        assert depth_at(engine, e) == depth(G.alexander, K, 19, e)
    # x^2 y^2 z^2 = 1, so the images must sum to 0 mod 19
    images = [1, 18, 0]
    assert b1_cover_cyclic(G, 19, images, 2) == 21 == \
        G.abel.b1(2) + 18 * max_depth_of_order_dividing(G, 19, 2) == \
        cover_b1(G.P, regular_cyclic_action(19, images), 2)
    assert roots == [(K, 19)]


@pytest.mark.parametrize("N, images, q, b1", [(3, [1, 1, 1], 65539, 3),
                                              (5, [1, 2, 0], 65551, 7)])
def test_element_route_on_a_prime_field(N, images, q, b1):
    # q = 1 mod N, so the N-th roots of unity lie in F_q itself, a prime
    # field past the 2^16 Zech table limit: the element route at s = 1
    from hallinv.braids import fixture
    from hallinv.oracle import cover_b1, regular_cyclic_action
    G = Group(fixture("product:2,1"))
    engine = G.engine(N, q)
    assert (engine.field.degree, engine.mode) == (1, "element")
    assert b1_cover_cyclic(G, N, images, q) == b1 == \
        cover_b1(G.P, regular_cyclic_action(N, images), q)


def test_one_engine_per_group_and_field(monkeypatch, fork_launches):
    # delta_mpqs and b1_cover_cyclic on one Group share its DepthEngine,
    # and forked --jobs children inherit it rather than build their own
    # (a build in a child raises, and the caller re-raises it here)
    import os
    import hallinv.charvar as charvar
    from hallinv.hall import delta_mpqs
    builds, parent = [], os.getpid()
    init = charvar.DepthEngine.__init__

    def counted_init(self, *args):
        if os.getpid() != parent:
            raise RuntimeError("a --jobs worker built a DepthEngine")
        builds.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(charvar.DepthEngine, "__init__", counted_init)
    G = Group(orientable_surface_group(2))
    delta = delta_mpqs(G, 3, 7)
    b1 = b1_cover_cyclic(G, 3, [1, 0, 0, 0], 7)
    assert builds == [(3, 7)] and not fork_launches
    parallel = Group(orientable_surface_group(2), jobs=2)
    assert delta_mpqs(parallel, 3, 7) == delta and fork_launches
    assert b1_cover_cyclic(parallel, 3, [1, 0, 0, 0], 7) == b1
    assert parallel.depths(3, 7) == G.depths(3, 7)
    assert builds == [(3, 7)] * 2


@pytest.mark.parametrize("P, p, q, delta, b1_cover", SPLIT_ORBITS)
def test_split_frobenius_orbits_match_oracle(P, p, q, delta, b1_cover):
    # each index-p subgroup's characters are summed orbit by orbit, so the
    # Hall invariant and the cover Betti number agree with enumeration;
    # the first generator's image alone fixes the kernel, and every
    # nonzero multiple of it gives the same subgroup
    from hallinv.hall import construct_mpqs, delta_mpqs
    from hallinv.oracle import cover_b1, delta_oracle, regular_cyclic_action
    assert delta_mpqs(P, p, q) == delta_oracle(P, construct_mpqs(p, q).table) \
        == delta
    G = Group(P)
    base = G.abel.b1(q)
    d_sup = max_depth_of_order_dividing(G, p, q)
    for j in range(1, p):
        images = [j] + [0] * (P.num_generators - 1)
        b1K = b1_cover_cyclic(G, p, images, q)
        assert b1K == cover_b1(P, regular_cyclic_action(p, images), q) \
            == b1_cover
        check_bounds_congruence(base, b1K, P.num_generators, p, q,
                                depth_sup=d_sup)
    for check_orbits in (False, True):
        with pytest.raises(ValueError, match=f"p = {p}, q = {q}"):
            beta(P, p, q, check_orbits=check_orbits)


def _members(orbits, moduli):
    """Each orbit of a subgroup from _galois_orbits, listed in full: the
    multipliers of its coset applied to the subgroup's least generator."""
    head = orbits[0][0]
    return [[tuple(j * e % m for e, m in zip(head, moduli)) for j in coset]
            for _, _, coset in orbits]


def test_galois_orbits_partition_the_characters():
    # a subgroup of order k splits into orbits of size ord_k(q) (phi(k) at
    # q = 0), each closed under rho -> rho^q, and is headed by its least
    # generator; together the orbits cover every nonzero vector once
    from math import gcd, lcm, prod
    from hallinv.charvar import _galois_orbits
    from hallinv.fields import euler_phi, multiplicative_order
    for moduli, q in (([3, 3], 0), ([3, 3], 7), ([4, 2], 3), ([6], 7),
                      ([7], 2), ([7, 7], 2), ([5, 5], 2), ([1, 4], 5),
                      ([2, 4, 3], 5)):
        seen = []
        for orbits in _galois_orbits(moduli, q):
            head = orbits[0][0]
            k = lcm(*(m // gcd(e, m) for e, m in zip(head, moduli)))
            size = multiplicative_order(q, k) if q else euler_phi(k)
            members = _members(orbits, moduli)
            assert head == min(v for orbit in members for v in orbit)
            for orbit in members:
                assert len(orbit) == size
                assert {tuple(q * e % m for e, m in zip(v, moduli))
                        for v in orbit} <= set(orbit) or q == 0
                seen.extend(orbit)
        assert len(seen) == len(set(seen)) == prod(moduli) - 1


def test_galois_orbits_match_the_enumerate_and_filter_walk():
    # least generators built directly give the subgroups, orbits,
    # representatives and sizes that filtering every vector gives, in
    # increasing order of the least generator; a q that is not prime to
    # some subgroup's order has no Frobenius orbits on either walk
    from hallinv.charvar import _galois_orbits
    from reference import galois_orbits_by_filter
    for moduli in ([3, 3], [4, 2], [2, 4, 3], [1, 4], [6], [9, 3], [5, 5]):
        for q in (0, 2, 3, 5, 7):
            try:
                want = list(galois_orbits_by_filter(moduli, q))
            except ValueError:
                with pytest.raises(ValueError):
                    list(_galois_orbits(moduli, q))
                continue
            walk = list(_galois_orbits(moduli, q))
            heads = [orbits[0][0] for orbits in walk]
            assert heads == sorted(heads)
            assert all(rep == orbit[0] for orbits in walk
                       for (rep, _, _), orbit in zip(orbits,
                                                     _members(orbits, moduli)))
            got = [_members(orbits, moduli) for orbits in walk]
            assert sorted(got) == sorted(want), (moduli, q)


def test_unit_cosets_of_a_huge_q():
    # the cosets depend only on q mod k, and a q of 400 digits is
    # reduced before any product is taken
    from hallinv.charvar import _unit_cosets
    for k, q in ((7, 2), (9, 2), (15, 7), (16, 3)):
        assert _unit_cosets(k, q + k * 10 ** 400) == _unit_cosets(k, q)


def test_galois_orbits_carry_form_exponents():
    # the exponents carried along the walk are the engine's own form
    # exponents of each orbit representative
    from hallinv.braids import fixture
    from hallinv.charvar import (_character_moduli, _coordinate_columns,
                                 _galois_orbits)
    for name, cases in (("deleted_b3", ((3, 0), (3, 7))),
                        ("rp:3", ((3, 0), (6, 5), (9, 2))),
                        ("product:2,1", ((4, 3), (6, 0), (6, 5)))):
        G = Group(fixture(name))
        for N, q in cases:
            engine = G.engine(N, q)
            moduli = _character_moduli(G.abel, N)
            walk = _galois_orbits(moduli, q,
                                  _coordinate_columns(engine, moduli), N)
            for orbits in walk:
                for rep, exps, _ in orbits:
                    coords = [N // m * e for m, e in zip(moduli, rep)]
                    assert exps == engine._exponents(coords), (name, N, q)


@pytest.mark.parametrize("q, ranks", [(0, 3280), (7, 6560)])
def test_depth_walk_counts(monkeypatch, q, ranks):
    # deleted_b3 at p = 3: (3^8 - 1) / 2 subgroups, each one orbit at
    # q = 0 and two (the cosets of <7> = 1 in (Z/3)^*) at q = 7
    import hallinv.charvar as charvar
    from hallinv.braids import fixture
    walked, ranked = [], []
    walk, depth = charvar._galois_orbits, charvar.DepthEngine.depth_of_exponents

    def counted_walk(*args):
        for orbits in walk(*args):
            walked.append(len(orbits))
            yield orbits

    monkeypatch.setattr(charvar, "_galois_orbits", counted_walk)
    monkeypatch.setattr(charvar.DepthEngine, "depth_of_exponents",
                        lambda *a, **kw: ranked.append(1) or depth(*a, **kw))
    characters, beta = Group(fixture("deleted_b3")).depths(3, q)
    assert len(walked) == 3280 == beta.total()
    assert len(ranked) == sum(walked) == ranks
    assert sum(characters.values()) == 3 ** 8 - 1


@pytest.mark.parametrize("name, p, q", [("deleted_b3", 3, 7),
                                        ("braid_arrangement", 5, 2)])
def test_depths_at_two_jobs_match_one(fork_launches, name, p, q):
    # the caller and a forked child each rank one half of the same walk,
    # and their tallies merge to the serial ones, orbit check included
    from hallinv.braids import fixture
    P = fixture(name)
    for check_orbits in (False, True):
        serial = Group(P).depths(p, q, check_orbits=check_orbits)
        assert not fork_launches
        assert Group(P, jobs=2).depths(p, q, check_orbits=check_orbits) \
            == serial
        assert len(fork_launches) == 1
        fork_launches.clear()


def order_p_walk(P, p, q):
    """(engine, walk, subgroups): the tally arguments of the order-p walk
    of P over a field of characteristic q, and its number of subgroups."""
    import hallinv.charvar as charvar
    G = Group(P)
    engine = G.engine(p, q)
    moduli = charvar._character_moduli(G.abel, p)
    walk = moduli, q, charvar._coordinate_columns(engine, moduli)
    return engine, walk, (prod(moduli) - 1) // (p - 1)


@pytest.mark.parametrize("name, p, q", [("deleted_b3", 3, 7),
                                        ("non_fano", 3, 2),
                                        ("free:7", 2, 3)])
def test_contiguous_shares_partition_the_walk(monkeypatch, name, p, q):
    # at jobs 2..4, share i ranks the block [n i / jobs, n (i + 1) / jobs)
    # of the walk's n subgroups, the last share up to the walk's end, and
    # the shares' tallies merge to the serial one, orbit check included
    import hallinv.charvar as charvar
    from hallinv.braids import fixture
    engine, walk, n = order_p_walk(fixture(name), p, q)
    for check_orbits in (False, True):
        serial = charvar._depth_tally(engine, walk, check_orbits)
        for jobs in (2, 3, 4):
            assert charvar._parallel_depth_tally(
                engine, walk, check_orbits, jobs, n) == serial
    # each share sends back its bounds as its tally
    monkeypatch.setattr(charvar, "_depth_tally",
                        lambda engine, walk, check_orbits, start, stop:
                        (Counter({(start, stop): 1}), Counter()))
    for jobs in (2, 3, 4):
        starts = [n * i // jobs for i in range(jobs)]
        blocks, _ = charvar._parallel_depth_tally(engine, walk, False,
                                                  jobs, n)
        assert blocks == Counter(zip(starts, starts[1:] + [None]))


def test_walk_missing_a_generator_fails_at_any_jobs(monkeypatch,
                                                    fork_launches):
    # a walk that meets one generator too few per subgroup fails its
    # closing check at --jobs 1, and at --jobs 2, where a forked child
    # ranks the block that ends the walk
    import hallinv.charvar as charvar
    cosets = charvar._unit_cosets
    monkeypatch.setattr(charvar, "_unit_cosets",
                        lambda k, q: [c[:-1] or c for c in cosets(k, q)])
    messages = []
    for jobs in (1, 2):
        with pytest.raises(InvariantViolation) as caught:
            Group(orientable_surface_group(2), jobs=jobs).depths(3, 0)
        messages.append(str(caught.value))
    assert len(fork_launches) == 1
    assert messages[0] == messages[1] and "met 40 generators" in messages[0]


def test_fork_cutover_and_worker_count(monkeypatch):
    # a walk of at most _FORK_CUTOVER ranks stays in the caller; a larger
    # one forks min(jobs, CPUs, subgroups) - 1 children, so --jobs 100000
    # on three CPUs forks two (os.fork is counted, and only real
    # children are started)
    import os
    import hallinv.charvar as charvar
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(charvar, "_FORK_CUTOVER", 2 ** 6 - 1)

    def forked(P, p, q, jobs):
        forks.clear()
        depths = Group(P, jobs=jobs).depths(p, q)
        assert depths == Group(P).depths(p, q)
        return len(forks)

    assert forked(free_group(6), 2, 3, 100000) == 0  # 63 ranks
    assert forked(free_group(7), 2, 3, 100000) == 2  # 127 ranks
    assert forked(free_group(7), 2, 3, 2) == 1
    monkeypatch.setattr(charvar, "_FORK_CUTOVER", 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(1000)), raising=False)
    assert forked(free_group(2), 2, 3, 100000) == 2  # 3 subgroups
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert forked(free_group(7), 2, 3, 100000) == 1


def test_worker_errors_reach_the_caller(monkeypatch, fork_launches):
    # a failure in a forked child reaches the caller as the same failure
    # at --jobs 1 would; when the caller's own share fails too, the
    # caller's exception wins; a child that dies without its tallies is
    # an error; and no child outlives the call
    import os
    import hallinv.charvar as charvar
    parent, depth = os.getpid(), charvar.DepthEngine.depth_of_exponents

    def fail(where, failure):
        def patched(self, **kw):
            here = "caller" if os.getpid() == parent else "child"
            if here in where:
                failure(here)
            return depth(self, **kw)
        monkeypatch.setattr(charvar.DepthEngine, "depth_of_exponents",
                            patched)

    def raised(jobs):
        with pytest.raises(Exception) as caught:
            Group(orientable_surface_group(2), jobs=jobs).depths(3, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return type(caught.value), str(caught.value)

    def violation(here):
        raise InvariantViolation("rank failed")

    fail({"child"}, violation)
    at_two = raised(2)
    fail({"caller"}, violation)
    assert at_two == raised(1) == (InvariantViolation, "rank failed")

    def named(here):
        raise ValueError(f"rank failed in the {here}")

    fail({"caller", "child"}, named)
    assert raised(2) == (ValueError, "rank failed in the caller")
    fail({"child"}, lambda here: os._exit(3))
    assert raised(2) == (RuntimeError, "a --jobs child exited without "
                         "sending its tallies")
    assert len(fork_launches) == 3


def test_no_distribution_error_at_two_jobs(fork_launches):
    # BS(1,2) with three free generators has 40 index-3 subgroups, 80
    # Frobenius orbits at q = 7, and some subgroup still has two depths
    # when the walk forks
    P = parse_presentation("gens: x, a, y, z, w; rels: x*a*x^-1*a^-2")
    errors = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as caught:
            Group(P, jobs=jobs).beta(3, 7)
        errors.append(str(caught.value))
    assert len(fork_launches) == 1
    assert errors[0] == errors[1] and "p = 3, q = 7" in errors[0]
