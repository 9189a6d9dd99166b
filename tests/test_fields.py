import random
from functools import reduce

import pytest

from hallinv.fields import (
    MAX_FIELD_DEGREE, extension_field, factorize, is_prime,
    multiplicative_order, prime_field, primitive_root_of_unity,
    sufficiently_large_field,
)
from reference import (CyclotomicField, FiniteElement, FiniteField,
                       _poly_mul_int, cyclotomic_polynomial,
                       irreducible_by_trial_division, reference_field,
                       root_of_unity)


def test_multiplicative_order_values():
    assert multiplicative_order(7, 3) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 5) == 4
    # cover --order 1000 --q 3 builds F_{3^100}, under the cap
    assert multiplicative_order(3, 1000) == 100 <= MAX_FIELD_DEGREE
    assert multiplicative_order(2, 257) == 16
    # ord_{2^{MAX_FIELD_DEGREE + 1}}(3) = 2^{MAX_FIELD_DEGREE - 1} is refused
    with pytest.raises(ValueError, match=f"exceeds {MAX_FIELD_DEGREE}"):
        multiplicative_order(3, 2 ** (MAX_FIELD_DEGREE + 1))
    with pytest.raises(ValueError):
        multiplicative_order(6, 3)


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if by_trial_division(n)]


def test_is_prime_beyond_trial_division():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 through 37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(1000000000000000003)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (10 ** 9 + 7))
    # psi_13: Miller-Rabin on 13 prime bases is exact only below it
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        is_prime(10 ** 400 + 1)


def test_sufficiently_large_field_shapes():
    K = sufficiently_large_field(3, 2)
    assert (K.char, K.degree) == (2, 2)
    assert K.modulus == [1, 1, 1]  # x^2 + x + 1 over F_2

    K = sufficiently_large_field(2, 3)
    assert (K.char, K.degree) == (3, 1)

    # characteristic 0 is the tests' Q(zeta_N), never a library field
    assert CyclotomicField(3).degree == 2
    for N, q in ((3, 0), (3, 4), (6, 3)):
        with pytest.raises(ValueError):
            sufficiently_large_field(N, q)


def test_ben_or_matches_trial_division():
    # every monic polynomial of small degree, against the reference test
    # the moduli were once found by
    from hallinv.fields import _fq_is_irreducible, _fq_monic_polys
    for q, top in ((2, 8), (3, 5), (5, 4), (7, 4)):
        for s in range(1, top + 1):
            for f in _fq_monic_polys(q, s):
                assert _fq_is_irreducible(f, q) == \
                    irreducible_by_trial_division(f, q), (f, q)


def test_extension_modulus_walk(monkeypatch):
    # the walk starts at constant term 1 (x divides every earlier
    # candidate), so it tests 9 candidates for (7, 10), not the 7^9 with
    # constant term 0 first, and a few dozen of the 2^100 for (2, 100)
    from hallinv import fields
    tested = []
    test = fields._fq_is_irreducible
    monkeypatch.setattr(fields, "_fq_is_irreducible",
                        lambda f, q: tested.append(f) or test(f, q))
    f = fields._extension_modulus(7, 10)
    assert f == [1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1] and len(tested) == 9
    assert irreducible_by_trial_division(f, 7)
    tested.clear()
    f = fields._extension_modulus(2, 100)
    assert len(f) == 101 and f[0] == f[-1] == 1 and len(tested) <= 100
    assert fields.extension_field(2, 100).modulus == f


def test_one_handle_per_field(monkeypatch):
    # two Groups ranking at (257, 2) share F_{2^16}'s one handle, and so
    # its LogTables, built once
    from hallinv import fields
    from hallinv.charvar import Group
    from hallinv.presentations import parse_presentation
    built = []
    init = fields.LogTables.__init__
    monkeypatch.setattr(fields.LogTables, "__init__",
                        lambda self, K: built.append(K) or init(self, K))
    extension_field.cache_clear()
    P = parse_presentation("gens: x, y\nrels: x^7\n")
    G, H = Group(P), Group(P)
    assert G.depths(257, 2) == H.depths(257, 2)
    K = G.engine(257, 2).field
    assert K is H.engine(257, 2).field is extension_field(2, 16)
    assert built == [K]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]


def test_cyclotomic_product_identity():
    for N in range(1, 31):
        prod = [1]
        for d in range(1, N + 1):
            if N % d == 0:
                prod = _poly_mul_int(prod, cyclotomic_polynomial(d))
        want = [-1] + [0] * (N - 1) + [1]
        assert prod == want


def test_mul_matches_dense_division():
    # the handle's product mod f, reduced by f's nonzero tail terms,
    # against the integer product of the coefficient lists divided by the
    # whole modulus (the division Ben-Or's gcd keeps), and power against
    # repeated mul
    from hallinv.fields import _fq_rem
    rng = random.Random(7)
    for q, s in [(2, 4), (3, 3), (5, 2), (2, 18), (3, 100), (7, 1)]:
        K = extension_field(q, s)

        def digits(c):
            return [c // q ** i % q for i in range(s)]

        for _ in range(30):
            a, b = rng.randrange(K.order()), rng.randrange(K.order())
            rem = _fq_rem(_poly_mul_int(digits(a), digits(b)), K.modulus, q)
            assert K.mul(a, b) == sum(c * q ** i for i, c in enumerate(rem))
            e = rng.randrange(12)
            want = 1
            for _ in range(e):
                want = K.mul(want, a)
            assert K.power(a, e) == want


def test_f4_arithmetic():
    K = extension_field(2, 2)
    a = 2  # x, of coefficients [0, 1]
    assert K.mul(a, a) == 3  # x^2 = x + 1, of coefficients [1, 1]
    assert K.mul(K.mul(a, a), a) == 1
    assert K.mul(K.inv(a), a) == 1


def test_q_zeta3_relation():
    K = CyclotomicField(3)
    z = K.element([0, 1])
    assert z + z * z == -K.one()


def test_inverse_in_f7():
    K = prime_field(7)
    assert K.inv(2) == 4
    assert K.power(2, -1) == 4
    for K in (K, extension_field(3, 2)):
        with pytest.raises(ZeroDivisionError):
            K.inv(0)


def test_field_axioms_random():
    rng = random.Random(5)
    # the library's fields through FiniteField, whose operators are the
    # handle's methods on codes
    for K in (FiniteField(prime_field(5)), FiniteField(extension_field(3, 2)),
              FiniteField(extension_field(2, 4)), CyclotomicField(5)):
        span = K.order() or 13
        def rand_elt():
            if K.char:
                code = rng.randrange(span)
                coeffs = []
                for _ in range(K.degree):
                    coeffs.append(code % K.char)
                    code //= K.char
                return K.element(coeffs)
            return K.element([rng.randint(-4, 4) for _ in range(K.degree)])
        for _ in range(40):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == K.zero()
            if not a.is_zero():
                assert a * a.inv() == K.one()


def test_field_axioms_composite_cyclotomic():
    rng = random.Random(41)
    for N in (8, 9, 12):
        K = CyclotomicField(N)
        zeta = K.element([0, 1])
        assert (zeta ** N).is_one()
        for _ in range(25):
            a = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
            b = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
            assert (a + b) * (a + b) == a * a + a * b + a * b + b * b
            if not a.is_zero():
                assert a * a.inv() == K.one()


def test_primitive_roots():
    K = prime_field(3)
    assert primitive_root_of_unity(K, 2) == 2

    K = prime_field(7)
    z = primitive_root_of_unity(K, 3)
    assert z in (2, 4)

    K = CyclotomicField(4)
    assert root_of_unity(K, 4) == K.element([0, 1])

    for Q in (CyclotomicField(1), CyclotomicField(2)):
        assert root_of_unity(Q, 2) == -Q.one()
        with pytest.raises(ValueError):
            root_of_unity(Q, 3)
    K = CyclotomicField(3)
    assert root_of_unity(K, 6) == -K.element([0, 1])


def test_root_powers_distinct():
    for N, q in [(3, 2), (5, 2), (3, 7), (4, 5), (5, 0), (6, 0)]:
        K = reference_field(N, q)
        z = root_of_unity(K, N)
        powers = {tuple((z ** k).coeffs) for k in range(N)}
        assert len(powers) == N


def test_unit_group_order():
    for q, s in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        K = extension_field(q, s)
        n = K.order() - 1
        g = primitive_root_of_unity(K, n)
        assert K.power(g, n) == 1
        for r in factorize(n):
            assert K.power(g, n // r) != 1


def test_codes_enumerate_the_field():
    # the codes 0, ..., q^s - 1 are the field: adding a or multiplying by
    # a nonzero a permutes them, and code c is sum_i d_i x^i for the
    # base-q digits d_i of c, with x the code q and x^s reduced by the
    # modulus
    for q, s in [(2, 3), (3, 2), (7, 1)]:
        K = extension_field(q, s)
        codes = list(range(K.order()))
        E = FiniteField(K)
        for a in codes:
            assert sorted(K.add(a, b) for b in codes) == codes
            assert sorted((FiniteElement(E, a) - FiniteElement(E, b)).code
                          for b in codes) == codes
            if a:
                assert sorted(K.mul(a, b) for b in codes[1:]) == codes[1:]
        for c in codes:
            terms = [K.mul(c // q ** i % q, K.power(q, i)) for i in range(s)]
            assert reduce(K.add, terms) == c
        if s > 1:
            assert K.power(q, s) == sum(-f % q * q ** j
                                        for j, f in enumerate(K.modulus[:s]))
    assert extension_field(3, 2).add(2, 3) == 5  # 2 + x, digits (2, 1)


def test_root_search_picks_the_root_of_a_scan_from_2():
    # the search skips the constants when N does not divide q - 1, since a
    # constant's power lies in F_q^*; the root it picks is still the one a
    # scan of every code from 2 finds, for every N dividing q^s - 1.  In
    # F_{7^2} and F_{13^2} some N dividing q - 1 have their root at a
    # constant, so the scan must not skip them there
    def scan_from_2(K, N):
        n = K.order() - 1
        for x in range(2, K.order()):
            zeta = K.power(x, n // N)
            if all(K.power(zeta, N // r) != 1 for r in factorize(N)):
                return zeta

    fields = ([prime_field(q) for q in (2, 3, 7, 13, 257)]
              + [extension_field(2, k) for k in range(2, 9)]
              + [extension_field(3, k) for k in range(2, 6)]
              + [extension_field(q, 2) for q in (7, 13, 257)])
    skipped = 0
    for K in fields:
        n = K.order() - 1
        for N in (N for N in range(2, n + 1) if n % N == 0):
            assert primitive_root_of_unity(K, N) == scan_from_2(K, N), (K, N)
            skipped += (K.char - 1) % N != 0
    assert skipped > 50


def test_root_of_unity_never_factors_a_large_field(monkeypatch):
    # every field is past the 2^16 Zech table limit; 3^53 - 1 has a
    # 19-digit prime factor, so trial division would run to about 2 * 10^9
    # before finding it.  The root is tested against the primes of N alone
    from hallinv import fields
    factored = []
    factor = fields.factorize
    monkeypatch.setattr(fields, "factorize",
                        lambda n: factored.append(n) or factor(n))
    for q, N in [(2, 19), (2, 25), (2, 83), (3, 107)]:
        K = sufficiently_large_field(N, q)
        assert K.order() > fields._LOG_TABLE_LIMIT
        zeta = primitive_root_of_unity(K, N)
        assert K.power(zeta, N) == 1
        assert all(K.power(zeta, N // r) != 1 for r in factor(N))
        assert K.order() - 1 not in factored
    assert set(factored) <= {19, 25, 83, 107}

