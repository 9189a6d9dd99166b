import random

import pytest

from hallinv.charvar import _Packed, _pack, _rank_mod
from hallinv.linalg import smith_normal_form
from hallinv.fields import prime_field, extension_field
from reference import (CyclotomicField, FiniteElement, FiniteField,
                       determinantal_divisors, rank_of_elements,
                       smith_basis_holds, transpose)


def snf(rows, cols, want_basis=False):
    """The Smith form of the matrix with these dense rows."""
    return smith_normal_form([dict(enumerate(row)) for row in rows], cols,
                             want_basis)


def field_rank(M, K):
    """Rank over K of the matrix of codes M by the depth engine's element
    kernel, _rank_mod over K packed (_Packed), each nonzero code one
    packed term ({0: packed}, 0) at form exponents [0], with the ceiling
    at min(m, n)."""
    n = len(M[0]) if M else 0
    head = _Packed(K, 1, n)
    rows = [[(j, [({0: _pack(x, K.char, head.width)}, 0)])
             for j, x in enumerate(r) if x] for r in M]
    return _rank_mod(rows, n, range(len(M)), [0], head, min(len(M), n))[0]


def snf_divisors(rows, cols):
    return snf(rows, cols).divisors


def test_snf_diag_2_3():
    # 2 and 3 merge into the chain (1, 6)
    assert snf_divisors([[2, 0], [0, 3]], 2) == [1, 6]


def test_snf_row_vector_2_2():
    # presents H1 of the Klein bottle group: Z + Z/2
    form = smith_normal_form([{0: 2, 1: 2}], 2)
    assert form.divisors == [2]
    assert form.coker_free_rank == 1
    assert form.coker_torsion() == [2]


def test_snf_empty_matrix():
    form = smith_normal_form([], 5)
    assert form.divisors == []
    assert form.coker_free_rank == 5


def test_snf_transpose_invariance():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert snf(rows, n).divisors == snf(transpose(rows), m).divisors


def test_snf_transforms_random():
    # the basis V against U A V = D for some unimodular U
    # (smith_basis_holds), with the divisors those of the minors
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        form = snf(rows, n, want_basis=True)
        assert form.divisors == determinantal_divisors(rows, n), rows
        assert smith_basis_holds(rows, form), rows


def test_snf_transforms_larger_stress():
    rng = random.Random(97)
    for _ in range(20):
        m = rng.randint(4, 6)
        n = rng.randint(4, 6)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        form = snf(rows, n, want_basis=True)
        assert form.divisors == snf(rows, n).divisors, rows
        for a, b in zip(form.divisors, form.divisors[1:]):
            assert b % a == 0
        assert smith_basis_holds(rows, form), rows


def test_snf_divisibility_chain_stress():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.choice([0, 0, 2, 3, 4, 6, -8, 12]) for _ in range(n)]
                for _ in range(m)]
        divs = snf_divisors(rows, n)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def _random_snf_matrix(rng, m, n):
    """An m x n integer matrix with zero rows and columns, units next to
    non-units, and torsion: either seeded sparse entries, or a diagonal of
    chosen divisors scrambled by unimodular row and column operations."""
    if rng.random() < 0.5:
        pool = rng.choice([(1, -1, 2, -3, 4, 6), (2, -2, 4, 6, 9),
                           (1, -1, 12, -8), (1, -1)])
        density = rng.random()
        a = [[rng.choice(pool) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]
    else:
        a = [[0] * n for _ in range(m)]
        for i in range(min(m, n)):
            a[i][i] = rng.choice([0, 1, 1, 2, 3, 4, 6, 12])
        for _ in range(rng.randint(0, 2 * (m + n))):
            c = rng.choice([-2, -1, 1, 2])
            if m >= 2 and rng.random() < 0.5:
                i, j = rng.sample(range(m), 2)
                a[j] = [x + c * y for x, y in zip(a[j], a[i])]
            elif n >= 2:
                i, j = rng.sample(range(n), 2)
                for row in a:
                    row[j] += c * row[i]
    for i in range(m):
        if rng.random() < 0.1:
            a[i] = [0] * n
    for j in range(n):
        if rng.random() < 0.1:
            for row in a:
                row[j] = 0
    return a


def test_snf_unit_pivots_match_the_transform_route():
    # the unit-pivot route (no basis) against the dense Euclidean loop
    # (want_basis=True) on seeded matrices of shapes 0 x n, m x 1 and
    # m x n up to 15, and against the gcds of minors up to 5 x 5
    rng = random.Random(2003)
    shapes = ([(0, n) for n in range(1, 6)] + [(m, 1) for m in range(1, 16)]
              + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(150)]
              + [(rng.randint(1, 15), rng.randint(1, 15))
                 for _ in range(150)])
    torsion = 0
    for m, n in shapes:
        a = _random_snf_matrix(rng, m, n)
        form = snf(a, n)
        dense = snf(a, n, want_basis=True)
        assert form.divisors == dense.divisors, a
        assert form.coker_free_rank == dense.coker_free_rank, a
        if m <= 5 and n <= 5:
            assert form.divisors == determinantal_divisors(a, n), a
        torsion += bool(form.coker_torsion())
    assert torsion > 50


def test_sparse_snf_rows_are_not_modified():
    # explicit zeros are allowed, and the caller's rows come back intact
    rows = [{0: 1, 1: 0, 2: 3}, {0: 2, 2: 6}, {1: 4}, {}]
    copy = [dict(r) for r in rows]
    form = smith_normal_form(rows, 4)
    assert form.divisors == [1, 4]
    assert form.coker_free_rank == 2
    assert rows == copy
    with pytest.raises(ValueError):
        smith_normal_form([{4: 1}], 4)


def test_rank_identity_over_F4():
    K = extension_field(2, 2)
    M = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert field_rank(M, K) == 3


def test_rank_all_ones_over_F2():
    K = prime_field(2)
    assert field_rank([[1, 1], [1, 1]], K) == 1


def test_rank_cyclotomic_example():
    # (1 - t2, t1 - 1) at (zeta_3, 1): one nonzero entry
    K = CyclotomicField(3)
    zeta = K.element([0, 1])
    row = [K.one() - K.one(), zeta - K.one()]
    assert rank_of_elements([row]) == 1


def test_rank_metamorphic_invariance():
    rng = random.Random(23)
    K = prime_field(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
        r = field_rank(M, K)
        rows = M[:]
        rng.shuffle(rows)
        assert field_rank(rows, K) == r
        unit = rng.randint(1, 6)
        scaled = [[K.mul(unit, x) for x in rows[0]]] + rows[1:]
        assert field_rank(scaled, K) == r
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[j] for j in cols] for row in M]
        assert field_rank(permuted, K) == r


def test_certified_rank_matches_generic():
    # the depth engine's modular rank, certified by the norm bound alone
    # (no Fox ceiling), against the generic division-based rank over the
    # tests' Q(zeta_N); entry sum_j c_j zeta^j is the Laurent polynomial
    # sum_j c_j t^j at the character t -> zeta_N
    import random
    from hallinv.charvar import DepthEngine
    from hallinv.foxcalc import AlexanderMatrix
    rng = random.Random(55)
    for N in (3, 4, 5):
        K = CyclotomicField(N)
        d = K.degree
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            coeff_rows = [[[rng.randint(-4, 4) for _ in range(d)]
                           for _ in range(n)] for _ in range(m)]
            generic = [[K.element(vec) for vec in row] for row in coeff_rows]
            want = rank_of_elements(generic)
            entries = [[{(j,): c for j, c in enumerate(vec) if c}
                        for vec in row] for row in coeff_rows]
            engine = DepthEngine(AlexanderMatrix(None, entries, n), N, 0)
            assert engine.mode == "modular"
            assert engine._certified_rank(engine._exponents((1,)),
                                          min(m, n)) == want


def test_library_has_no_bare_asserts():
    # invariant checks raise InvariantViolation, which survives python -O
    # and names the check, rather than assert or a bare AssertionError
    import ast
    import pathlib
    import hallinv

    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    for path in pathlib.Path(hallinv.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)
                 or isinstance(node, ast.Raise) and node.exc is not None
                 and raises_assertion_error(node)]
        assert not lines, \
            f"{path.name}: assert or AssertionError on lines {lines}"


def test_library_imports_no_fractions():
    # every rank is over a finite field, characteristic 0 included (split
    # primes stand in for Q(zeta_N)), and Hall's recursion divides exactly,
    # so every module of the library stays in integers
    import ast
    import pathlib
    import hallinv

    for path in sorted(pathlib.Path(hallinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "fractions"
                 or isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "fractions"
                         for a in node.names)]
        assert not lines, f"{path.name}: imports fractions on lines {lines}"


def test_rank_reads_codes_past_the_characteristic():
    # an entry is the code of an element of K, an int in 0..q^s - 1:
    # 8 is 2x + 2 in F_9
    assert field_rank([[8, 0]], extension_field(3, 2)) == 1


def test_element_kernel_matches_element_elimination():
    # the library's elimination on packed digits against the reference's
    # on elements, over prime and extension fields, three past the Zech
    # table limit: in F_{257^2} and F_{65519^2} a product of two reduced
    # elements reaches 2 (q - 1)^2, about 2^17 and 2^33, in a slot.  Half
    # the matrices of 3 or more rows have a row that is the sum of another
    # and a multiple of a third, so their rank falls short
    rng = random.Random(61)
    for K in (prime_field(2), prime_field(7), extension_field(2, 2),
              extension_field(3, 3), extension_field(2, 18),
              extension_field(257, 2), extension_field(65519, 2)):
        E = FiniteField(K)
        for _ in range(15):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randrange(K.order()) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(m)]
            if m > 2 and rng.random() < 0.5:
                a, b, d = rng.sample(range(m), 3)
                c = rng.randrange(K.order())
                M[a] = [K.add(x, K.mul(c, y)) for x, y in zip(M[b], M[d])]
            want = rank_of_elements([[FiniteElement(E, x) for x in row]
                                     for row in M])
            assert field_rank(M, K) == want, (K, M)
