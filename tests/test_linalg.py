import random

import pytest

from hallinv.linalg import IntMatrix, smith_normal_form, rank_over_field
from hallinv.fields import prime_field, extension_field
from reference import CyclotomicField


def snf_divisors(rows, cols=None):
    A = IntMatrix.from_rows(rows, cols)
    return smith_normal_form(A).divisors


def test_snf_diag_2_3():
    # 2 and 3 merge into the chain (1, 6)
    assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]


def test_snf_row_vector_2_2():
    # presents H1 of the Klein bottle group: Z + Z/2
    form = smith_normal_form(IntMatrix.from_rows([[2, 2]]))
    assert form.divisors == [2]
    assert form.coker_free_rank == 1
    assert form.coker_torsion() == [2]


def test_snf_empty_matrix():
    form = smith_normal_form(IntMatrix.zeros(0, 5))
    assert form.divisors == []
    assert form.coker_free_rank == 5


def test_snf_transpose_invariance():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows, n)
        assert (smith_normal_form(A).divisors
                == smith_normal_form(A.transpose()).divisors)


def _det(M):
    # Laplace expansion; fine for the tiny unimodular matrices checked here
    n = M.rows
    if n == 0:
        return 1
    if n == 1:
        return M.entries[0][0]
    total = 0
    for j in range(n):
        if M.entries[0][j]:
            minor = IntMatrix.from_rows(
                [[M.entries[i][k] for k in range(n) if k != j]
                 for i in range(1, n)], n - 1)
            total += (-1) ** j * M.entries[0][j] * _det(minor)
    return total


def test_snf_transforms_random():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows, n)
        form = smith_normal_form(A, want_transform=True)
        U, V = form.transform
        D = U.mul(A).mul(V)
        for i in range(m):
            for j in range(n):
                want = form.divisors[i] if i == j and i < form.rank else 0
                assert D.entries[i][j] == want
        assert _det(U) in (1, -1)
        assert _det(V) in (1, -1)
        assert V.mul(form.vinv) == IntMatrix.identity(n)


def test_snf_transforms_larger_stress():
    rng = random.Random(97)
    for _ in range(20):
        m = rng.randint(4, 6)
        n = rng.randint(4, 6)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows, n)
        form = smith_normal_form(A, want_transform=True)
        U, V = form.transform
        D = U.mul(A).mul(V)
        for i in range(m):
            for j in range(n):
                want = form.divisors[i] if i == j and i < form.rank else 0
                assert D.entries[i][j] == want
        for a, b in zip(form.divisors, form.divisors[1:]):
            assert b % a == 0
        assert V.mul(form.vinv) == IntMatrix.identity(n)


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


def test_rank_identity_over_F4():
    K = extension_field(2, 2)
    M = [[K.one() if i == j else K.zero() for j in range(3)] for i in range(3)]
    assert rank_over_field(M, K) == 3


def test_rank_all_ones_over_F2():
    K = prime_field(2)
    one = K.one()
    assert rank_over_field([[one, one], [one, one]], K) == 1


def test_rank_cyclotomic_example():
    # (1 - t2, t1 - 1) at (zeta_3, 1): one nonzero entry
    K = CyclotomicField(3)
    zeta = K.element([0, 1])
    row = [K.one() - K.one(), zeta - K.one()]
    assert rank_over_field([row], K) == 1


def test_rank_metamorphic_invariance():
    rng = random.Random(23)
    K = prime_field(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[K.from_int(rng.randint(0, 6)) for _ in range(n)] for _ in range(m)]
        r = rank_over_field(M, K)
        rows = M[:]
        rng.shuffle(rows)
        assert rank_over_field(rows, K) == r
        unit = K.from_int(rng.randint(1, 6))
        scaled = [[unit * x for x in rows[0]]] + rows[1:]
        assert rank_over_field(scaled, K) == r
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[j] for j in cols] for row in M]
        assert rank_over_field(permuted, K) == r


def test_certified_rank_matches_generic():
    # the depth engine's modular rank, certified by the norm bound alone
    # (no Fox ceiling), against the generic division-based rank over the
    # tests' Q(zeta_N); entry sum_j c_j zeta^j is the Laurent polynomial
    # sum_j c_j t^j at the character t -> zeta_N
    import random
    from hallinv.charvar import DepthEngine
    from hallinv.foxcalc import AlexanderMatrix, LaurentElement
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
            want = rank_over_field(generic, K)
            entries = [[LaurentElement({((j,), ()): c
                                        for j, c in enumerate(vec) if c})
                        for vec in row] for row in coeff_rows]
            engine = DepthEngine(AlexanderMatrix(None, entries, n), N, 0)
            assert engine.mode == "modular"
            assert engine._certified_rank((1,), min(m, n)) == want


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


def test_field_and_depth_modules_import_no_fractions():
    # every rank is over a finite field, characteristic 0 included (split
    # primes stand in for Q(zeta_N)), so these modules stay in integers
    import ast
    import pathlib
    import hallinv

    root = pathlib.Path(hallinv.__file__).parent
    for name in ("fields.py", "charvar.py"):
        tree = ast.parse((root / name).read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "fractions"
                 or isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "fractions"
                         for a in node.names)]
        assert not lines, f"{name}: imports fractions on lines {lines}"


def test_rank_rejects_foreign_entries():
    K1 = prime_field(3)
    K2 = prime_field(3)
    with pytest.raises(ValueError):
        rank_over_field([[K2.one()]], K1)
