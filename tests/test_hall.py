import pytest

from hallinv.fields import multiplicative_order
from hallinv.foxcalc import abelianization
from hallinv.hall import (
    AbelianGroupSpec, aut_order_abelian,
    construct_mpqs, delta_mpqs, theta, theta_total,
)
from hallinv.oracle import FiniteGroupTable, aut_order, hom_count
from hallinv.presentations import (
    free_group, nonorientable_surface_group, orientable_surface_group,
    parse_presentation, product_of_free_groups,
)
from reference import (aut_order_mpqs, delta_abelian_of, hom_epi_count_mpqs,
                       tables_isomorphic)


# reference closed forms and enumeration-principle data, independent of
# the library's routes: the tests compare the library against them

def eulerian_pgroup(p, r, s, n):
    """Number of generating n-tuples of a p-group of order p^r whose
    Frattini quotient has order p^s."""
    if not (r >= s >= 0 and n >= 1):
        raise ValueError("need r >= s >= 0 and n >= 1")
    out = p ** ((r - s) * n)
    for i in range(s):
        out *= p ** n - p ** i
    return out


def mobius_weisner(p, d, contains_frattini):
    """Moebius function of a subgroup of index p^d in a finite p-group:
    (-1)^d p^{d(d-1)/2} above the Frattini subgroup, 0 otherwise."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not contains_frattini:
        return 0
    return (-1) ** d * p ** (d * (d - 1) // 2)


def hall_enumeration_fold(entries):
    """Generic Moebius fold: sum of mu(H) * |Hom(G, H)| over an explicitly
    supplied subgroup lattice."""
    return sum(mu * hom for mu, hom in entries)


# Subgroup lattices with Moebius values for the two targets the index-3
# count is derived from (each row: order, mu, how many conjugate copies).
S3_LATTICE = ((6, 1, 1), (3, -1, 1), (2, -1, 3), (1, 3, 1))
A4_LATTICE = ((12, 1, 1), (4, -1, 1), (3, -1, 4), (2, 0, 3), (1, 4, 1))


def delta_free_mpqs(p, q, n):
    """delta of a free group of rank n against M_{p,q^s}."""
    s = multiplicative_order(q, p)
    num = (p ** n - 1) * (q ** (s * (n - 1)) - 1)
    den = s * (q ** s - 1)
    assert num % den == 0
    return num // den


def delta_free_metacyclic(p, q, n):
    """Metacyclic case p | q - 1 (s = 1)."""
    if (q - 1) % p:
        raise ValueError("requires p | q - 1")
    return (p ** n - 1) * (q ** (n - 1) - 1) // (q - 1)


def delta_free_alternating4(n):
    """Target A_4 = M_{3,4}."""
    return (3 ** n - 1) * (4 ** (n - 1) - 1) // 6


def test_partition_helpers():
    # partitions are weakly decreasing tuples, normalized once by the spec
    spec = AbelianGroupSpec({2: [1, 2], 3: []})
    assert spec.partitions == {2: (2, 1)}  # sorted decreasing, empty dropped
    assert AbelianGroupSpec.from_cyclic_factors([2, 4, 3]).partitions \
        == {2: (2, 1), 3: (1,)}
    with pytest.raises(ValueError):
        AbelianGroupSpec({2: [1, 0]})
    # length 2, weight 3 and angle sum (i - 1) lam_i = 1 give
    # |Aut(Z_4 + Z_2)| = 2^{3 + 2 * 1} (1 - 1/2)^2
    assert aut_order_abelian(spec) == 2 ** (3 + 2 * 1) // 4
    # theta reads the derived partition (1,) of (2, 1), and a part past
    # the length is out of range
    assert theta_total((1,), (1, 1)) == 2
    with pytest.raises(IndexError):
        theta((2, 1), (1,), 3)


def test_theta_examples():
    assert theta_total((2, 1), ()) == 0
    assert theta((2, 1), (1,), 1) == 1
    assert theta((2, 1), (1,), 2) == 1
    assert theta_total((3, 1), (2, 2)) == 6
    with pytest.raises(IndexError):
        theta((2,), (1,), 2)


def test_aut_order_abelian():
    assert aut_order_abelian(AbelianGroupSpec.from_cyclic_factors([2, 2])) == 6
    assert aut_order_abelian(AbelianGroupSpec.from_cyclic_factors([4])) == 2
    assert aut_order_abelian(AbelianGroupSpec.from_cyclic_factors([2, 4])) == 8
    assert aut_order_abelian(AbelianGroupSpec.from_cyclic_factors([6])) == 2


def test_aut_order_abelian_matches_oracle():
    for factors in ([2], [4], [2, 2], [8], [2, 4], [3, 3], [6], [12]):
        spec = AbelianGroupSpec.from_cyclic_factors(factors)
        assert aut_order_abelian(spec) == aut_order(spec.table())


def test_delta_abelian_values():
    assert delta_abelian_of(free_group(3), [2]) == 7
    assert delta_abelian_of(free_group(4), [2, 4]) == 420
    klein = nonorientable_surface_group(2)
    assert delta_abelian_of(klein, [3]) == 1
    assert delta_abelian_of(klein, [2, 2]) == 1
    assert delta_abelian_of(klein, [4]) == 2
    # targets H_1 cannot reach
    assert delta_abelian_of(free_group(1), [2, 2]) == 0
    assert delta_abelian_of(parse_presentation("gens: x; rels: x^3"), [2]) == 0


def test_delta_abelian_table1_block():
    # free-group rows of the delta table for the abelian columns
    columns = {(2,): [3, 7, 15], (3,): [4, 13, 40], (2, 2): [1, 7, 35],
               (4,): [6, 28, 120], (2, 4): [3, 42, 420], (8,): [12, 112, 960]}
    for factors, values in columns.items():
        for n, want in zip((2, 3, 4), values):
            assert delta_abelian_of(free_group(n), list(factors)) == want


def test_delta_abelian_nonorientable_rows():
    # genus 3 and 4 cross-sections of the table
    rows = {3: {(2,): 7, (3,): 4, (2, 2): 7, (4,): 12, (2, 4): 18, (8,): 24},
            4: {(2,): 15, (3,): 13, (2, 2): 35, (4,): 56, (2, 4): 196,
                (8,): 224}}
    for n, cols in rows.items():
        P = nonorientable_surface_group(n)
        for factors, want in cols.items():
            assert delta_abelian_of(P, list(factors)) == want


def test_delta_multiplicative_over_coprime():
    # Z_6 spec equals the product of the Z_2 and Z_3 invariants
    for P in (free_group(2), free_group(3), nonorientable_surface_group(3)):
        d6 = delta_abelian_of(P, [6])
        assert d6 == delta_abelian_of(P, [2]) * delta_abelian_of(P, [3])


def test_eulerian_pgroup():
    assert eulerian_pgroup(2, 2, 2, 2) == 6
    assert eulerian_pgroup(2, 2, 1, 1) == 2  # Z_4, one generator
    for p, n in [(2, 3), (3, 2), (5, 4)]:
        assert eulerian_pgroup(p, 1, 1, n) == p ** n - 1


def test_mobius_weisner():
    assert mobius_weisner(2, 0, True) == 1
    assert mobius_weisner(2, 2, True) == 2
    assert mobius_weisner(3, 2, True) == 3
    assert mobius_weisner(2, 1, False) == 0


def test_construct_mpqs_s3():
    M = construct_mpqs(2, 3)
    assert M.s == 1 and M.table.order == 6
    assert aut_order_mpqs(2, 3) == 6
    assert tables_isomorphic(M.table, FiniteGroupTable.symmetric(3))


def test_construct_mpqs_a4():
    M = construct_mpqs(3, 2)
    assert M.s == 2 and M.table.order == 12
    assert aut_order_mpqs(3, 2) == 24
    S4 = FiniteGroupTable.symmetric(4)
    evens = [i for i in range(24) if _is_even_perm(i)]
    A4 = S4.subgroup_table(S4.closure(evens))
    assert A4.order == 12
    assert tables_isomorphic(M.table, A4)
    assert aut_order(M.table) == 24


def _is_even_perm(index):
    from itertools import permutations
    perm = sorted(permutations(range(4)))[index]
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j])
    return inversions % 2 == 0


def test_construct_mpqs_m37():
    M = construct_mpqs(3, 7)
    assert M.s == 1 and M.table.order == 21
    assert aut_order_mpqs(3, 7) == 42
    assert aut_order(M.table) == 42


@pytest.mark.parametrize("p, q", [(2, 5), (2, 7), (5, 2), (7, 2), (3, 5),
                                  (5, 11)])
def test_construct_mpqs_counts_match_formula(p, q):
    # the formula side reads only character depths, never the table, so
    # agreeing counts check the table from outside
    M = construct_mpqs(p, q)
    assert M.table.order == p * q ** M.s
    F2 = free_group(2)
    assert (hom_count(F2, M.table, "all"), hom_count(F2, M.table, "epi")) \
        == hom_epi_count_mpqs(F2, p, q)
    if M.table.order <= 56:
        assert aut_order(M.table) == aut_order_mpqs(p, q)


def test_delta_mpqs_free_groups():
    assert delta_mpqs(free_group(2), 2, 3) == 3
    assert delta_mpqs(free_group(2), 3, 2) == 4
    assert delta_mpqs(free_group(2), 3, 7) == 8
    assert delta_mpqs(free_group(4), 3, 2) == 840


def test_delta_mpqs_matches_closed_forms():
    for n in (1, 2, 3, 4):
        for p, q in [(2, 3), (2, 5), (2, 7), (3, 2), (3, 5), (3, 7),
                     (5, 2), (5, 3), (5, 7), (7, 2), (7, 3), (7, 5)]:
            want = delta_free_mpqs(p, q, n)
            assert delta_mpqs(free_group(n), p, q) == want
    assert delta_free_metacyclic(2, 3, 3) == 28
    assert delta_free_alternating4(4) == 840
    assert delta_free_mpqs(3, 7, 2) == 8


def test_hom_epi_count_mpqs():
    hom, epi = hom_epi_count_mpqs(free_group(2), 2, 3)
    assert (hom, epi) == (36, 18)
    hom, _ = hom_epi_count_mpqs(free_group(3), 3, 2)
    assert hom == 12 ** 3
    _, epi = hom_epi_count_mpqs(nonorientable_surface_group(2), 3, 2)
    assert epi == 0


def test_delta_abelian_matches_enumeration():
    # brute-force |Epi|/|Aut| over the full table, for all six abelian
    # targets of the published table
    from hallinv.oracle import delta_oracle
    targets = ([2], [3], [4], [2, 2], [8], [2, 4])
    for P in (free_group(2), nonorientable_surface_group(3),
              product_of_free_groups([2, 1]), orientable_surface_group(2)):
        for factors in targets:
            spec = AbelianGroupSpec.from_cyclic_factors(factors)
            assert delta_abelian_of(P, factors) == \
                delta_oracle(P, spec.table()), (P, factors)


def test_kwak_chun_lee_closed_forms():
    # torsion-free H_1 specializations of the partition formula
    def d_cyclic_ps(p, s, n):
        return (p ** (s * n) - p ** ((s - 1) * n)) \
            // (p ** s - p ** (s - 1))

    def d_elementary(p, s, n):
        num, den = 1, 1
        for i in range(s):
            num *= p ** n - p ** i
            den *= p ** s - p ** i
        assert num % den == 0
        return num // den

    def d_mixed(p, s, n):
        return ((p ** (s * n) - p ** ((s - 1) * n)) * (p ** n - p)
                // (p ** (s + 1) * (p - 1) ** 2))

    for P, n in ((free_group(2), 2), (free_group(3), 3),
                 (product_of_free_groups([2, 2]), 4),
                 (orientable_surface_group(2), 4)):
        for p, s in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            if s <= n:
                assert delta_abelian_of(P, [p ** s]) == d_cyclic_ps(p, s, n)
                assert delta_abelian_of(P, [p] * s) == d_elementary(p, s, n)
            if s >= 2 and s + 1 <= 2 * n:
                assert delta_abelian_of(P, [p, p ** s]) == d_mixed(p, s, n)


def test_subgroup_lattice_fold_derives_a3():
    # h_3 through the enumeration principle over the explicit lattice of
    # the order-6 target, then Hall's recursion, must reproduce the
    # closed index-3 formula
    from fractions import Fraction
    from hallinv.census import a2_a3
    from hallinv.foxcalc import abelianization

    tables = {6: construct_mpqs(2, 3).table, 3: FiniteGroupTable.cyclic(3),
              2: FiniteGroupTable.cyclic(2), 1: FiniteGroupTable.cyclic(1)}
    for P in (free_group(2), free_group(3), nonorientable_surface_group(3),
              product_of_free_groups([2, 1])):
        # epimorphism counts over every subgroup sum to |Hom(G, S_3)|
        h3 = sum(copies * hom_count(P, tables[order], mode="epi")
                 for order, _, copies in S3_LATTICE)
        assert h3 == hom_count(P, tables[6])
        # Moebius fold gives the epimorphism count onto the full group
        phi = hall_enumeration_fold(
            (mu * copies, hom_count(P, tables[order]))
            for order, mu, copies in S3_LATTICE)
        assert phi == 6 * delta_mpqs(P, 2, 3)
        # M. Hall's recursion from h_1..h_3 equals the closed form
        h2 = hom_count(P, FiniteGroupTable.cyclic(2))
        a2 = h2 - 1
        a3 = Fraction(h3, 2) - Fraction(h2, 2) - a2
        assert a3.denominator == 1
        assert (a2, int(a3)) == a2_a3(P)

    # the alternating-group lattice fold likewise gives 12 |Aut|-fold epis
    A4 = construct_mpqs(3, 2).table
    tables_a4 = {12: A4, 4: FiniteGroupTable.abelian([2, 2]),
                 3: FiniteGroupTable.cyclic(3),
                 2: FiniteGroupTable.cyclic(2), 1: FiniteGroupTable.cyclic(1)}
    for P in (free_group(2), nonorientable_surface_group(3)):
        phi = hall_enumeration_fold(
            (mu * copies, hom_count(P, tables_a4[order]))
            for order, mu, copies in A4_LATTICE)
        assert phi == 24 * delta_mpqs(P, 3, 2)


def test_figure_lattices_match_brute_force():
    # the shipped (order, mu, copies) rows are exactly the brute-forced
    # subgroup lattices with their Moebius functions
    for lattice, table in ((S3_LATTICE, construct_mpqs(2, 3).table),
                           (A4_LATTICE, construct_mpqs(3, 2).table)):
        mu = table.moebius()
        got = {}
        for H, m in mu.items():
            key = (len(H), m)
            got[key] = got.get(key, 0) + 1
        want = {}
        for order, m, copies in lattice:
            key = (order, m)
            want[key] = want.get(key, 0) + copies
        assert got == want


def test_epi_over_aut_equals_delta():
    targets = [(2, 3), (3, 2), (3, 7), (2, 5)]
    groups = [free_group(2), free_group(3), nonorientable_surface_group(3),
              product_of_free_groups([2, 1]), orientable_surface_group(2)]
    for P in groups:
        for p, q in targets:
            _, epi = hom_epi_count_mpqs(P, p, q)
            aut = aut_order_mpqs(p, q)
            assert epi % aut == 0
            assert epi // aut == delta_mpqs(P, p, q)
