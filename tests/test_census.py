import pytest

from hallinv.braids import fixture
from hallinv.census import (
    UnsupportedIndexError, a2_a3, a_k_via_hall_recursion, a_normal,
    abelian_groups_of_order, alpha_k, c_p, census,
)
from hallinv.hall import delta_mpqs
from hallinv.presentations import (
    free_group, orientable_surface_group, parse_presentation,
    product_of_free_groups,
)
import reference
from reference import (a_k_free, a_k_Zn, a_normal_by_enumeration,
                       a_normal_closed, a_p_product_with_Z, delta_abelian_of,
                       direct_product_with_Z)

Z2_PRES = parse_presentation("gens: x, y; rels: [x,y]")


def test_a_k_free_values():
    assert a_k_free(2, 2) == 3
    assert a_k_free(2, 3) == 13
    assert a_k_free(2, 4) == 71
    assert a_k_free(3, 2) == 7
    # 3(3^{n-1} - 1)2^{n-1} + 1
    for n in (2, 3, 4):
        assert a_k_free(n, 3) == 3 * (3 ** (n - 1) - 1) * 2 ** (n - 1) + 1


def test_hall_recursion_matches_closed_free():
    for n in (2, 3):
        for k in (2, 3, 4):
            assert a_k_via_hall_recursion(free_group(n), k) == a_k_free(n, k)


def test_hall_recursion_z2():
    assert a_k_via_hall_recursion(Z2_PRES, 3) == 4
    assert a_k_via_hall_recursion(Z2_PRES, 2) == 3


def test_a_k_Zn():
    assert all(a_k_Zn(1, k) == 1 for k in range(1, 10))
    assert a_k_Zn(2, 2) == 3
    assert a_k_Zn(2, 6) == 12
    # sigma(k) for Z^2
    for k in range(1, 13):
        assert a_k_Zn(2, k) == sum(d for d in range(1, k + 1) if k % d == 0)


def test_a2_a3_values():
    assert a2_a3(free_group(2)) == (3, 13)
    assert a2_a3(free_group(3)) == (7, 97)
    # surface of genus 2: Mednykh's value 3(3^{2g-2}-1)(2^{2g-1}+1)+4
    _, a3 = a2_a3(orientable_surface_group(2))
    assert a3 == 3 * (3 ** 2 - 1) * (2 ** 3 + 1) + 4


def test_a3_surface_closed_forms():
    # 3(3^{2g-2} - 1)(2^{2g-1} + 1) + 4 and its nonorientable analogue
    from hallinv.presentations import nonorientable_surface_group
    for g in (1, 2):
        _, a3 = a2_a3(orientable_surface_group(g))
        assert a3 == 3 * (3 ** (2 * g - 2) - 1) * (2 ** (2 * g - 1) + 1) + 4
    for n in (3, 4, 5):
        _, a3 = a2_a3(nonorientable_surface_group(n))
        assert a3 == 3 * (3 ** (n - 2) - 1) * (2 ** (n - 1) + 1) + 4


def test_a2_a3_matches_recursion():
    for P in (free_group(2), Z2_PRES, product_of_free_groups([2, 1]),
              orientable_surface_group(2)):
        a2, a3 = a2_a3(P)
        assert a2 == a_k_via_hall_recursion(P, 2)
        assert a3 == a_k_via_hall_recursion(P, 3)


def test_a_normal_small_indices():
    F2 = free_group(2)
    assert a_normal(F2, 2) == 3
    assert a_normal(F2, 4) == 7          # = delta_{Z4} + delta_{Z2^2}
    assert a_normal_closed(F2, 4) == delta_abelian_of(F2, [4]) + \
        delta_abelian_of(F2, [2, 2])
    assert a_normal(F2, 6) == 15         # = delta_{Z6} + delta_{S3}
    assert a_normal_closed(F2, 6) == delta_abelian_of(F2, [6]) + \
        delta_mpqs(F2, 2, 3)
    # 15 = 3 * 5: 3 does not divide 4, so only Z_15 counts
    assert a_normal_closed(F2, 15) == delta_abelian_of(F2, [15])
    assert a_normal(F2, 15) == a_normal_closed(F2, 15)
    with pytest.raises(UnsupportedIndexError):
        a_normal(F2, 8)
    with pytest.raises(UnsupportedIndexError):
        a_normal(F2, 12)


def test_a_normal_delta_sum_consistency():
    # the closed forms against the sum of delta over all groups of order
    # k, recomputed from the hall module outputs: neither side is a_normal
    for P in (free_group(2), free_group(3)):
        for k in (4, 9):
            p = 2 if k == 4 else 3
            want = delta_abelian_of(P, [k]) + delta_abelian_of(P, [p, p])
            assert a_normal_closed(P, k) == want
        for k, (u, v) in ((6, (2, 3)), (10, (2, 5)), (15, (3, 5))):
            want = delta_abelian_of(P, [k])
            if (v - 1) % u == 0:
                want += delta_mpqs(P, u, v)
            assert a_normal_closed(P, k) == want


def test_a_normal_matches_enumeration():
    # a_normal sums the library's Hall invariants; the oracle counts
    # Epi / Aut over every group of order k by enumeration
    from hallinv.presentations import nonorientable_surface_group
    for P in (free_group(2), nonorientable_surface_group(3),
              orientable_surface_group(2)):
        for k in (2, 3, 4, 5, 6, 9, 10):
            want = a_normal_by_enumeration(P, k)
            assert a_normal(P, k) == want == a_normal_closed(P, k), (P, k)


def test_abelian_groups_of_order():
    assert [spec.cyclic_factors() for spec in abelian_groups_of_order(4)] \
        == [[4], [2, 2]]
    assert [spec.cyclic_factors() for spec in abelian_groups_of_order(12)] \
        == [[4, 3], [2, 2, 3]]
    assert len(abelian_groups_of_order(8)) == 3


def test_alpha_k():
    F2 = free_group(2)
    assert alpha_k(F2, 4) == 7
    assert alpha_k(Z2_PRES, 4) == a_k_Zn(2, 4)
    # alpha_k(G) = a_k(H_1(G)) when H_1 is torsion-free
    for k in (2, 3, 4, 6):
        assert alpha_k(free_group(3), k) == a_k_Zn(3, k)
    assert alpha_k(parse_presentation("gens: x; rels:"), 5) == 1


def test_c_p():
    def c(P, p):
        return c_p(P, p, a_p=a_k_via_hall_recursion(P, p))
    assert c(free_group(2), 2) == 3
    assert c(free_group(2), 3) == 7
    assert c(Z2_PRES, 3) == 4  # all sublattices normal


def test_a_p_product_with_Z():
    F2 = free_group(2)
    assert a_p_product_with_Z(F2, 2) == 7
    assert a_p_product_with_Z(F2, 3) == 22
    # cross-check against the recursion on the product presentation
    F2xZ = direct_product_with_Z(F2)
    assert a_k_via_hall_recursion(F2xZ, 2) == 7
    assert a_k_via_hall_recursion(F2xZ, 3) == 22
    # a_3(Z x Z) = a_3(Z^2)
    Z = parse_presentation("gens: x; rels:")
    assert a_p_product_with_Z(Z, 3) == a_k_Zn(2, 3)
    # horizontal:123456 is F_5 x Z; |S_5|^6 maps exceed the default
    # budget, but the search the recursion runs fits
    assert a_k_via_hall_recursion(fixture("horizontal:123456"), 5) == \
        a_p_product_with_Z(free_group(5), 5, a_p=a_k_free(5, 5)) == \
        1035048246


def test_hall_recursion_arrangements_index_4():
    # the searches a budget of 10^8 finishes, though |S_4|^generators
    # exceeds it
    assert a_k_via_hall_recursion(fixture("deleted_b3"), 4) == 59783
    assert a_k_via_hall_recursion(fixture("non_fano"), 4) == 14719


def test_index_2_counts_coincide():
    # index 2 forces normality with quotient Z_2, so all three counts agree
    from hallinv.census import a_normal
    for P in (free_group(2), Z2_PRES, orientable_surface_group(2),
              fixture_rp3()):
        a2, _ = a2_a3(P)
        assert a2 == a_normal(P, 2) == alpha_k(P, 2)


def fixture_rp3():
    from hallinv.presentations import nonorientable_surface_group
    return nonorientable_surface_group(3)


def test_a_k_matches_transitive_action_count():
    # a_k equals the number of transitive actions on k points divided by
    # (k-1)!: counted tuple by tuple, the most literal subgroup census
    from itertools import product as iproduct
    from math import factorial
    from hallinv.oracle import FiniteGroupTable

    def transitive_count(P, k):
        T = FiniteGroupTable.symmetric(k)
        from itertools import permutations
        perms = sorted(permutations(range(k)))
        letters = [reference.letters(r) for r in P.relators]
        count = 0
        for images in iproduct(range(T.order), repeat=P.num_generators):
            ok = True
            for prog in letters:
                x = T.identity
                for g, s in prog:
                    y = images[g] if s > 0 else T.inv[images[g]]
                    x = T.mul[x][y]
                if x != T.identity:
                    ok = False
                    break
            if not ok:
                continue
            # orbit of 0 under the image permutations
            orbit = {0}
            frontier = [0]
            while frontier:
                a = frontier.pop()
                for im in images:
                    for p in (perms[im], perms[T.inv[im]]):
                        if p[a] not in orbit:
                            orbit.add(p[a])
                            frontier.append(p[a])
            if len(orbit) == k:
                count += 1
        assert count % factorial(k - 1) == 0
        return count // factorial(k - 1)

    for P in (free_group(2), Z2_PRES, product_of_free_groups([2, 1]),
              fixture_rp3()):
        for k in (2, 3, 4):
            assert transitive_count(P, k) == a_k_via_hall_recursion(P, k)


def test_census_report():
    d = census(free_group(2), 3, want_conjugacy=True)
    assert d["a_k"] == 13 and d["a_k_normal"] == 4 and d["alpha_k"] == 4
    assert d["c_k"] == 7
    # "k" first, then the counts and their method tags sorted by key
    assert list(d) == ["k", "a_k", "a_k_method", "a_k_normal",
                       "a_k_normal_method", "alpha_k", "alpha_k_method",
                       "c_k", "c_k_method"]
    d = census(free_group(2), 8)
    assert str(d["a_k_normal"]).startswith("unsupported")
    assert d["a_k"] == "infeasible"  # S_8 is over budget
