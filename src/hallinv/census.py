"""Counting finite-index subgroups: all, normal, abelian-quotient, and
conjugacy classes.

Every normal count is a sum of Hall invariants: a_k_normal is the sum of
delta over the groups of order k.  For k prime, p^2 or pq those are the
abelian groups and, when k = uv with u | v - 1, the metabelian M_{u,v};
other k report unsupported.  The abelian-quotient count alpha_k is the
abelian part of that sum.  The index-k count of all subgroups comes from
M. Hall's recursion through homomorphism counts into symmetric groups;
index 2 and 3 also have closed forms in the Hall invariants, which is
how the recursion gets checked.
"""

from __future__ import annotations

from math import factorial

from .charvar import Group
from .errors import InvariantViolation
from .fields import factorize
from .hall import AbelianGroupSpec, delta_abelian, delta_mpqs
from .oracle import (DEFAULT_BUDGET, BudgetExceeded, FiniteGroupTable,
                     check_table_budget, hom_count)


class UnsupportedIndexError(ValueError):
    """Indices with a group of order k outside the abelian groups and the
    implemented metabelian family (k = 8, 12, or three-factor shapes)."""


def a_k_via_hall_recursion(P, k, budget=DEFAULT_BUDGET):
    """Number of index-k subgroups by M. Hall's recursion, in integers,

        (j-1)! a_j = h_j - sum_{l<j} ((j-1)!/(j-l)!) h_{j-l} a_l,

    h_l = |Hom(G, S_l)| by enumeration.  The budget is checked before the
    S_l multiplication table (of l!^2 entries) is built, and hom_count
    then charges its search as it goes, so a request fails once the work
    it has done exceeds the budget, not on a price set in advance."""
    if k < 1:
        raise ValueError("k must be positive")
    h = {}
    for l in range(1, k + 1):
        check_table_budget(factorial(l), budget)
        h[l] = hom_count(P, FiniteGroupTable.symmetric(l), "all", budget)
    a = {1: 1}
    for j in range(2, k + 1):
        scale = factorial(j - 1)
        total = h[j] - sum(scale // factorial(j - l) * h[j - l] * a[l]
                           for l in range(1, j))
        a[j], rest = divmod(total, scale)
        if rest or a[j] < 0:
            raise InvariantViolation(
                f"a_{j} = {total}/{scale} is not a nonnegative integer")
    return a[k]


def a2_a3(G):
    """(a_2, a_3) from Hall invariants: every index-2 subgroup is normal,
    and an index-3 subgroup is normal or one of the three conjugates whose
    core has quotient S_3, so a_2 = a_2^normal and
    a_3 = a_3^normal + 3 delta_{S_3}."""
    G = Group.of(G)
    return a_normal(G, 2), a_normal(G, 3) + 3 * delta_mpqs(G, 2, 3)


def a_normal(G, k):
    """Number of index-k normal subgroups: the sum of delta over the groups
    of order k, for k prime, p^2 or pq.  Those are the abelian groups,
    summed by alpha_k, and M_{u,v} when k = uv with u | v - 1; other k
    raise UnsupportedIndexError."""
    if k < 1:
        raise ValueError("k must be positive")
    fac = factorize(k)
    if sorted(fac.values()) not in ([], [1], [2], [1, 1]):
        raise UnsupportedIndexError(
            f"index {k} needs Hall invariants outside the abelian and"
            " M_{p,q^s} families")
    G = Group.of(G)
    total = alpha_k(G, k)
    if len(fac) == 2:
        u, v = sorted(fac)
        if (v - 1) % u == 0:
            total += delta_mpqs(G, u, v)
    return total


def abelian_groups_of_order(k):
    """All abelian groups of order k, one spec per isomorphism type, in a
    deterministic order."""
    specs = [{}]
    for p, e in sorted(factorize(k).items()):
        specs = [{**s, p: lam} for s in specs for lam in _partitions(e, e)]
    return [AbelianGroupSpec(s) for s in specs]


def _partitions(n, cap):
    """Partitions of n into parts at most cap, as weakly decreasing
    tuples, lexicographically decreasing."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1)
            for rest in _partitions(n - first, first)]


def alpha_k(G, k):
    """Number of index-k normal subgroups with abelian quotient: the sum of
    the abelian Hall invariants over groups of order k."""
    abel = Group.of(G).abel
    return sum(delta_abelian(abel, spec) for spec in abelian_groups_of_order(k))


def c_p(G, p, *, a_p):
    """Number of conjugacy classes of index-p subgroups, from the number
    a_p of index-p subgroups: (p^n + a_p - 1)/p with n = b_1^{(p)}."""
    G = Group.of(G)
    total = p ** G.abel.b1(p) + a_p - 1
    if total % p:
        raise InvariantViolation("conjugacy-class count not an integer")
    return total // p


def census(G, k, *, want_normal=True, want_alpha=True, want_conjugacy=False,
           budget=DEFAULT_BUDGET):
    """The index-k counts of G (a presentation or a charvar.Group) as the
    dict the CLI prints: {"k": k}, then each count and its method tag
    (key + "_method"), sorted by key.  Infeasible pieces are recorded as
    the string 'infeasible' rather than guessed, and InvariantViolation is
    raised unless a_k >= a_k_normal >= alpha_k over those that are
    numbers."""
    G = Group.of(G)
    found = {}
    if k in (2, 3):
        # every index-2 subgroup is normal
        found["a_k"] = (a_normal(G, 2) if k == 2 else a2_a3(G)[1],
                        "closed-form")
    else:
        try:
            found["a_k"] = (a_k_via_hall_recursion(G.P, k, budget=budget),
                            "hall-recursion")
        except BudgetExceeded:
            found["a_k"] = "infeasible", "hall-recursion"
    if want_normal:
        try:
            found["a_k_normal"] = a_normal(G, k), "delta-sum"
        except UnsupportedIndexError as e:
            found["a_k_normal"] = f"unsupported: {e}", "delta-sum"
    if want_alpha:
        found["alpha_k"] = alpha_k(G, k), "abelian-delta-sum"
    if want_conjugacy:
        a_p = found["a_k"][0]
        if k not in factorize(k):
            c_k = "unsupported: conjugacy counts need prime k"
        else:
            c_k = c_p(G, k, a_p=a_p) if isinstance(a_p, int) else "infeasible"
        found["c_k"] = c_k, "closed-form"
    chain = [found[key][0] for key in ("a_k", "a_k_normal", "alpha_k")
             if key in found and isinstance(found[key][0], int)]
    if chain != sorted(chain, reverse=True):
        raise InvariantViolation(f"not a_k >= a_k_normal >= alpha_k: {chain}")
    out = {"k": k}
    for key, (value, method) in sorted(found.items()):
        out[key] = value
        out[key + "_method"] = method
    return out
