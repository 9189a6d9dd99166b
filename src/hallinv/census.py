"""Counting finite-index subgroups: all, normal, abelian-quotient, and
conjugacy classes.

The index-k count comes from M. Hall's recursion through homomorphism
counts into symmetric groups; index 2 and 3 also have closed forms in the
mod-p Betti data, which is how the recursion gets checked.  Normal counts
for index p, p^2, pq are sums of Hall invariants over the few groups of
those orders; the abelian-quotient count alpha_k sums the abelian ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .charvar import Group
from .fields import factorize
from .hall import AbelianGroupSpec, Partition, delta_abelian, delta_mpqs
from .linalg import InvariantViolation
from .oracle import (BudgetExceeded, FiniteGroupTable, check_table_budget,
                     hom_count)


class UnsupportedIndexError(ValueError):
    """Indices whose normal count needs Hall invariants outside the
    implemented family (k = 8, 12, or three-factor shapes)."""


def symmetric_hom_counter(P, budget=10 ** 8):
    """l -> |Hom(G, S_l)| by enumeration; the input to Hall's recursion.

    The budget is checked before the S_l multiplication table (of l!^2
    entries) is even built, so an oversized request fails fast."""
    tables = {}

    def counter(l):
        size = factorial(l)
        if size ** P.num_generators > budget:
            raise BudgetExceeded(
                f"counting maps into S_{l} exceeds the budget")
        check_table_budget(size, budget)
        if l not in tables:
            tables[l] = FiniteGroupTable.symmetric(l)
        return hom_count(P, tables[l], "all", budget)

    return counter


def a_k_via_hall_recursion(P, k, budget=10 ** 8):
    """Number of index-k subgroups by M. Hall's recursion

        a_k = h_k/(k-1)! - sum_{l<k} h_{k-l}/(k-l)! a_l,

    h_l the number of homomorphisms into S_l."""
    if k < 1:
        raise ValueError("k must be positive")
    hom_counter = symmetric_hom_counter(P, budget)
    h = {l: hom_counter(l) for l in range(1, k + 1)}
    a = {1: 1}
    for j in range(2, k + 1):
        total = Fraction(h[j], factorial(j - 1))
        for l in range(1, j):
            total -= Fraction(h[j - l], factorial(j - l)) * a[l]
        if total.denominator != 1 or total < 0:
            raise InvariantViolation(
                f"a_{j} = {total} is not a nonnegative integer")
        a[j] = int(total)
    return a[k]


def a2_a3(G):
    """(a_2, a_3) from homological data: a_2 = 2^{n_2} - 1 and
    a_3 = (3^{n_3} - 1)/2 + 3 delta_{S_3}."""
    G = Group.of(G)
    a2 = 2 ** G.abel.b1(2) - 1
    a3 = (3 ** G.abel.b1(3) - 1) // 2 + 3 * delta_mpqs(G, 2, 3)
    return a2, a3


def a_normal(G, k):
    """Number of index-k normal subgroups, for k prime, p^2, or pq.

    These are the indices where every group of order k is abelian or in
    the implemented metabelian family, so the count is a sum of computed
    Hall invariants.  Other composite shapes raise UnsupportedIndexError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 1
    G = Group.of(G)
    abel = G.abel
    fac = factorize(k)
    primes = sorted(fac)
    if len(primes) == 1:
        p = primes[0]
        e = fac[p]
        n = abel.b1(p)
        if e == 1:
            return (p ** n - 1) // (p - 1)
        if e == 2:
            m = abel.free_rank + sum(1 for d in abel.torsion
                                     if d % (p * p) == 0)
            part = (p ** n - 1) * (p ** (n - 1) - 1) \
                // ((p * p - 1) * (p - 1))
            return part + p ** (n - 1) * (p ** m - 1) // (p - 1)
        raise UnsupportedIndexError(
            f"index {k} needs Hall invariants outside the abelian and"
            " M_{p,q^s} families")
    if len(primes) == 2 and all(fac[p] == 1 for p in primes):
        u, v = primes
        n = abel.b1(u)
        m = abel.b1(v)
        total = (u ** n - 1) * (v ** m - 1) // ((u - 1) * (v - 1))
        if (v - 1) % u == 0:
            total += delta_mpqs(G, u, v)
        return total
    raise UnsupportedIndexError(
        f"index {k} needs Hall invariants outside the abelian and"
        " M_{p,q^s} families")


def abelian_groups_of_order(k):
    """All abelian groups of order k, one spec per isomorphism type, in a
    deterministic order."""
    if k < 1:
        raise ValueError("k must be positive")
    specs = [{}]
    for p, e in sorted(factorize(k).items()):
        specs = [{**s, p: lam} for s in specs for lam in _partitions(e)]
    return [AbelianGroupSpec({p: Partition(lam) for p, lam in s.items()})
            for s in specs]


def _partitions(n):
    """Partitions of n as weakly decreasing tuples, lexicographically."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


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


class CensusReport:
    """Collected index-k counts with per-value provenance tags."""

    __slots__ = ("k", "values", "methods")

    def __init__(self, k):
        self.k = k
        self.values = {}
        self.methods = {}

    def add(self, key, value, method):
        self.values[key] = value
        self.methods[key] = method

    def validate(self):
        ks = {key: v for key, v in self.values.items() if isinstance(v, int)}
        if ("a_k" in ks and "a_k_normal" in ks
                and not ks["a_k"] >= ks["a_k_normal"]):
            raise InvariantViolation("normal count exceeds subgroup count")
        if ("a_k_normal" in ks and "alpha_k" in ks
                and not ks["a_k_normal"] >= ks["alpha_k"]):
            raise InvariantViolation(
                "abelian-quotient count exceeds normal count")

    def as_dict(self):
        out = {"k": self.k}
        for key, value in sorted(self.values.items()):
            out[key] = value
            out[key + "_method"] = self.methods[key]
        return out


def census(G, k, *, want_normal=True, want_alpha=True, want_conjugacy=False,
           budget=10 ** 8):
    """Assemble a CensusReport for G (a presentation or a charvar.Group);
    infeasible pieces are recorded as the string 'infeasible' rather than
    guessed."""
    G = Group.of(G)
    report = CensusReport(k)
    if k in (2, 3):
        # a_2 = 2^{n_2} - 1 needs no Betti distribution
        a_p = 2 ** G.abel.b1(2) - 1 if k == 2 else a2_a3(G)[1]
        report.add("a_k", a_p, "closed-form")
    else:
        try:
            a_p = a_k_via_hall_recursion(G.P, k, budget=budget)
            report.add("a_k", a_p, "hall-recursion")
        except BudgetExceeded:
            report.add("a_k", "infeasible", "hall-recursion")
            a_p = None
    if want_normal:
        try:
            report.add("a_k_normal", a_normal(G, k), "delta-sum")
        except UnsupportedIndexError as e:
            report.add("a_k_normal", f"unsupported: {e}", "delta-sum")
    if want_alpha:
        report.add("alpha_k", alpha_k(G, k), "abelian-delta-sum")
    if want_conjugacy:
        if k in factorize(k) and isinstance(a_p, int):
            report.add("c_k", c_p(G, k, a_p=a_p), "closed-form")
        elif k in factorize(k):
            report.add("c_k", "infeasible", "closed-form")
        else:
            report.add("c_k", "unsupported: conjugacy counts need prime k",
                       "closed-form")
    report.validate()
    return report
