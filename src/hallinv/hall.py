"""Hall invariants: counting factor groups of a finitely presented group.

Two computation routes live here.  For a finite abelian target the count
is a closed product-formula over primes in partition data (theta sums and
automorphism orders).  For the split metabelian groups M_{p,q^s} =
F_{q^s} x| <zeta_p> (s the order of q mod p, zeta_p a primitive p-th root
of unity acting by multiplication) the count is assembled from the
depths of the order-p characters over that same field F_{q^s}, and the
group's own table, for the brute-force oracle, is built on it too.
"""

from __future__ import annotations

from fractions import Fraction

from .charvar import Group
from .fields import (extension_field, factorize, multiplicative_order,
                     primitive_root_of_unity)
from .linalg import InvariantViolation
from .oracle import FiniteGroupTable


class Partition:
    """Weakly decreasing positive parts, with the combinatorial helpers the
    abelian counting formula needs."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        self.parts = parts

    def length(self):
        return len(self.parts)

    def weight(self):
        return sum(self.parts)

    def angle(self):
        """sum (i - 1) * parts[i], 1-indexed."""
        return sum(i * p for i, p in enumerate(self.parts))

    def multiplicity(self, k):
        return sum(1 for p in self.parts if p == k)

    def part(self, i):
        """1-indexed part, zero beyond the length."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def derived(self):
        """Each part lowered by one, zeros dropped."""
        return Partition([p - 1 for p in self.parts if p > 1])

    def __eq__(self, other):
        return isinstance(other, Partition) and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def theta(lam, tau, i):
    """sum_j min(lam_i, tau_j), for 1 <= i <= length of lam."""
    if not 1 <= i <= lam.length():
        raise IndexError(f"index {i} out of range for {lam}")
    li = lam.part(i)
    return sum(min(li, t) for t in tau.parts)


def theta_total(lam, tau):
    return sum(theta(lam, tau, i) for i in range(1, lam.length() + 1))


class AbelianGroupSpec:
    """A finite abelian group as a partition per prime: the group is the
    direct sum over p of Z_{p^part} for each part."""

    __slots__ = ("partitions",)

    def __init__(self, partitions):
        self.partitions = {p: lam for p, lam in partitions.items()
                           if lam.length() > 0}

    @classmethod
    def from_cyclic_factors(cls, factors):
        """E.g. [2, 4] builds Z_2 + Z_4."""
        per_prime = {}
        for c in factors:
            if c < 1:
                raise ValueError("cyclic factors must be positive")
            for p, e in factorize(c).items():
                per_prime.setdefault(p, []).append(e)
        return cls({p: Partition(parts) for p, parts in per_prime.items()})

    def cyclic_factors(self):
        """Invariant-factor-free flat list of prime power orders."""
        out = []
        for p in sorted(self.partitions):
            out.extend(p ** e for e in self.partitions[p].parts)
        return out

    def table(self):
        return FiniteGroupTable.abelian(self.cyclic_factors())

    def __repr__(self):
        return "Z" + repr(self.cyclic_factors())


def _phi_factor(m, p):
    """prod_{i=1..m} (1 - p^{-i}) as an exact fraction."""
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= 1 - Fraction(1, p ** i)
    return out


def aut_order_abelian(spec):
    """Order of the automorphism group of a finite abelian group."""
    out = Fraction(1)
    for p, lam in spec.partitions.items():
        factor = Fraction(p ** (lam.weight() + 2 * lam.angle()))
        for k in set(lam.parts):
            factor *= _phi_factor(lam.multiplicity(k), p)
        out *= factor
    if out.denominator != 1 or out <= 0:
        raise InvariantViolation(f"|Aut| = {out} is not a positive integer")
    return int(out)


def delta_abelian(abel, spec):
    """Number of normal subgroups of G with quotient the given abelian
    group, from the free rank and torsion of H_1(G).

    Per prime p, with lam the partition of the target's p-part and tau the
    partition of the p-torsion of H_1: the epimorphism count is

        p^{(|lam| - l(lam)) n + theta(lam', tau)}
        * prod_i (p^{n + theta_i(lam,tau) - theta_i(lam',tau)} - p^{i-1})

    divided by |Aut| of the p-part.  A zero factor means the p-part is not
    a quotient at all, so the product is the honest answer 0; the first
    nonpositive factor in the product is always exactly zero.
    """
    n = abel.free_rank
    total = 1
    for p, lam in spec.partitions.items():
        tau = Partition([_p_adic_valuation(e, p) for e in abel.torsion
                         if e % p == 0])
        lam_d = lam.derived()
        epis = p ** ((lam.weight() - lam.length()) * n
                     + theta_total(lam_d, tau))
        for i in range(1, lam.length() + 1):
            # theta_i(lam', tau) is 0 past the length of lam'
            exponent = n + theta(lam, tau, i) - (
                theta(lam_d, tau, i) if i <= lam_d.length() else 0)
            factor = p ** exponent - p ** (i - 1)
            if factor < 0:
                if epis:
                    raise InvariantViolation(
                        "negative factor without a prior zero")
            epis *= factor
        if epis == 0:
            return 0
        aut = aut_order_abelian(AbelianGroupSpec({p: lam}))
        if epis < 0 or epis % aut:
            raise InvariantViolation(
                f"epimorphism count {epis} not a positive multiple of {aut}")
        total *= epis // aut
    return total


def _p_adic_valuation(e, p):
    v = 0
    while e % p == 0:
        e //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the metabelian family M_{p,q^s}

class MetabelianGroup:
    """M_{p,q^s} = F_{q^s} x| <zeta>, zeta a primitive p-th root of unity
    acting on the additive group of K = F_{q^s} by multiplication.

    K is the field the depths of delta_mpqs are taken over, and zeta its
    primitive_root_of_unity; any other primitive root zeta^j gives an
    isomorphic group, by (u, k) -> (u, jk).  The companion matrix of any
    factor of 1 + t + ... + t^{p-1} over F_q is multiplication by such a
    root, so this is the group of the literature.  The element (u, k)
    stands for u b^k, with index k * q^s + code(u), code(u) the integer
    whose base-q digits are u's coefficients; (u, k)(v, m) =
    (u + zeta^k v, k + m).
    """

    __slots__ = ("p", "q", "s", "table", "aut_order")

    def __init__(self, p, q):
        if p == q:
            raise ValueError("p and q must be distinct primes")
        self.p = p
        self.q = q
        self.s = multiplicative_order(q, p)
        K = extension_field(q, self.s)
        zeta = primitive_root_of_unity(K, p)
        span = K.order()
        elements = [K.from_code(c) for c in range(span)]
        add = [[(u + v).code() for v in elements] for u in elements]
        # turn[k][c] = code(zeta^k v) for v of code c
        turn = [[(zeta ** k * v).code() for v in elements] for k in range(p)]
        mul = [[((k + m) % p) * span + add[uc][w]
                for m in range(p) for w in turn[k]]
               for k in range(p) for uc in range(span)]
        self.table = FiniteGroupTable(mul, check=True)
        self.aut_order = self.s * span * (span - 1)

    def __repr__(self):
        return f"M({self.p},{self.q}^{self.s})"


def construct_mpqs(p, q):
    return MetabelianGroup(p, q)


def delta_mpqs(G, p, q, *, A=None):
    """Hall invariant of G (a presentation or a charvar.Group) against
    M_{p,q^s}, from the depths d(rho) of the order-p characters rho over a
    field of characteristic q:

        sum_rho (q^{s d(rho)} - 1) / (s (q^s - 1)),

    which is (p - 1) / (s (q^s - 1)) * sum_{d >= 1} beta_{p,d} (q^{sd} - 1)
    whenever the Betti distribution beta = beta_p^{(q)} exists.  For a
    presentation, A= evaluates in the chi basis of that Alexander matrix.
    """
    characters, _ = Group.of(G, A=A).depths(p, q)
    s = multiplicative_order(q, p)
    num = sum(c * (q ** (s * d) - 1) for d, c in characters.items())
    den = s * (q ** s - 1)
    if num % den:
        raise InvariantViolation("metabelian count not an integer")
    return num // den

