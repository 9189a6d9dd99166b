"""Hall invariants: counting factor groups of a finitely presented group.

Two computation routes live here.  For a finite abelian target the count
is a closed product-formula over primes in partition data (theta sums and
automorphism orders), each partition a weakly decreasing tuple of
positive parts.  For the split metabelian groups M_{p,q^s} =
F_{q^s} x| <zeta_p> (s the order of q mod p, zeta_p a primitive p-th root
of unity acting by multiplication) the count is assembled from the
depths of the order-p characters over that same field F_{q^s}, and the
group's own table, for the brute-force oracle, is built from that
field's add and mul on codes (fields.FieldHandle).

census sums these invariants: a_k_normal is the sum of delta over the
groups of order k.  For k prime, p^2 or pq those are the abelian groups
and, when k = uv with u | v - 1, M_{u,v}; other k report unsupported.
"""

from __future__ import annotations

from .charvar import Group
from .errors import InvariantViolation
from .fields import (extension_field, factorize, multiplicative_order,
                     primitive_root_of_unity)
from .oracle import FiniteGroupTable


def theta(lam, tau, i):
    """sum_j min(lam_i, tau_j), for 1 <= i <= len(lam); partitions are
    weakly decreasing tuples of positive parts."""
    if not 1 <= i <= len(lam):
        raise IndexError(f"index {i} out of range for {lam}")
    return sum(min(lam[i - 1], t) for t in tau)


def theta_total(lam, tau):
    return sum(theta(lam, tau, i) for i in range(1, len(lam) + 1))


class AbelianGroupSpec:
    """A finite abelian group as a partition per prime: the group is the
    direct sum over p of Z_{p^part} for each part.  Each partition is
    stored once as a weakly decreasing tuple of positive parts, and empty
    ones are dropped."""

    __slots__ = ("partitions",)

    def __init__(self, partitions):
        self.partitions = {p: tuple(sorted(map(int, parts), reverse=True))
                           for p, parts in partitions.items() if parts}
        if any(lam[-1] <= 0 for lam in self.partitions.values()):
            raise ValueError("parts must be positive")

    @classmethod
    def from_cyclic_factors(cls, factors):
        """E.g. [2, 4] builds Z_2 + Z_4."""
        per_prime = {}
        for c in factors:
            if c < 1:
                raise ValueError("cyclic factors must be positive")
            for p, e in factorize(c).items():
                per_prime.setdefault(p, []).append(e)
        return cls(per_prime)

    def cyclic_factors(self):
        """Invariant-factor-free flat list of prime power orders."""
        return [p ** e for p in sorted(self.partitions)
                for e in self.partitions[p]]

    def table(self):
        return FiniteGroupTable.abelian(self.cyclic_factors())

    def __repr__(self):
        return "Z" + repr(self.cyclic_factors())


def aut_order_abelian(spec):
    """Order of the automorphism group of a finite abelian group: per
    prime, p^{|lam| + 2 n(lam)} prod_k prod_{i=1..m_k} (1 - p^{-i}), with
    n(lam) = sum (i - 1) lam_i and m_k the multiplicity of the part k,
    taken in integers as p^{e - i} (p^i - 1) for each factor."""
    out = 1
    for p, lam in spec.partitions.items():
        e = sum(lam) + 2 * sum(i * part for i, part in enumerate(lam))
        for k in set(lam):
            for i in range(1, lam.count(k) + 1):
                out *= p ** i - 1
                e -= i
        if e < 0:
            raise InvariantViolation(f"|Aut| of {spec} is not an integer")
        out *= p ** e
    return out


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
        tau = [_p_adic_valuation(e, p) for e in abel.torsion if e % p == 0]
        # lam' lowers each part by one and drops the zeros
        lam_d = tuple(part - 1 for part in lam if part > 1)
        epis = p ** ((sum(lam) - len(lam)) * n + theta_total(lam_d, tau))
        for i in range(1, len(lam) + 1):
            # theta_i(lam', tau) is 0 past the length of lam'
            exponent = n + theta(lam, tau, i) - (
                theta(lam_d, tau, i) if i <= len(lam_d) else 0)
            factor = p ** exponent - p ** (i - 1)
            if factor < 0 and epis:
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
    stands for u b^k, with index k * q^s + u, u an element of K by its
    code (the integer whose base-q digits are u's coefficients);
    (u, k)(v, m) = (u + zeta^k v, k + m).
    """

    __slots__ = ("p", "q", "s", "table")

    def __init__(self, p, q):
        if p == q:
            raise ValueError("p and q must be distinct primes")
        self.p = p
        self.q = q
        self.s = multiplicative_order(q, p)
        K = extension_field(q, self.s)
        zeta = primitive_root_of_unity(K, p)
        span = K.order()
        add = [[K.add(u, v) for v in range(span)] for u in range(span)]
        # turn[k][v] = zeta^k v
        turn = [[K.mul(z, v) for v in range(span)]
                for z in [K.power(zeta, k) for k in range(p)]]
        mul = [[((k + m) % p) * span + add[uc][w]
                for m in range(p) for w in turn[k]]
               for k in range(p) for uc in range(span)]
        self.table = FiniteGroupTable(mul, check=True)

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

