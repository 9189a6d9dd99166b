"""Independent references the tests compare the library against.

The library takes every rank over a finite field, characteristic 0
included (split primes ell = 1 mod N stand in for Q(zeta_N)).  The
characteristic-0 reference is here instead: CyclotomicField does exact
arithmetic in Q(zeta_N) on Fraction coefficients, duck-typed to the
FieldHandle interface that Character, depth(), AlexanderMatrix.evaluate
and rank_over_field use, so depths over Q(zeta_N) can be taken by plain
division-based elimination and compared with the engine's.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from hallinv.charvar import (_character_moduli,
                             character_from_coordinate_exponents,
                             coordinate_exponents_from_generators)
from hallinv.fields import (cyclotomic_polynomial, primitive_root_of_unity,
                            sufficiently_large_field)


class CyclotomicField:
    """Q(zeta_N) = Q[x] / Phi_N, zeta_N the class of x; N = 1 and N = 2
    give Q (x = 1 and x = -1)."""

    char = 0

    def __init__(self, N):
        self.N = N
        self.modulus = cyclotomic_polynomial(N)  # monic, low degree first
        self.degree = len(self.modulus) - 1

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def from_int(self, n):
        return self.element([n])

    def element(self, coeffs):
        out = [Fraction(c) for c in coeffs]
        d, mod = self.degree, self.modulus
        for k in range(len(out) - 1, d - 1, -1):
            c, out[k] = out[k], 0
            for j in range(d):
                out[k - d + j] -= c * mod[j]
        out = (out + [Fraction(0)] * d)[:d]
        return CyclotomicElement(self, tuple(out))

    def order(self):
        return None

    def root_of_unity(self, n):
        """A primitive n-th root of unity: x^(N/n), or (-x)^(2N/n) when
        N is odd and n divides 2N only."""
        x = self.element([0, 1])
        if self.N % n == 0:
            return x ** (self.N // n)
        if self.N % 2 and 2 * self.N % n == 0:
            return (-x) ** (2 * self.N // n)
        raise ValueError(f"{self!r} contains no primitive {n}-th root of unity")

    def __repr__(self):
        return f"Q(zeta_{self.N})"


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction polynomials, b nonzero."""
    a, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = quo[k] = a[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[k + j] -= c * bj
    return _trim(quo), _trim(a)


class CyclotomicElement:
    """An element of a CyclotomicField: Fraction coefficients of a
    polynomial in zeta of degree below phi(N)."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs):
        self.owner = owner
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self == self.owner.one()

    def _other(self, other):
        if not isinstance(other, CyclotomicElement) or \
                other.owner is not self.owner:
            raise ValueError("operands belong to different fields")
        return other.coeffs

    def __add__(self, other):
        b = self._other(other)
        return CyclotomicElement(self.owner,
                                 tuple(x + y for x, y in zip(self.coeffs, b)))

    def __neg__(self):
        return CyclotomicElement(self.owner, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        b = self._other(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(b))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.owner.element(out)

    def inv(self):
        """Inverse by the extended Euclidean algorithm against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        K = self.owner
        r0 = [Fraction(c) for c in K.modulus]
        r1 = _trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            quo, r2 = _poly_divmod(r0, r1)
            prod = [Fraction(0)] * (len(quo) + len(s1))
            for i, x in enumerate(quo):
                for j, y in enumerate(s1):
                    prod[i + j] += x * y
            n = max(len(s0), len(prod))
            s2 = [x - y for x, y in zip(s0 + [0] * (n - len(s0)),
                                        prod + [0] * (n - len(prod)))]
            r0, r1, s0, s1 = r1, r2, s1, _trim(s2)
        # r0 is a nonzero constant: Phi_N is irreducible
        return K.element([c / r0[0] for c in s0])

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** -e
        out, base = self.owner.one(), self
        while e:
            if e & 1:
                out = out * base
            base, e = base * base, e >> 1
        return out

    def multiplicative_order(self, bound=None):
        """Order of a root of unity, which divides lcm(2, N)."""
        limit = lcm(2, self.owner.N)
        x, n = self, 1
        while not x.is_one():
            if n == limit:
                raise ValueError(f"{self!r} is not a root of unity")
            x, n = x * self, n + 1
        return n

    def __eq__(self, other):
        return isinstance(other, CyclotomicElement) and \
            other.owner is self.owner and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((id(self.owner), self.coeffs))

    def __repr__(self):
        return f"{self.owner!r}({[str(c) for c in self.coeffs]})"


def reference_field(N, q):
    """A field of characteristic q holding the N-th roots of unity:
    Q(zeta_N) at q = 0, else the library's F_{q^s}."""
    return CyclotomicField(N) if q == 0 else sufficiently_large_field(N, q)


def root_of_unity(K, N):
    """A primitive N-th root of unity of a reference or library field."""
    if isinstance(K, CyclotomicField):
        return K.root_of_unity(N)
    return primitive_root_of_unity(K, N)


def character_from_generator_exponents(abel, K, zeta, N, gen_exps):
    """Character with value zeta^gen_exps[j] on generator j.

    The caller must already know these values define a homomorphism (each
    relator's exponent vector pairs to 0 mod N); the round trip back to
    generator values is asserted.
    """
    h = len(abel.torsion)
    coord_exps = coordinate_exponents_from_generators(abel, N, gen_exps)
    return character_from_coordinate_exponents(abel, K, zeta, N,
                                               coord_exps[:h], coord_exps[h:])


def enumerate_order_p_characters(abel, p, K):
    """All p^{n_p} - 1 characters of order exactly p, n_p = b_1^{(p)}.

    Free coordinates range over the p-th roots of unity; a torsion
    coordinate does too when p divides its elementary divisor, and is
    pinned to 1 otherwise.
    """
    if K.char == p:
        raise ValueError("field characteristic equals p")
    zeta = root_of_unity(K, p)
    h = len(abel.torsion)
    for exps in product(*map(range, _character_moduli(abel, p))):
        if any(exps):
            yield character_from_coordinate_exponents(abel, K, zeta, p,
                                                       exps[:h], exps[h:])
