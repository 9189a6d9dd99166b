"""Exact arithmetic in F_q, F_{q^s}, Q, and Q(zeta_N), with roots of unity.

A FieldHandle owns its elements; elements are coefficient vectors modulo
the handle's defining polynomial (length 1 for prime fields and Q).
Finite-field coefficients are residues, characteristic-zero coefficients
are Fractions.  All choices (extension modulus, multiplicative generator)
are deterministic so that repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import InvariantViolation


def factorize(n):
    """Prime factorization by trial division, as a dict prime -> exponent."""
    n = int(n)
    if n <= 0:
        raise ValueError("positive integer required")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(q, N):
    """Least s >= 1 with q^s = 1 mod N.  Requires gcd(q, N) = 1 and N >= 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if gcd(q, N) != 1:
        raise ValueError(f"gcd({q}, {N}) != 1, no multiplicative order")
    s = 1
    x = q % N
    while x != 1:
        x = (x * q) % N
        s += 1
    return s


def euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod_int(a, b):
    """Exact-domain division of integer polynomials; b must be monic-ish in
    the sense that every intermediate quotient coefficient is integral."""
    a = list(a)
    out = [0] * (max(len(a) - len(b) + 1, 0))
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        f = c // lead
        out[k] = f
        if f:
            for j, bj in enumerate(b):
                a[k + j] -= f * bj
    return _poly_trim(out), _poly_trim(a)


_CYCLO_CACHE = {}


def cyclotomic_polynomial(N):
    """Coefficients of Phi_N (low degree first), by dividing x^N - 1 by the
    cyclotomic polynomials of all proper divisors of N."""
    if N < 1:
        raise ValueError("N must be positive")
    if N in _CYCLO_CACHE:
        return list(_CYCLO_CACHE[N])
    num = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    den = [1]
    for d in range(1, N):
        if N % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod_int(num, den)
    if rem:
        raise InvariantViolation(
            "x^N - 1 not divisible by the product of lower Phi_d")
    _CYCLO_CACHE[N] = list(quo)
    return quo


# ---------------------------------------------------------------------------
# polynomials over F_q (coefficient lists of residues, low degree first)

def _fq_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fq_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _fq_trim(out)


def _fq_divmod(a, b, q):
    a = [x % q for x in a]
    _fq_trim(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], q - 2, q)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = (a[k + len(b) - 1] * inv_lead) % q
        quo[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] = (a[k + j] - c * bj) % q
    return _fq_trim(quo), _fq_trim(a)


def _fq_monic_polys(q, degree):
    """All monic polynomials of the given degree over F_q, ordered with the
    constant coefficient most significant (lexicographically smallest first)."""
    span = q ** degree
    for n in range(span):
        coeffs = []
        m = n
        for _ in range(degree):
            coeffs.append(m % q)
            m //= q
        coeffs.reverse()  # constant term first came out last
        yield coeffs + [1]


def _fq_is_irreducible(f, q):
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if f[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _fq_monic_polys(q, d):
            if not _fq_divmod(f, g, q)[1]:
                return False
    return True


_MODULUS_CACHE = {}


def _extension_modulus(q, s):
    """Lexicographically smallest monic irreducible polynomial of degree s
    over F_q, coefficients compared low degree first."""
    key = (q, s)
    if key not in _MODULUS_CACHE:
        for f in _fq_monic_polys(q, s):
            if _fq_is_irreducible(f, q):
                _MODULUS_CACHE[key] = f
                break
        else:  # pragma: no cover - irreducibles exist in every degree
            raise InvariantViolation("no irreducible polynomial found")
    return list(_MODULUS_CACHE[key])


def factor_cyclotomic_mod_q(p, q):
    """The monic irreducible factors of Q_p = 1 + t + ... + t^{p-1} over F_q.

    There are (p-1)/s of them, all of degree s = ord_p(q); found by
    exhaustive trial division, which is fine at desk scale.
    """
    if p == q:
        raise ValueError("p and q must be distinct primes")
    s = multiplicative_order(q, p)
    target = [c % q for c in cyclotomic_polynomial(p)]
    factors = []
    for f in _fq_monic_polys(q, s):
        if _fq_is_irreducible(f, q) and not _fq_divmod(target, f, q)[1]:
            factors.append(f)
    if len(factors) != (p - 1) // s:
        raise InvariantViolation(
            f"{len(factors)} factors of Q_{p} mod {q}, not {(p - 1) // s}")
    return factors


# ---------------------------------------------------------------------------
# field handles and elements

class FieldHandle:
    """One of: rationals, prime(q), extension(q, s), cyclotomic(N).

    Use the module-level constructors (`rationals`, `prime_field`,
    `extension_field`, `cyclotomic_field`, `sufficiently_large_field`)
    rather than calling this directly.
    """

    __slots__ = ("kind", "char", "degree", "modulus", "cyclo_order",
                 "_zero", "_one", "_generator", "_log_tables")

    def __init__(self, kind, char, degree, modulus, cyclo_order=None):
        self.kind = kind
        self.char = char
        self.degree = degree
        self.modulus = modulus  # defining polynomial, low degree first
        self.cyclo_order = cyclo_order
        zero_c = 0 if char else Fraction(0)
        one_c = 1 if char else Fraction(1)
        self._zero = FieldElement(self, (zero_c,) * degree)
        one = [zero_c] * degree
        one[0] = one_c
        self._generator = None
        self._one = FieldElement(self, tuple(one))

    # -- basic element constructors

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        if self.char:
            coeffs = [0] * self.degree
            coeffs[0] = n % self.char
        else:
            coeffs = [Fraction(0)] * self.degree
            coeffs[0] = Fraction(n)
        return FieldElement(self, tuple(coeffs))

    def element(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            coeffs = self._reduce(coeffs)
        coeffs += [0] * (self.degree - len(coeffs))
        if self.char:
            coeffs = [c % self.char for c in coeffs]
        else:
            coeffs = [Fraction(c) for c in coeffs]
        return FieldElement(self, tuple(coeffs))

    def order(self):
        """Number of elements; None for infinite fields."""
        if self.char:
            return self.char ** self.degree
        return None

    # -- internal coefficient arithmetic

    def _reduce(self, coeffs):
        if self.degree == 1 and len(self.modulus) == 2:
            # linear modulus x - c: substitute x = c
            c = -self.modulus[0]
            out = 0
            for a in reversed(coeffs):
                out = out * c + a
            return [out]
        out = list(coeffs)
        mod = self.modulus
        d = len(mod) - 1
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k]
            if c:
                for j in range(d):
                    out[k - d + j] -= c * mod[j]
                out[k] = 0
        del out[d:]
        return out

    def _mul_coeffs(self, a, b):
        out = [0] * (2 * self.degree - 1) if self.degree > 1 else [a[0] * b[0]]
        if self.degree > 1:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            out = self._reduce(out)
        if self.char:
            return [c % self.char for c in out]
        return out

    def __repr__(self):
        if self.kind == "rationals":
            return "Q"
        if self.kind == "prime":
            return f"F_{self.char}"
        if self.kind == "extension":
            return f"F_{self.char}^{self.degree}"
        return f"Q(zeta_{self.cyclo_order})"


class FieldElement:
    """Element of a FieldHandle: an immutable coefficient vector."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs):
        self.owner = owner
        self.coeffs = coeffs

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs == self.owner._one.coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.owner is not self.owner:
            raise ValueError("operands belong to different field handles")

    def __add__(self, other):
        self._check(other)
        K = self.owner
        if K.char:
            return FieldElement(K, tuple((a + b) % K.char
                                         for a, b in zip(self.coeffs, other.coeffs)))
        return FieldElement(K, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        K = self.owner
        if K.char:
            return FieldElement(K, tuple((-a) % K.char for a in self.coeffs))
        return FieldElement(K, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        K = self.owner
        return FieldElement(K, tuple(K._mul_coeffs(list(self.coeffs),
                                                   list(other.coeffs))))

    def inv(self):
        """Multiplicative inverse by the extended Euclidean algorithm on the
        defining polynomial (plain residue/Fraction inverse in degree 1)."""
        K = self.owner
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        if K.degree == 1:
            c = self.coeffs[0]
            if K.char:
                return FieldElement(K, (pow(c, K.char - 2, K.char),))
            return FieldElement(K, (Fraction(1) / c,))
        # extended euclid in K0[x] where K0 = F_q or Q
        if K.char:
            def divmod_(a, b):
                return _fq_divmod(a, b, K.char)

            def norm(a):
                return [x % K.char for x in a]
        else:
            def divmod_(a, b):
                b = list(b)
                lead = b[-1]
                a = [Fraction(x) for x in a]
                quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
                for k in range(len(a) - len(b), -1, -1):
                    c = a[k + len(b) - 1] / lead
                    quo[k] = c
                    if c:
                        for j, bj in enumerate(b):
                            a[k + j] -= c * bj
                _poly_trim(quo)
                return quo, _poly_trim(a)

            def norm(a):
                return [Fraction(x) for x in a]
        r0, r1 = norm(list(K.modulus)), norm(list(self.coeffs))
        _poly_trim(r1)
        s0, s1 = [], [K.one().coeffs[0]]
        while r1:
            q_, r2 = divmod_(r0, r1)
            if K.char:
                s2 = [(a - b) % K.char for a, b in
                      _zip_pad(s0, _fq_mul(q_, s1, K.char))]
            else:
                prod = _poly_mul_frac(q_, s1)
                s2 = [a - b for a, b in _zip_pad(s0, prod)]
            _poly_trim(s2)
            r0, r1 = r1, r2
            s0, s1 = s1, s2
        # r0 = gcd, a unit since modulus is irreducible
        lead = r0[-1]
        if K.char:
            lead_inv = pow(lead, K.char - 2, K.char)
            out = [(c * lead_inv) % K.char for c in s0]
        else:
            out = [c / lead for c in s0]
        return K.element(out)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        K = self.owner
        if e == 0:
            return K.one()
        if e < 0:
            return self.inv() ** (-e)
        result = K.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self, bound=None):
        """Order in the unit group; only for roots of unity, so a bound on
        the order (any multiple) may be supplied to avoid a long search."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative order")
        if bound is None:
            K = self.owner
            bound = K.order() - 1 if K.char else K.cyclo_order or 1
            if bound == 0:
                bound = 1
        if (self ** bound).is_one():
            n = bound
            for p in factorize(bound):
                while n % p == 0 and (self ** (n // p)).is_one():
                    n //= p
            return n
        # fall back to stepping (finite fields only get here)
        n = 1
        x = self
        while not x.is_one():
            x = x * self
            n += 1
        return n

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and other.owner is self.owner
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.owner), self.coeffs))

    def __repr__(self):
        return f"{self.owner!r}({list(self.coeffs)})"


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _poly_mul_frac(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


# ---------------------------------------------------------------------------
# handle constructors

_RATIONALS = None


def rationals():
    global _RATIONALS
    if _RATIONALS is None:
        _RATIONALS = FieldHandle("rationals", 0, 1, [Fraction(0), Fraction(1)])
    return _RATIONALS


def is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def prime_field(q):
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return FieldHandle("prime", q, 1, [0, 1])


def extension_field(q, s):
    if s == 1:
        return prime_field(q)
    modulus = _extension_modulus(q, s)
    return FieldHandle("extension", q, s, modulus)


def cyclotomic_field(N):
    if N <= 2:
        return rationals()
    phi = cyclotomic_polynomial(N)
    return FieldHandle("cyclotomic", 0, len(phi) - 1,
                       [Fraction(c) for c in phi], cyclo_order=N)


def sufficiently_large_field(N, q):
    """A field of characteristic q containing the N-th roots of unity:
    Q(zeta_N) when q = 0, F_{q^s} with s = ord_N(q) when q is a prime
    not dividing N."""
    if N < 1:
        raise ValueError("N must be positive")
    if q == 0:
        return cyclotomic_field(N)
    if N == 1:
        return prime_field(q)
    if N % q == 0:
        raise ValueError(f"characteristic {q} divides the quotient order {N}")
    s = multiplicative_order(q, N)
    return extension_field(q, s)


def _find_generator(K):
    """Deterministic generator of the multiplicative group of a finite field:
    the first element, in the fixed enumeration by integer encoding, whose
    order is q^s - 1 (tested against the prime factorization)."""
    if K._generator is not None:
        return K._generator
    q, s = K.char, K.degree
    n = K.order() - 1
    prime_divs = list(factorize(n))
    for code in range(2, K.order()):
        coeffs = []
        m = code
        for _ in range(s):
            coeffs.append(m % q)
            m //= q
        g = K.element(coeffs)
        if g.is_zero():
            continue
        if all(not (g ** (n // p)).is_one() for p in prime_divs):
            K._generator = g
            return g
    raise InvariantViolation(  # pragma: no cover
        "no multiplicative generator found")


class LogTables:
    """Discrete-log arithmetic for a small finite field.

    Elements are coded by their exponent with respect to the fixed
    generator (zero coded as -1); addition goes through the Zech logarithm
    z(d) = log(1 + g^d).  Everything is a plain int, which makes the inner
    loops of rank computations cheap.
    """

    __slots__ = ("field", "n", "pow", "log", "zech", "minus_one")

    def __init__(self, K):
        if not K.char:
            raise ValueError("log tables need a finite field")
        n = K.order() - 1
        g = _find_generator(K) if n > 1 else K.one()
        self.field = K
        self.n = n
        self.pow = []
        self.log = {}
        x = K.one()
        for k in range(n):
            self.pow.append(x)
            self.log[x.coeffs] = k
            x = x * g
        if not x.is_one():
            raise InvariantViolation("the generator's order is not q^s - 1")
        one = K.one()
        self.zech = []
        for k in range(n):
            s = self.pow[k] + one
            self.zech.append(-1 if s.is_zero() else self.log[s.coeffs])
        self.minus_one = 0 if K.char == 2 else n // 2

    def encode(self, elt):
        if elt.is_zero():
            return -1
        return self.log[elt.coeffs]

    def decode(self, code):
        return self.field.zero() if code == -1 else self.pow[code]

    def add(self, a, b):
        if a == -1:
            return b
        if b == -1:
            return a
        d = self.zech[(a - b) % self.n]
        return -1 if d == -1 else (b + d) % self.n

    def neg(self, a):
        return -1 if a == -1 else (a + self.minus_one) % self.n

    def mul(self, a, b):
        if a == -1 or b == -1:
            return -1
        return (a + b) % self.n


_LOG_TABLE_LIMIT = 1 << 16


def log_tables(K):
    """Cached LogTables for a finite handle of at most 2^16 elements."""
    if not K.char or K.order() > _LOG_TABLE_LIMIT:
        return None
    try:
        return K._log_tables
    except AttributeError:
        K._log_tables = LogTables(K)
    return K._log_tables


def primitive_root_of_unity(K, N):
    """A primitive N-th root of unity in K, chosen deterministically.

    Finite case: g^{(q^s-1)/N} for the fixed generator g.  Cyclotomic case:
    the class of x raised to cyclo_order/N.  Rationals: only N = 1, 2.
    """
    if N == 1:
        return K.one()
    if K.kind == "rationals":
        if N == 2:
            return -K.one()
        raise ValueError(f"Q contains no primitive {N}-th root of unity")
    if K.char:
        n = K.order() - 1
        if n % N != 0:
            raise ValueError(f"{K!r} contains no primitive {N}-th root of unity")
        zeta = _find_generator(K) ** (n // N)
    else:
        M = K.cyclo_order
        if M % N != 0:
            raise ValueError(f"{K!r} contains no primitive {N}-th root of unity")
        x = K.element([0, 1])
        zeta = x ** (M // N)
    if not (zeta ** N).is_one() or \
            any((zeta ** (N // r)).is_one() for r in factorize(N)):
        raise InvariantViolation(f"{zeta!r} is not a primitive {N}-th root")
    return zeta
