"""Exact arithmetic in the finite fields F_q and F_{q^s}, with roots of unity.

A FieldHandle owns its elements; elements are coefficient vectors of
residues modulo the handle's defining polynomial (length 1 for prime
fields).  An element's code is the integer whose base-q digits are its
coefficients, lowest first, which fixes one enumeration of the field.
All choices (extension modulus, multiplicative generator, roots of
unity) are deterministic so that repeated runs produce identical output.
The modulus is the least irreducible polynomial of its degree, found by
Ben-Or's gcd test in time polynomial in the degree.  The primitive N-th
root of unity is x^((q^s-1)/N) for the first x by code for which that
power has order exactly N, tested against the primes of N alone; only
the multiplicative generator behind LogTables, at most 2^16 elements,
factors q^s - 1.

In characteristic q > 0 every rank the library takes is over one of
these fields, from the Alexander matrix compiled once by
charvar.DepthEngine, by one rule: a field of at most 2^16 elements
(_LOG_TABLE_LIMIT) has LogTables and is ranked by Zech codes; a larger
one is ranked by elimination on its elements (linalg.rank_over_field),
each entry summed from one table of zeta's N powers per field.
LogTables give the depth engine the code of each power of the generator
(codes), from which it packs each coefficient times zeta^x; the log of
each code (log), which turns a summed entry, its digits reduced mod q,
into a Zech log; and the Zech table its elimination adds through.
Characteristic 0 takes its ranks mod split primes in plain integers
(charvar._rank_mod), so LogTables serve only q > 0.  The same F_{q^s}
and root of unity build the metabelian group tables of
hall.MetabelianGroup.
"""

from __future__ import annotations

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


# The largest degree s of a field F_{q^s} the library builds.  Finding the
# modulus of F_{3^100} takes about 2 s, of F_{3^128} 4 s and of F_{3^200}
# 10 s (Python 3.11, one core); cover --order 1000 --q 3 needs s = 100.
MAX_FIELD_DEGREE = 128


def multiplicative_order(q, N):
    """Least s >= 1 with q^s = 1 mod N, the degree of the field F_{q^s}
    that holds the N-th roots of unity.  Requires gcd(q, N) = 1 and
    N >= 2; a ValueError past MAX_FIELD_DEGREE, since every caller goes
    on to build that field or a group table over it."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if gcd(q, N) != 1:
        raise ValueError(f"gcd({q}, {N}) != 1, no multiplicative order")
    s = 1
    x = q % N
    while x != 1:
        if s == MAX_FIELD_DEGREE:
            raise ValueError(
                f"the order of {q} mod {N} exceeds {MAX_FIELD_DEGREE}: a "
                f"field F_{{{q}^s}} with s > {MAX_FIELD_DEGREE} is too large "
                "to build")
        x = (x * q) % N
        s += 1
    return s


def euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


# ---------------------------------------------------------------------------
# polynomials over F_q (coefficient lists of residues, low degree first)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fq_divmod(a, b, q):
    a = [x % q for x in a]
    _poly_trim(a)
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
    return _poly_trim(quo), _poly_trim(a)


def _fq_monic_polys(q, degree, start=0):
    """The monic polynomials of the given degree over F_q, ordered with the
    constant coefficient most significant (lexicographically smallest
    first), from the start-th on."""
    span = q ** degree
    for n in range(start, span):
        coeffs = []
        m = n
        for _ in range(degree):
            coeffs.append(m % q)
            m //= q
        coeffs.reverse()  # constant term first came out last
        yield coeffs + [1]


def _fq_mulmod(a, b, f, q):
    """a * b mod the monic f, over F_q."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _fq_divmod(out, f, q)[1]


def _fq_is_irreducible(f, q):
    """Ben-Or's test: a monic f of degree s is irreducible iff
    gcd(x^(q^i) - x, f) = 1 for i = 1, ..., s/2, since x^(q^i) - x is the
    product of the monic irreducibles of degree dividing i, and a
    reducible f has an irreducible factor of degree at most s/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    h = [0, 1]  # x^(q^i) mod f, from i = 0
    for _ in range(deg // 2):
        power, base, e = [1], h, q
        while e:
            if e & 1:
                power = _fq_mulmod(power, base, f, q)
            base = _fq_mulmod(base, base, f, q)
            e >>= 1
        h = power
        # gcd(h - x, f) by Euclid's algorithm
        g = h + [0] * (2 - len(h))
        g[1] -= 1
        a, b = f, _poly_trim([c % q for c in g])
        while b:
            a, b = b, _fq_divmod(a, b, q)[1]
        if len(a) > 1:
            return False
    return True


_MODULUS_CACHE = {}


def _extension_modulus(q, s):
    """Lexicographically smallest monic irreducible polynomial of degree s
    over F_q, coefficients compared low degree first.  For s >= 2 it has
    a nonzero constant term (else x divides it), so the walk starts at
    constant term 1."""
    key = (q, s)
    if key not in _MODULUS_CACHE:
        for f in _fq_monic_polys(q, s, q ** (s - 1) if s > 1 else 0):
            if _fq_is_irreducible(f, q):
                _MODULUS_CACHE[key] = f
                break
        else:  # pragma: no cover - irreducibles exist in every degree
            raise InvariantViolation("no irreducible polynomial found")
    return list(_MODULUS_CACHE[key])


# ---------------------------------------------------------------------------
# field handles and elements

class FieldHandle:
    """A finite field of q^s elements: F_q (s = 1) or F_{q^s}.

    A field of at most 2^16 elements also carries LogTables (log_tables),
    through which the depth engine ranks by Zech codes; a larger one is
    ranked on its elements (linalg.rank_over_field).  Use the module-level
    constructors (`prime_field`, `extension_field`,
    `sufficiently_large_field`) rather than calling this directly.
    """

    __slots__ = ("char", "degree", "modulus", "_tail",
                 "_zero", "_one", "_generator", "_log_tables")

    def __init__(self, char, degree, modulus):
        self.char = char
        self.degree = degree
        self.modulus = modulus  # defining polynomial, low degree first
        # its nonzero terms below the leading one, which _reduce subtracts
        self._tail = [(j, m) for j, m in enumerate(modulus[:degree]) if m]
        self._zero = FieldElement(self, (0,) * degree)
        self._one = FieldElement(self, (1,) + (0,) * (degree - 1))
        self._generator = None

    # -- basic element constructors

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return FieldElement(self, (n % self.char,) + (0,) * (self.degree - 1))

    def from_code(self, code):
        """The element whose coefficients, lowest first, are the base-q
        digits of code, 0 <= code < q^s."""
        coeffs = []
        for _ in range(self.degree):
            code, c = divmod(code, self.char)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))

    def order(self):
        """Number of elements."""
        return self.char ** self.degree

    # -- internal coefficient arithmetic

    def _reduce(self, coeffs):
        out = list(coeffs)
        d = self.degree
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k]
            if c:
                for j, m in self._tail:
                    out[k - d + j] -= c * m
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
        return [c % self.char for c in out]

    def __repr__(self):
        if self.degree == 1:
            return f"F_{self.char}"
        return f"F_{self.char}^{self.degree}"


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

    def code(self):
        """The integer whose base-q digits are the coefficients, lowest
        first: the inverse of FieldHandle.from_code."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.owner.char + c
        return out

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.owner is not self.owner:
            raise ValueError("operands belong to different field handles")

    def __add__(self, other):
        self._check(other)
        K = self.owner
        return FieldElement(K, tuple((a + b) % K.char
                                     for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        K = self.owner
        return FieldElement(K, tuple((-a) % K.char for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        K = self.owner
        return FieldElement(K, tuple(K._mul_coeffs(list(self.coeffs),
                                                   list(other.coeffs))))

    def inv(self):
        """Multiplicative inverse, a^(|K| - 2) (Fermat)."""
        K = self.owner
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        if K.degree == 1:
            return FieldElement(K, (pow(self.coeffs[0], K.char - 2, K.char),))
        return self ** (K.order() - 2)

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

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and other.owner is self.owner
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.owner), self.coeffs))

    def __repr__(self):
        return f"{self.owner!r}({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# handle constructors

# The first 13 primes, and psi_13, the least integer that is a strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017): below it Miller-Rabin on these
# bases decides primality exactly.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Primality by Miller-Rabin on the first 13 prime bases, exact below
    psi_13 = 3317044064679887385961981; at or above it, ValueError."""
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"a {n.bit_length()}-bit number is too large: "
                         f"primality is decided only below "
                         f"{_MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_field(q):
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return FieldHandle(q, 1, [0, 1])


def extension_field(q, s):
    if s == 1:
        return prime_field(q)
    modulus = _extension_modulus(q, s)
    return FieldHandle(q, s, modulus)


def sufficiently_large_field(N, q):
    """F_{q^s}, s = ord_N(q): the smallest field of characteristic q, a
    prime not dividing N, that contains the N-th roots of unity."""
    if N < 1:
        raise ValueError("N must be positive")
    if not is_prime(q):
        raise ValueError(f"the characteristic {q} is not prime")
    if N == 1:
        return prime_field(q)
    if N % q == 0:
        raise ValueError(f"characteristic {q} divides the quotient order {N}")
    s = multiplicative_order(q, N)
    return extension_field(q, s)


def _find_generator(K):
    """Deterministic generator of the multiplicative group of a finite field:
    the first element, in the fixed enumeration by code, whose order is
    q^s - 1 (tested against the prime factorization, so LogTables, which
    stop at 2^16 elements, are its only caller)."""
    if K._generator is not None:
        return K._generator
    n = K.order() - 1
    prime_divs = list(factorize(n))
    for code in range(2, K.order()):
        g = K.from_code(code)
        if all(not (g ** (n // p)).is_one() for p in prime_divs):
            K._generator = g
            return g
    raise InvariantViolation(  # pragma: no cover
        "no multiplicative generator found")


class LogTables:
    """Discrete-log arithmetic for a small finite field.

    Nonzero elements are coded by their exponent with respect to the fixed
    generator g, zero by -1: log[c] is the log of the element with code c
    (FieldElement.code), codes[k] the code of g^k, and addition goes
    through the Zech logarithm zech[d] = log(1 + g^d).  Everything is a
    plain int, which makes the inner loops of rank computations cheap.
    """

    __slots__ = ("n", "log", "codes", "zech", "minus_one")

    def __init__(self, K):
        n = K.order() - 1
        g = _find_generator(K) if n > 1 else K.one()
        self.n = n
        self.codes = []
        self.log = [-1] * K.order()
        x = K.one()
        for k in range(n):
            code = x.code()
            self.codes.append(code)
            self.log[code] = k
            x = x * g
        if not x.is_one():
            raise InvariantViolation("the generator's order is not q^s - 1")
        # g^k + 1 differs from g^k in its constant coefficient, the lowest
        # base-q digit of its code
        q = K.char
        self.zech = [self.log[c - c % q + (c + 1) % q] for c in self.codes]
        self.minus_one = 0 if K.char == 2 else n // 2


_LOG_TABLE_LIMIT = 1 << 16


def log_tables(K):
    """Cached LogTables for a handle of at most 2^16 elements, else None."""
    if K.order() > _LOG_TABLE_LIMIT:
        return None
    try:
        return K._log_tables
    except AttributeError:
        K._log_tables = LogTables(K)
    return K._log_tables


def primitive_root_of_unity(K, N):
    """A primitive N-th root of unity in K, chosen deterministically:
    z = x^((q^s-1)/N) for the first x, in the enumeration by code, for
    which z has order exactly N.  Such a z has z^N = 1, so only the primes
    of N are tested, and q^s - 1 is never factored: a field of any size
    costs a few exponentiations."""
    if N == 1:
        return K.one()
    n = K.order() - 1
    if n % N != 0:
        raise ValueError(f"{K!r} contains no primitive {N}-th root of unity")
    primes = list(factorize(N))
    for code in range(2, K.order()):
        zeta = K.from_code(code) ** (n // N)
        if all(not (zeta ** (N // r)).is_one() for r in primes):
            return zeta
    raise InvariantViolation(  # pragma: no cover
        f"{K!r} has no primitive {N}-th root of unity")
