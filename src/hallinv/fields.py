"""Exact arithmetic in the finite fields F_q and F_{q^s}, with roots of unity.

An element of F_{q^s} = F_q[x] / (f), f the field's modulus, is its
code: the integer whose base-q digits are its coefficients in x, lowest
first.  So 0 is zero, 1 is one, c < q is the constant c, x is q (for
s > 1), and the codes 0, ..., q^s - 1 enumerate the field (at s = 1 a
code is a residue mod q).  A FieldHandle's add, mul, power and inv take
and return codes: add digit by digit mod q, the others through _mulmod,
the one product mod f, which Ben-Or's irreducibility test shares.  Codes
index LogTables.log and hall.MetabelianGroup's table; the depth engine
packs the same digits into bit slots (charvar._pack) to sum and multiply
them as plain integers.

All choices (extension modulus, multiplicative generator, roots of
unity) are deterministic so that repeated runs produce identical output.
The modulus is the least irreducible polynomial of its degree, found by
Ben-Or's gcd test in time polynomial in the degree.  The primitive N-th
root of unity is x^((q^s-1)/N) for the first x by code for which that
power has order exactly N, tested against the primes of N alone, the
constants skipped when they cannot give one; only the multiplicative
generator behind LogTables, at most 2^16 elements, factors q^s - 1.

In characteristic q > 0 every rank the library takes is over one of
these fields, from the Alexander matrix compiled once by
charvar.DepthEngine, by one rule: a field of at most 2^16 elements
(_LOG_TABLE_LIMIT) has LogTables and is ranked by Zech codes; a larger
one is ranked by charvar._rank_mod, the integer elimination of
characteristic 0, on packed digits, each term's coefficient times a
power of zeta taken by the handle when first met and packed.
extension_field keeps one handle per field, so a field's modulus is
searched for, and its LogTables are built, once per process.
LogTables give the depth engine the code of each power of the generator
(codes), from which it packs each coefficient times zeta^x; the log of
each code (log), which turns a summed entry, its digits reduced mod q,
into a Zech log; and the Zech table its elimination adds through.
Characteristic 0 takes its ranks mod split primes ell in plain integers
(charvar._rank_mod), so LogTables serve only q > 0; its zeta_N mod ell
is the one primitive_root_of_unity picks in prime_field(ell).  The same
F_{q^s} and root of unity build the metabelian group tables of
hall.MetabelianGroup.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, repeat, zip_longest
from math import gcd

from .errors import InvariantViolation


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
# modulus of F_{3^100} takes about 0.6 s, of F_{3^128} 1.4 s and of
# F_{2^200} 0.3 s (Python 3.11, one core); cover --order 1000 --q 3 needs
# s = 100.
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


def _fq_rem(a, b, q):
    """a mod b over F_q, for integer coefficient lists a and b, b's
    leading coefficient prime to q.  As in _mulmod, a coefficient is taken
    mod q only when read: each top one as it is cleared, and the
    remainder's at the end."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a, d = list(a), len(b) - 1
    inv_lead = pow(b[-1], q - 2, q)
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] * inv_lead % q
        if c:
            for j, bj in enumerate(b, k - d):
                a[j] -= c * bj
    return _poly_trim([x % q for x in a[:d]])


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


def _tail(f, q):
    """The terms of the monic f below its leading one that _mulmod
    reduces by: (j, -f_j mod q) for each nonzero f_j, so that x^s, s the
    degree of f, is the sum of the tail's terms x^j times their values."""
    return [(j, -m % q) for j, m in enumerate(f[:-1]) if m % q]


def _mulmod(a, b, tail, degree, q):
    """a * b mod the monic f of the given degree and tail (_tail), over
    F_q: a and b are coefficient lists, low degree first, and the product
    is reduced from its top term down.  The result has at most degree
    coefficients, each below q."""
    out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    for k in range(len(out) - 1, degree - 1, -1):
        c = out[k] % q
        if c:
            for j, t in tail:
                out[k - degree + j] += c * t
    return [c % q for c in out[:degree]]


def _powmod(a, e, tail, degree, q):
    """a^e mod f (as _mulmod), e >= 0, by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, a, tail, degree, q)
        e >>= 1
        if e:
            a = _mulmod(a, a, tail, degree, q)
    return out


def _fq_is_irreducible(f, q):
    """Ben-Or's test: a monic f of degree s is irreducible iff
    gcd(x^(q^i) - x, f) = 1 for i = 1, ..., s/2, since x^(q^i) - x is the
    product of the monic irreducibles of degree dividing i, and a
    reducible f has an irreducible factor of degree at most s/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    tail = _tail(f, q)
    h = [0, 1]  # x^(q^i) mod f, from i = 0
    for _ in range(deg // 2):
        h = _powmod(h, q, tail, deg, q)
        # gcd(h - x, f) by Euclid's algorithm
        g = h + [0] * (2 - len(h))
        g[1] -= 1
        a, b = f, _poly_trim([c % q for c in g])
        while b:
            a, b = b, _fq_rem(a, b, q)
        if len(a) > 1:
            return False
    return True


def _extension_modulus(q, s):
    """Lexicographically smallest monic irreducible polynomial of degree s
    over F_q, coefficients compared low degree first.  For s >= 2 it has
    a nonzero constant term (else x divides it), so the walk starts at
    constant term 1."""
    for f in _fq_monic_polys(q, s, q ** (s - 1) if s > 1 else 0):
        if _fq_is_irreducible(f, q):
            return f
    raise InvariantViolation(  # pragma: no cover
        "no irreducible polynomial found")


# ---------------------------------------------------------------------------
# field handles

class FieldHandle:
    """The finite field F_{q^s} (F_q at s = 1), its elements named by
    their codes (see the module docstring).

    add, mul, power and inv are its arithmetic, on codes.  A field of at
    most 2^16 elements has LogTables (log_tables, one per handle), through
    which the depth engine ranks by Zech codes; a larger one is ranked by
    charvar._rank_mod on packed digits (charvar._Packed).  Use the
    module-level constructors (`prime_field`, `extension_field`,
    `sufficiently_large_field`) rather than calling this directly.
    """

    __slots__ = ("char", "degree", "modulus", "_tail")

    def __init__(self, char, degree, modulus):
        self.char = char
        self.degree = degree
        self.modulus = modulus  # defining polynomial, low degree first
        self._tail = _tail(modulus, char)

    def order(self):
        """Number of elements."""
        return self.char ** self.degree

    def add(self, a, b):
        """a + b, digit by digit mod q."""
        return self._code([(x + y) % self.char for x, y in zip_longest(
            self._digits(a), self._digits(b), fillvalue=0)])

    def mul(self, a, b):
        if self.degree == 1:
            return a * b % self.char
        return self._code(_mulmod(self._digits(a), self._digits(b),
                                  self._tail, self.degree, self.char))

    def power(self, a, e):
        """a^e by repeated squaring (a^0 = 1); e < 0 inverts a first."""
        if e < 0:
            a, e = self.inv(a), -e
        if self.degree == 1:
            return pow(a, e, self.char)
        return self._code(_powmod(self._digits(a), e, self._tail,
                                  self.degree, self.char))

    def inv(self, a):
        """The inverse a^(q^s - 2) of a nonzero a (Fermat)."""
        if not a:
            raise ZeroDivisionError("inverting zero field element")
        return self.power(a, self.order() - 2)

    def _digits(self, a):
        """The coefficients of the element of code a, lowest first, up to
        its last nonzero one."""
        out = []
        while a:
            a, c = divmod(a, self.char)
            out.append(c)
        return out

    def _code(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * self.char + c
        return out

    def __repr__(self):
        if self.degree == 1:
            return f"F_{self.char}"
        return f"F_{self.char}^{self.degree}"


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


@cache
def extension_field(q, s):
    """F_{q^s}, one handle per (q, s) for the process, so that its
    modulus is searched for and its LogTables built once."""
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
        return extension_field(q, 1)
    if N % q == 0:
        raise ValueError(f"characteristic {q} divides the quotient order {N}")
    s = multiplicative_order(q, N)
    return extension_field(q, s)


class LogTables:
    """Discrete-log arithmetic for a small finite field.

    Nonzero elements are coded by their exponent with respect to the fixed
    generator g, the primitive (q^s - 1)-th root of unity that
    primitive_root_of_unity picks, zero by -1: log[c] is the log of the
    element with code c, codes[k] the code of g^k, and addition goes
    through the Zech logarithm zech[d] = log(1 + g^d).  Everything is a
    plain int, which makes the inner loops of rank computations cheap.  At
    s > 1 the powers g^k are built as coefficient lists, each multiplied
    by g's (_mulmod), so that g is decoded once.
    """

    __slots__ = ("n", "log", "codes", "zech", "minus_one")

    def __init__(self, K):
        n = K.order() - 1
        g = primitive_root_of_unity(K, n)
        if K.degree == 1:
            powers = accumulate(repeat(g, n), K.mul, initial=1)
        else:
            powers = map(K._code, accumulate(
                repeat(K._digits(g), n), initial=[1],
                func=lambda x, y: _mulmod(x, y, K._tail, K.degree, K.char)))
        self.n = n
        self.codes = list(powers)
        if self.codes.pop() != 1:
            raise InvariantViolation("the generator's order is not q^s - 1")
        self.log = [-1] * K.order()
        for k, code in enumerate(self.codes):
            self.log[code] = k
        # g^k + 1 differs from g^k in its constant coefficient, the lowest
        # base-q digit of its code
        q = K.char
        self.zech = [self.log[c - c % q + (c + 1) % q] for c in self.codes]
        self.minus_one = 0 if K.char == 2 else n // 2


_LOG_TABLE_LIMIT = 1 << 16


@cache
def log_tables(K):
    """The LogTables of the handle K, built once for the process; the
    depth engine asks only for fields of at most 2^16 elements
    (_LOG_TABLE_LIMIT)."""
    return LogTables(K)


def primitive_root_of_unity(K, N):
    """The code of a primitive N-th root of unity in K, chosen
    deterministically: z = x^((q^s-1)/N) for the first x >= 2, in the
    enumeration by code, for which z has order exactly N.  Such a z has
    z^N = 1, so only the primes of N are tested: q^s - 1 is factored only
    when N is q^s - 1 itself (the generator of LogTables, at most 2^16
    elements).  A constant x < q gives z in F_q^*, of order dividing
    q - 1, so unless N divides q - 1 the scan starts at x = q; a field of
    any size then costs a few exponentiations."""
    if N == 1:
        return 1
    n = K.order() - 1
    if n % N != 0:
        raise ValueError(f"{K!r} contains no primitive {N}-th root of unity")
    primes = list(factorize(N))
    for x in range(2 if (K.char - 1) % N == 0 else K.char, K.order()):
        zeta = K.power(x, n // N)
        if all(K.power(zeta, N // r) != 1 for r in primes):
            return zeta
    raise InvariantViolation(  # pragma: no cover
        f"{K!r} has no primitive {N}-th root of unity")
