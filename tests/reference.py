"""Independent references the tests compare the library against.

The library evaluates the Alexander matrix in one place, the compiled
rows and linear forms of charvar.DepthEngine, and takes every rank over a
finite field, characteristic 0 included (split primes ell = 1 mod N stand
in for Q(zeta_N)).  The references here do neither:

* evaluate() and depth() evaluate each Laurent term of the matrix at the
  character, as coefficient * zeta^(exponents . e), and rank the result
  with plain division-based elimination (linalg.rank_over_field);
* cyclotomic_polynomial gives Phi_N over the integers, by dividing
  x^N - 1 by the Phi_d of the proper divisors d of N; the library never
  needs it, since its roots of unity are powers in F_{q^s};
* CyclotomicField does exact arithmetic in Q(zeta_N) = Q[x] / Phi_N on
  Fraction coefficients, duck-typed to the FieldHandle interface those
  use, so the same depths can be taken over Q(zeta_N);
* irreducible_by_trial_division is the test the library's extension
  moduli were once found by, against which Ben-Or's test is checked;
* determinant (Laplace expansion) and determinantal_divisors, the Smith
  divisors of a small integer matrix from the gcds of its minors, with no
  elimination at all;
* fox_derivative takes the product rule one letter at a time, rebuilding
  each prefix as a fresh Word from its letters, quadratic in the length;
* galois_orbits_by_filter finds the subgroups by building every vector
  and keeping those that are the least generator of their orbits, each
  orbit listed in full, where the library builds least generators
  directly and lists each orbit by the multipliers of its coset.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from hallinv.charvar import _character_moduli
from hallinv.fields import (_fq_divmod, _fq_monic_polys, multiplicative_order,
                            primitive_root_of_unity, sufficiently_large_field)
from hallinv.foxcalc import FreeRingElement
from hallinv.linalg import rank_over_field
from hallinv.presentations import Word


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_int(a, b):
    """Product of integer polynomials (coefficient lists, low degree
    first)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


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
    return _trim(out), _trim(a)


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
        raise ArithmeticError(
            "x^N - 1 not divisible by the product of lower Phi_d")
    _CYCLO_CACHE[N] = list(quo)
    return quo


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


def evaluate(A, K, N, e):
    """The Alexander matrix A at the character of order dividing N with
    coordinate exponent vector e (torsion coordinates first), over K: the
    term c * t^v * s^w goes to c * zeta_N^(w . e_tors + v . e_free)."""
    zeta = root_of_unity(K, N)
    grid = []
    for row in A.entries:
        out = []
        for entry in row:
            acc = K.zero()
            for (free, tors), coeff in entry.terms.items():
                k = sum(a * b for a, b in zip(tors + free, e))
                acc = acc + K.from_int(coeff) * zeta ** (k % N)
            out.append(acc)
        grid.append(out)
    return grid


def depth(A, K, N, e):
    """corank of A evaluated at e over K, minus one."""
    return A.num_generators - rank_over_field(evaluate(A, K, N, e), K) - 1


def order_p_exponents(abel, p):
    """The coordinate exponent vectors of the p^{n_p} - 1 characters of
    order exactly p, n_p = b_1^{(p)}: free coordinates range over Z_p, and
    a torsion coordinate does too when p divides its elementary divisor,
    and is pinned to 0 otherwise."""
    for exps in product(*map(range, _character_moduli(abel, p))):
        if any(exps):
            yield exps


def irreducible_by_trial_division(f, q):
    """Whether the monic f is irreducible over F_q, by dividing it by every
    monic polynomial of degree up to half its own."""
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


def determinant(M):
    """Determinant of a square list of integer rows, by Laplace expansion
    along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * a
               * determinant([row[:j] + row[j + 1:] for row in M[1:]])
               for j, a in enumerate(M[0]) if a)


def determinantal_divisors(rows, cols):
    """Smith divisors of the integer matrix with these rows: d_1 ... d_k
    is the gcd D_k of the k x k minors, so d_k = D_k / D_{k-1}, up to the
    first k with D_k = 0.  Exponential in the size; for tiny matrices."""
    divisors = []
    previous = 1
    for k in range(1, min(len(rows), cols) + 1):
        D = 0
        for r in combinations(range(len(rows)), k):
            for c in combinations(range(cols), k):
                D = gcd(D, determinant([[rows[i][j] for j in c]
                                      for i in r]))
        if D == 0:
            break
        divisors.append(D // previous)
        previous = D
    return divisors


def fox_derivative(w, j):
    """d w / d x_j letter by letter: with u the letters before it, a letter
    x_j adds u and a letter x_j^-1 adds -u x_j^-1."""
    letters = w.letters()
    terms = {}
    for i, (g, s) in enumerate(letters):
        if g != j:
            continue
        u = Word(letters[:i] + ([] if s > 0 else [(g, -1)]))
        new = terms.get(u, 0) + s
        if new:
            terms[u] = new
        else:
            terms.pop(u, None)
    return FreeRingElement(terms)


def _unit_cosets(k, q):
    """The cosets of <q mod k> in (Z/k)^*, or all of (Z/k)^* at q = 0, in
    order of their least elements, each listed as j, jq, jq^2, ... from its
    least element j."""
    units = [j for j in range(1, k) if gcd(j, k) == 1]
    if not q:
        return [units]
    s = multiplicative_order(q, k)
    cosets = [[j * q ** i % k for i in range(s)] for j in units]
    return [coset for coset in cosets if min(coset) == coset[0]]


def galois_orbits_by_filter(moduli, q):
    """Each nontrivial cyclic subgroup of Z_{m_1} + ... + Z_{m_r}, as its
    generators split into the orbits of <q mod k> (all of (Z/k)^* at
    q = 0), k the subgroup's order.  Every vector is built, in code order,
    first coordinate fastest, and a subgroup is visited at its least
    generator (as a tuple), found by listing all of its generators; it is
    yielded as a list of orbits, each a list of vectors headed by its
    representative, the first headed by the least generator."""
    cosets = {}
    for reverse in product(*(range(m) for m in reversed(moduli))):
        v = reverse[::-1]
        # the least generator's first nonzero coordinate e is the least
        # generator, gcd(e, m), of the subgroup of Z_m that e spans
        i = next((i for i, e in enumerate(v) if e), None)
        if i is None or v[i] != gcd(v[i], moduli[i]):
            continue
        k = lcm(*(m // gcd(e, m) for e, m in zip(v, moduli)))
        if k not in cosets:
            cosets[k] = _unit_cosets(k, q)
        orbits = [[tuple(j * e % m for e, m in zip(v, moduli)) for j in coset]
                  for coset in cosets[k]]
        if min(min(orbit) for orbit in orbits) == v:
            yield orbits
