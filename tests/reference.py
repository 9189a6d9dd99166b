"""Independent references the tests compare the library against.

The library evaluates the Alexander matrix in one place, the compiled
rows and linear forms of charvar.DepthEngine, and takes every rank over a
finite field, characteristic 0 included (split primes ell = 1 mod N stand
in for Q(zeta_N)).  The references here do neither:

* evaluate() and depth() evaluate each Laurent term of the matrix at the
  character, as coefficient * zeta^(exponents . e), and rank the result
  with plain division-based elimination on field elements
  (rank_of_elements), where the library's depth engine eliminates on
  Zech logs, on residues mod ell or, past the Zech table limit, on
  packed digits (charvar._Packed);
* cyclotomic_polynomial gives Phi_N over the integers, by dividing
  x^N - 1 by the Phi_d of the proper divisors d of N; the library never
  needs it, since its roots of unity are powers in F_{q^s};
* CyclotomicField does exact arithmetic in Q(zeta_N) = Q[x] / Phi_N on
  Fraction coefficients, so the same depths can be taken over Q(zeta_N);
  FiniteField gives a library FieldHandle the same interface, its
  elements (FiniteElement) wrapping codes, every operation one of the
  handle's methods but subtraction, which it takes digit by digit;
* irreducible_by_trial_division is the test the library's extension
  moduli were once found by, against which Ben-Or's test is checked;
* determinant (Laplace expansion) and determinantal_divisors, the Smith
  divisors of a small integer matrix from the gcds of its minors, with no
  elimination at all;
* fox_derivative takes the product rule one letter at a time, rebuilding
  each prefix as a fresh Word from its letters, quadratic in the length;
  alexander_entries pushes those derivatives through AbelStructure.chi,
  and cover_fox_rows replaces each by its permutation matrix, every
  term's permutation composed letter by letter from the identity, where
  the library reads both off the images of the relator's prefixes;
* depth_at ranks a character given by its coordinate exponent vector,
  where the library's character walk carries form exponents;
* galois_orbits_by_filter finds the subgroups by building every vector
  and keeping those that are the least generator of their orbits, each
  orbit listed in full, where the library builds least generators
  directly and lists each orbit by the multipliers of its coset.

The closed forms and checks below are what the tests compare the
library's counts and constructions against; no command needs them:

* fox_fundamental_identity_holds checks sum_j dw/dx_j (x_j - 1) = w - 1
  on derivatives assembled from the library's fox_terms
  (derivative_from_terms), multiplying in the free group ring;
* a_k_free is the closed recursion for index-k subgroups of a free
  group, checked against Hall's recursion on free_group(n);
* a_k_Zn counts the sublattices of Z^n by the divisor recursion, checked
  against alpha_k on groups with H_1 = Z^n;
* a_p_product_with_Z gives a_p(G x Z) = a_p(G) + p^n, checked against
  Hall's recursion on direct_product_with_Z;
* direct_product_with_Z and free_product build G x Z and G * H, through
  which tests/test_properties.py draws products of its generated
  presentations;
* a_normal_closed gives the index-k normal count for k prime, p^2 or pq
  by closed forms in the mod-p Betti numbers, and a_normal_by_enumeration
  sums the oracle's Epi / Aut count over the groups of order k listed in
  GROUPS_OF_ORDER; both are checked against a_normal, which sums the
  library's Hall invariants, and against each other;
* delta_abelian_of is delta_abelian on a presentation and a list of
  cyclic factors, checked against the oracle's Epi / Aut count;
* hom_epi_count_mpqs gives (|Hom|, |Epi|) into M_{p,q^s} from the
  character depths, checked against the oracle's hom_count, and
  aut_order_mpqs gives |Aut M_{p,q^s}| = s q^s (q^s - 1), checked
  against the oracle's aut_order;
* tables_isomorphic checks, by brute force over generator images, that
  the constructed M_{p,q^s} tables are the groups they name;
* check_bounds_congruence checks a cover's Betti number against
  b1(G) <= b1(K) <= b1(G) + (k-1)(l-1), or (k-1) times the largest depth
  max_depth_of_order_dividing finds, and against the congruence mod the
  gcd of the Galois-orbit sizes, on every cyclic cover of small groups
  and small orders;
* the braid-group toolkit: BraidWord, a word in the elementary braid
  generators; FreeAutomorphism, generator images checked unimodular on
  H_1 by their Smith form; artin_action, the automorphism of a word,
  letter by letter through the library's one elementary action
  (braids._elementary_images); pure_generator, the band generator
  A_{i,j}; xi_from_permutation, the combed braid of a horizontal
  arrangement; and semidirect_presentation, F_k x| F_m over m
  automorphisms.  The library builds horizontal:<perm> in one function
  (braids.horizontal_arrangement_group), checked against this toolkit on
  every permutation of up to six planes;
* linking_matrix reads the pairwise linking numbers off a pure braid,
  checked against the band generators A_{i,j} and full twists;
* compose, the composite of two free automorphisms, checks that the
  Artin action is a homomorphism, and apply_automorphism and abelianized
  check that pure braids fix the boundary word and act trivially on
  homology; identity_automorphism and is_identity are the trivial
  automorphism and the test for it;
* build_fixture builds each named arrangement fixture from braid
  monodromy (Cohen and Suciu 1997), through pure_braid_presentation,
  monodromy_presentation, full_twist, conjugate_braid and
  direct_product_with_Z, and each horizontal one through the toolkit;
  the regression tests check that it reproduces every frozen file in
  FROZEN_FIXTURES, which the library reads instead;
* artin_action_reversed and full_twist(opposite=True) are the rejected
  conventions, which the tests show differ from the frozen ones and, for
  the full twist (non_fano_group(opposite=True)), break the non-Fano
  golden values;
* transpose and matmul, the integer matrix transpose and product on
  lists of rows, check the Smith form's basis V (smith_basis_holds) and
  its transpose invariance.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, lcm
from operator import mul

from hallinv import foxcalc
from hallinv.braids import _elementary_images
from hallinv.census import a_k_via_hall_recursion
from hallinv.charvar import (Group, _character_moduli, _coordinate_columns,
                             _galois_orbits)
from hallinv.errors import InvariantViolation
from hallinv.fields import (FieldHandle, _fq_monic_polys, _fq_rem,
                            factorize, multiplicative_order,
                            primitive_root_of_unity, sufficiently_large_field)
from hallinv.foxcalc import abelianization
from hallinv.hall import (AbelianGroupSpec, construct_mpqs, delta_abelian,
                          delta_mpqs)
from hallinv.linalg import smith_normal_form
from hallinv.oracle import (FiniteGroupTable, _count_generator_images,
                            delta_oracle)
from hallinv.presentations import Presentation, Word, commutator


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


class FiniteField:
    """A library FieldHandle with the interface of CyclotomicField: its
    elements are FiniteElements, each wrapping a code."""

    def __init__(self, handle):
        self.handle = handle
        self.char = handle.char
        self.degree = handle.degree

    def zero(self):
        return FiniteElement(self, 0)

    def one(self):
        return FiniteElement(self, 1)

    def from_int(self, n):
        return FiniteElement(self, n % self.char)

    def element(self, coeffs):
        """sum_i coeffs[i] x^i, for at most degree coefficients."""
        if len(coeffs) > self.degree:
            raise ValueError(f"{len(coeffs)} coefficients in {self!r}")
        code = 0
        for c in reversed(coeffs):
            code = code * self.char + c % self.char
        return FiniteElement(self, code)

    def order(self):
        return self.handle.order()

    def root_of_unity(self, n):
        return FiniteElement(self, primitive_root_of_unity(self.handle, n))

    def __repr__(self):
        return repr(self.handle)


class FiniteElement:
    """An element of a FiniteField: the code of an element of its handle,
    with the operators of CyclotomicElement, each taken by the handle but
    subtraction, which the library does not need, taken here."""

    __slots__ = ("owner", "code")

    def __init__(self, owner, code):
        self.owner = owner
        self.code = code

    @property
    def coeffs(self):
        """The coefficients, lowest first: the code's base-q digits."""
        q, code = self.owner.char, self.code
        return tuple(code // q ** i % q for i in range(self.owner.degree))

    def is_zero(self):
        return self.code == 0

    def is_one(self):
        return self.code == 1

    def _other(self, other):
        if not isinstance(other, FiniteElement) or \
                other.owner.handle is not self.owner.handle:
            raise ValueError("operands belong to different fields")
        return other.code

    def _new(self, code):
        return FiniteElement(self.owner, code)

    def __add__(self, other):
        return self._new(self.owner.handle.add(self.code, self._other(other)))

    def __neg__(self):
        return FiniteElement(self.owner, 0) - self

    def __sub__(self, other):
        """Digit by digit mod q: digit i of a code c is c // q^i mod q."""
        q, a, b = self.owner.char, self.code, self._other(other)
        return self._new(sum((a // q ** i - b // q ** i) % q * q ** i
                             for i in range(self.owner.degree)))

    def __mul__(self, other):
        return self._new(self.owner.handle.mul(self.code, self._other(other)))

    def inv(self):
        return self._new(self.owner.handle.inv(self.code))

    def __pow__(self, e):
        return self._new(self.owner.handle.power(self.code, e))

    def __eq__(self, other):
        return isinstance(other, FiniteElement) and \
            other.owner.handle is self.owner.handle and other.code == self.code

    def __hash__(self):
        return hash((id(self.owner.handle), self.code))

    def __repr__(self):
        return f"{self.owner!r}({list(self.coeffs)})"


def elements_of(K):
    """K as a field of elements: a reference field as it is, a library
    FieldHandle as a FiniteField."""
    return FiniteField(K) if isinstance(K, FieldHandle) else K


def reference_field(N, q):
    """A field of characteristic q holding the N-th roots of unity:
    Q(zeta_N) at q = 0, else the library's F_{q^s}."""
    if q == 0:
        return CyclotomicField(N)
    return FiniteField(sufficiently_large_field(N, q))


def root_of_unity(K, N):
    """A primitive N-th root of unity of a reference or library field, as
    an element."""
    return elements_of(K).root_of_unity(N)


def rank_of_elements(M):
    """Rank of a matrix of field elements (CyclotomicElement or
    FiniteElement) by Gaussian elimination, each pivot row divided by its
    pivot."""
    rows = [list(r) for r in M]
    rank, col, m, n = 0, 0, len(rows), len(rows[0]) if rows else 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if not rows[i][col].is_zero()),
                   None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(rank + 1, m):
            c = rows[i][col]
            if not c.is_zero():
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def evaluate(A, K, N, e):
    """The Alexander matrix A at the character of order dividing N with
    coordinate exponent vector e (torsion coordinates first), over K
    (elements_of): the term with coordinate tuple k goes to
    c * zeta_N^(k . e)."""
    K = elements_of(K)
    zeta = K.root_of_unity(N)
    grid = []
    for row in A.entries:
        out = []
        for entry in row:
            acc = K.zero()
            for key, coeff in entry.items():
                k = sum(a * b for a, b in zip(key, e))
                acc = acc + K.from_int(coeff) * zeta ** (k % N)
            out.append(acc)
        grid.append(out)
    return grid


def depth(A, K, N, e):
    """corank of A evaluated at e over K, minus one."""
    return A.num_generators - rank_of_elements(evaluate(A, K, N, e)) - 1


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
            if not _fq_rem(f, g, q):
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


def _add_term(terms, key, c):
    """terms[key] += c in a dict of nonzero coefficients."""
    new = terms.get(key, 0) + c
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def letters(w):
    """The word w as single letters (g, +-1)."""
    return [(g, 1 if e > 0 else -1) for g, e in w.syllables
            for _ in range(abs(e))]


def fox_derivative(w, j):
    """d w / d x_j letter by letter: with u the letters before it, a letter
    x_j adds u and a letter x_j^-1 adds -u x_j^-1."""
    word = letters(w)
    terms = {}
    for i, (g, s) in enumerate(word):
        if g != j:
            continue
        u = Word(word[:i] + ([] if s > 0 else [(g, -1)]))
        _add_term(terms, u, s)
    return terms


def derivative_from_terms(w, j):
    """d w / d x_j as a dict {Word: coefficient}, assembled from the
    library's foxcalc.fox_terms."""
    terms = {}
    for i, g, k, c in foxcalc.fox_terms(w):
        if g == j:
            _add_term(terms, Word(w.syllables[:i] + ((g, k),)), c)
    return terms


def alexander_entries(P, abel):
    """The Alexander matrix entries of P, every term of fox_derivative
    mapped to H_1 by abel.chi."""
    l = P.num_generators
    entries = []
    for r in P.relators:
        row = []
        for j in range(l):
            entry = {}
            for u, c in fox_derivative(r, j).items():
                _add_term(entry, abel.chi([u.exponent_sum(g)
                                           for g in range(l)]), c)
            row.append(entry)
        entries.append(row)
    return entries


def word_permutation(w, gen_perms):
    """The permutation of the cosets by which w acts, b -> w(b): the
    composite of its letters' permutations, applied right to left, built
    letter by letter from the identity."""
    k = len(gen_perms[0])
    perm = list(range(k))
    for g, s in letters(w):
        p = gen_perms[g]
        if s < 0:
            p = [p.index(b) for b in range(k)]
        perm = [perm[p[b]] for b in range(k)]
    return perm


def cover_fox_rows(P, gen_perms):
    """The sparse rows of the cover's Fox matrix, zero entries left out:
    each term u of d r_i / d x_j adds its coefficient at row i k + u(b),
    column j k + b, for every coset b."""
    k = len(gen_perms[0])
    rows = [{} for _ in range(len(P.relators) * k)]
    for i, r in enumerate(P.relators):
        for j in range(P.num_generators):
            for u, c in fox_derivative(r, j).items():
                perm = word_permutation(u, gen_perms)
                for b in range(k):
                    _add_term(rows[i * k + perm[b]], j * k + b, c)
    return rows


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


def fox_fundamental_identity_holds(w, num_generators):
    """Check sum_j dw/dx_j (x_j - 1) = w - 1 in the free group ring, on the
    derivatives the library's fox_terms give, elements as dicts
    {Word: coefficient}."""
    total = {}
    for j in range(num_generators):
        x = Word.generator(j)
        for u, c in derivative_from_terms(w, j).items():
            _add_term(total, u * x, c)
            _add_term(total, u, -c)
    want = {}
    _add_term(want, w, 1)
    _add_term(want, Word(), -1)
    return total == want


def a_k_free(n, k):
    """Index-k subgroups of a free group of rank n (closed recursion)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    a = {1: 1}
    for j in range(2, k + 1):
        total = j * factorial(j) ** (n - 1)
        for l in range(1, j):
            total -= factorial(j - l) ** (n - 1) * a[l]
        a[j] = total
    return a[k]


def a_k_Zn(n, k):
    """Index-k subgroups (sublattices) of Z^n, by the divisor recursion
    a_k(Z^n) = sum_{d | k} a_d(Z^{n-1}) (k/d)^{n-1}."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if n == 1:
        return 1
    return sum(a_k_Zn(n - 1, d) * (k // d) ** (n - 1)
               for d in range(1, k + 1) if k % d == 0)


def a_p_product_with_Z(G, p, *, a_p=None, budget=10 ** 8):
    """Index-p count of G x Z from that of G: a_p(G x Z) = a_p(G) + p^n."""
    G = Group.of(G)
    if a_p is None:
        a_p = a_k_via_hall_recursion(G.P, p, budget=budget)
    return a_p + p ** G.abel.b1(p)


def a_normal_closed(G, k):
    """Index-k normal subgroups for k prime, p^2 or pq, by closed forms in
    the mod-p Betti numbers n = b_1^{(p)}: (p^n - 1)/(p - 1) at k = p;
    (p^n - 1)(p^{n-1} - 1)/((p^2 - 1)(p - 1)) + p^{n-1}(p^m - 1)/(p - 1) at
    k = p^2, m the number of Z and Z_d (p^2 | d) summands of H_1; and
    (u^n - 1)(v^m - 1)/((u - 1)(v - 1)), m = b_1^{(v)}, plus
    delta_{M_{u,v}} when u | v - 1, at k = uv with u < v."""
    abel = Group.of(G).abel
    if k == 1:
        return 1
    fac = factorize(k)
    primes = sorted(fac)
    if len(primes) == 1 and fac[primes[0]] <= 2:
        p = primes[0]
        n = abel.b1(p)
        if fac[p] == 1:
            return (p ** n - 1) // (p - 1)
        m = abel.free_rank + sum(1 for d in abel.torsion if d % (p * p) == 0)
        return ((p ** n - 1) * (p ** (n - 1) - 1) // ((p * p - 1) * (p - 1))
                + p ** (n - 1) * (p ** m - 1) // (p - 1))
    if len(primes) == 2 and set(fac.values()) == {1}:
        u, v = primes
        n, m = abel.b1(u), abel.b1(v)
        total = (u ** n - 1) * (v ** m - 1) // ((u - 1) * (v - 1))
        if (v - 1) % u == 0:
            total += delta_mpqs(G, u, v)
        return total
    raise ValueError(f"no closed form at index {k}")


# The groups of order k, for the k a_normal_by_enumeration takes: the
# abelian ones by their cyclic factors, and M_{u,v} by (u, v).
GROUPS_OF_ORDER = {
    2: ([[2]], []), 3: ([[3]], []), 4: ([[4], [2, 2]], []), 5: ([[5]], []),
    6: ([[6]], [(2, 3)]), 9: ([[9], [3, 3]], []), 10: ([[10]], [(2, 5)]),
}


def a_normal_by_enumeration(P, k):
    """Index-k normal subgroups as the sum of the oracle's Epi / Aut count
    over the groups of order k listed in GROUPS_OF_ORDER."""
    abelian, metabelian = GROUPS_OF_ORDER[k]
    tables = [FiniteGroupTable.abelian(factors) for factors in abelian]
    tables += [construct_mpqs(u, v).table for u, v in metabelian]
    return sum(delta_oracle(P, T) for T in tables)


def delta_abelian_of(P, factors):
    """delta of a presentation against the abelian group with the given
    cyclic factors."""
    return delta_abelian(abelianization(P),
                         AbelianGroupSpec.from_cyclic_factors(factors))


def hom_epi_count_mpqs(G, p, q):
    """(|Hom|, |Epi|) into M_{p,q^s}, from depths of the order-p characters:
    each rho contributes q^{s(depth+1)} homomorphisms, of which q^s are
    abelian when rho is nontrivial; the trivial rho contributes
    q^{s b_1^{(q)}}."""
    G = Group.of(G)
    qs = q ** multiplicative_order(q, p)
    hom = qs ** G.abel.b1(q)  # trivial rho, via depth(1) = b_1^{(q)} - 1
    epi = 0
    characters, _ = G.depths(p, q)
    for d, count in characters.items():
        hom += count * qs ** (d + 1)
        epi += count * qs * (qs ** d - 1)
    return hom, epi


def aut_order_mpqs(p, q):
    """|Aut M_{p,q^s}| = s q^s (q^s - 1), s the order of q mod p."""
    s = multiplicative_order(q, p)
    return s * q ** s * (q ** s - 1)


def tables_isomorphic(T1, T2):
    """Brute-force isomorphism test for small tables."""
    if T1.order != T2.order:
        return False
    return _count_generator_images(T1, T2) > 0


def check_bounds_congruence(b1_base, b1_cover, num_generators, k, q,
                            depth_sup=None):
    """Validate the bounds and congruence a finite abelian cover of order k
    must obey in characteristic q.

    b1(G) <= b1(K) <= b1(G) + (k-1)(l-1), sharpened to (k-1) * depth_sup
    when the maximal depth over nontrivial characters of order dividing k
    is supplied; and b1(K) = b1(G) mod D, D the gcd of the Galois-orbit
    sizes, since each orbit adds its size times a depth.  D is the gcd of
    ord_p(q) (p - 1 at q = 0) over the primes p dividing k, the same for
    every abelian group of order k, so it is read off the orbits of Z_k.
    Returns a report dict; raises InvariantViolation on any breach.
    """
    lower = b1_base
    upper = b1_base + (k - 1) * (num_generators - 1)
    if not lower <= b1_cover <= upper:
        raise InvariantViolation(
            f"cover Betti number {b1_cover} outside [{lower}, {upper}]")
    sharp = None
    if depth_sup is not None:
        sharp = b1_base + (k - 1) * depth_sup
        if b1_cover > sharp:
            raise InvariantViolation(
                f"cover Betti number {b1_cover} above sharpened bound {sharp}")
    D = gcd(*(len(coset) for orbits in _galois_orbits([k], q)
              for _, _, coset in orbits))
    if D > 1 and (b1_cover - b1_base) % D:
        raise InvariantViolation(
            f"jump {b1_cover - b1_base} not divisible by D = {D}")
    return {"lower": lower, "upper": upper, "sharpened": sharp,
            "modulus": D, "jump": b1_cover - b1_base}


def max_depth_of_order_dividing(G, k, q):
    """sup of depth over nontrivial characters whose order divides k, one
    per Galois orbit; G is a presentation or a Group."""
    G = Group.of(G)
    moduli = _character_moduli(G.abel, k)
    engine = G.engine(k, q)
    walk = _galois_orbits(moduli, q, _coordinate_columns(engine, moduli), k)
    return max((engine.depth_of_exponents(forms=exps)
                for orbits in walk for _, exps, _ in orbits), default=0)


def linking_matrix(b):
    """Halved signed crossing counts between strand pairs; for a pure braid
    A_{i,j} this is 1 at the pair (i, j) and 0 elsewhere."""
    strand_at = list(range(b.strands))
    counts = {}
    for i, s in b.letters:
        a, c = strand_at[i - 1], strand_at[i]
        key = (min(a, c), max(a, c))
        counts[key] = counts.get(key, 0) + s
        strand_at[i - 1], strand_at[i] = c, a
    if strand_at != list(range(b.strands)):
        raise ValueError("linking numbers need a pure braid")
    out = {}
    for key, c in counts.items():
        if c % 2:
            raise ValueError("odd crossing count on a pure braid")
        if c:
            out[(key[0] + 1, key[1] + 1)] = c // 2
    return out


def compose(f, g):
    """The free automorphism f after g: x -> f(g(x))."""
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    return FreeAutomorphism(f.rank, [apply_automorphism(f, w)
                                     for w in g.images])


def apply_automorphism(f, w):
    """The image of the word w under the free automorphism f."""
    return w.substitute(f.images)


def abelianized(f):
    """The integer matrix of f on H_1 of the free group: row i holds the
    exponent sums of the image of generator i."""
    return [[w.exponent_sum(j) for j in range(f.rank)] for w in f.images]


def depth_at(engine, e):
    """The DepthEngine's depth at the character with coordinate exponent
    vector e: its rank at the form exponents of e, capped at l - 1 for a
    nontrivial character (Fox's fundamental identity) and at min(m, l)
    for the trivial one."""
    ceiling = engine.ceiling
    if any(a % engine.N for a in e):
        ceiling = min(ceiling, engine.num_generators - 1)
    return engine.num_generators - engine._certified_rank(
        engine._exponents(e), ceiling) - 1


def transpose(M):
    """The transpose of a matrix given as a nonempty list of rows."""
    return [list(col) for col in zip(*M)]


def matmul(A, B):
    """The product of two matrices given as lists of rows, B nonempty."""
    if any(len(row) != len(B) for row in A):
        raise ValueError("shape mismatch")
    return [[sum(map(mul, row, col)) for col in zip(*B)] for row in A]


def smith_basis_holds(rows, form):
    """Whether the basis V and inverse of a Smith form of the integer
    matrix A with these (list) rows fit it: V V^-1 = I, det V = +-1, and
    in every row of A V entry j is divisible by d_j for j < r and is 0 for
    j >= r.  With form.divisors the Smith divisors of A, checked apart,
    this is U A V = diag(divisors) for some U of determinant +-1: the rows
    of A V span a sublattice of the rows of D, of the same rank and the
    same index in Z^r, hence the lattice of D itself."""
    V, d = form.basis, form.divisors
    identity = [[int(i == j) for j in range(len(V))] for i in range(len(V))]
    return (matmul(V, form.inverse) == identity
            and determinant(V) in (1, -1)
            and all(x % d[j] == 0 if j < form.rank else x == 0
                    for row in matmul(rows, V) for j, x in enumerate(row)))


def identity_automorphism(rank):
    """The identity automorphism of the free group of this rank."""
    return FreeAutomorphism(rank, [Word.generator(i) for i in range(rank)])


def is_identity(f):
    """Whether the free automorphism f fixes every generator."""
    return all(w == Word.generator(i) for i, w in enumerate(f.images))


def artin_action_reversed(b):
    """The Artin action under the rejected convention: each letter acts
    by the opposite elementary images (sigma_i by those of its inverse,
    and the inverse by those of sigma_i)."""
    k = b.strands
    images = [Word.generator(j) for j in range(k)]
    for i, s in b.letters:
        phi = _elementary_images(i, k, s < 0)
        images = [w.substitute(phi) for w in images]
    return FreeAutomorphism(k, images)


# ---------------------------------------------------------------------------
# the braid-group toolkit: braid words, free automorphisms, the Artin action

class BraidWord:
    """A word in the elementary braid generators on a fixed strand count."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in letters:
            if not 1 <= i < strands:
                raise ValueError(f"generator index {i} out of range")
            if s not in (1, -1):
                raise ValueError("letter signs must be +-1")
        self.strands = strands
        self.letters = letters

    @classmethod
    def identity(cls, strands):
        return cls(strands)

    def __mul__(self, other):
        if other.strands != self.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, n):
        letters = self.letters if n >= 0 else \
            tuple((i, -s) for i, s in reversed(self.letters))
        return BraidWord(self.strands, letters * abs(n))

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and other.strands == self.strands
                and other.letters == self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {list(self.letters)})"


class FreeAutomorphism:
    """An automorphism of a free group, stored by generator images."""

    __slots__ = ("rank", "images")

    def __init__(self, rank, images):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError("need one image per generator")
        for w in images:
            if w.max_generator() >= rank:
                raise ValueError("image uses an out-of-range generator")
        det = _abelianized_determinant_unit(rank, images)
        if not det:
            raise ValueError("images do not generate (abelianized check)")
        self.rank = rank
        self.images = images

    def __eq__(self, other):
        return (isinstance(other, FreeAutomorphism)
                and other.rank == self.rank and other.images == self.images)

    def __repr__(self):
        return f"FreeAutomorphism({self.rank}, {list(self.images)})"


def _abelianized_determinant_unit(rank, images):
    """True when the abelianized image matrix is unimodular (a necessary
    condition for the images to generate)."""
    form = smith_normal_form([{j: w.exponent_sum(j) for j in range(rank)}
                              for w in images], rank)
    return form.rank == rank and all(d == 1 for d in form.divisors)


def artin_action(b):
    """The free-group automorphism of a braid word.

    The leftmost letter acts first, so under classical function
    composition artin(uv) = artin(v) o artin(u) (a right action of the
    braid group, as in the classical Artin representation).  The opposite
    elementary action is the rejected alternate (artin_action_reversed),
    which the tests build to show that the golden values select this one.
    The letters' actions are composed on the image words, and the result
    is checked once.
    """
    k = b.strands
    images = [Word.generator(j) for j in range(k)]
    for i, s in b.letters:
        phi = _elementary_images(i, k, s > 0)
        images = [w.substitute(phi) for w in images]
    return FreeAutomorphism(k, images)


def pure_generator(i, j, k):
    """The band generator A_{i,j}: strand j passes in front of the strands
    between i and j, twists fully with strand i, and returns."""
    if not 1 <= i < j <= k:
        raise ValueError("need 1 <= i < j <= number of strands")
    letters = [(t, 1) for t in range(j - 1, i, -1)]
    letters += [(i, 1), (i, 1)]
    letters += [(t, -1) for t in range(i + 1, j)]
    return BraidWord(k, letters)


def xi_from_permutation(tau):
    """The combed braid of a horizontal arrangement with permutation tau.

    tau is the sequence (tau_1, ..., tau_n); the braid lives on n-1 strands
    and is the product over j of A_{i,j} for the pairs i < j <= n-1 that
    the inverse permutation inverts.
    """
    n = len(tau)
    if sorted(tau) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    if n < 2:
        raise ValueError("need at least two planes")
    position = [0] * (n + 1)
    for idx, value in enumerate(tau):
        position[value] = idx
    out = BraidWord.identity(n - 1)
    for j in range(2, n):
        for i in range(1, j):
            if position[i] > position[j]:
                out = out * pure_generator(i, j, n - 1)
    return out


def semidirect_presentation(phis):
    """F_k x| F_m for automorphisms phi_1..phi_m of F_k.

    Generators x_1..x_k, y_1..y_m; relators y_j x_i y_j^-1 = phi_j(x_i).
    """
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one automorphism")
    k = phis[0].rank
    if any(phi.rank != k for phi in phis):
        raise ValueError("all automorphisms must share a rank")
    m = len(phis)
    names = [f"x{i}" for i in range(1, k + 1)] + \
            [f"y{j}" for j in range(1, m + 1)]
    relators = []
    for j, phi in enumerate(phis):
        y = Word.generator(k + j)
        for i in range(k):
            x = Word.generator(i)
            image = phi.images[i]
            rel = y * x * y.inverse() * image.inverse()
            relators.append(rel)
    return Presentation(names, relators)


# ---------------------------------------------------------------------------
# the named arrangement fixtures from braid monodromy

def conjugate_braid(a, b):
    """a conjugated by b: b^-1 a b."""
    return b ** -1 * a * b


def _adjacent_full_twist(a, size, k):
    """Full twist on the adjacent strands a, a+1, ..., a+size-1."""
    single = [(t, 1) for t in range(a, a + size - 1)]
    return BraidWord(k, single * size)


def full_twist(indices, k, *, opposite=False):
    """Full twist A_I on an arbitrary strand set I.

    The strands of I are slid next to min(I) by a permutation braid C of
    positive crossings (passing over the strands in between), the
    adjacent block is fully twisted, and C is undone: A_I = C T C^-1.
    Conjugating on the other side (`opposite`, the first candidate
    convention) fails the non-Fano golden values, which is how this side
    was frozen.
    """
    indices = sorted(set(indices))
    if len(indices) < 2:
        raise ValueError("a full twist needs at least two strands")
    if not 1 <= indices[0] and indices[-1] <= k:
        raise ValueError("strand index out of range")
    base = indices[0]
    slide = []
    for m, strand in enumerate(indices[1:], start=1):
        slide += [(t, 1) for t in range(strand - 1, base + m - 1, -1)]
    C = BraidWord(k, slide)
    T = _adjacent_full_twist(base, len(indices), k)
    if opposite:
        return C ** -1 * T * C
    return C * T * C ** -1


def direct_product_with_Z(P):
    """P x Z: one new central generator z commuting with every old one."""
    if "z" in P.generators:
        raise ValueError("generator name 'z' already in use")
    z = len(P.generators)
    relators = list(P.relators)
    for i in range(len(P.generators)):
        relators.append(commutator(Word.generator(z), Word.generator(i)))
    return Presentation(tuple(P.generators) + ("z",), relators)


def free_product(P, Q):
    """P * Q: the generators and relators of P, then those of Q, its
    generators numbered after P's and renamed with a trailing _2."""
    l = P.num_generators
    return Presentation(
        tuple(P.generators) + tuple(f"{name}_2" for name in Q.generators),
        list(P.relators) + [Word([(g + l, e) for g, e in r.syllables])
                            for r in Q.relators])


def monodromy_presentation(phis):
    """Quotient of F_k by the relations phi_j(x_i) = x_i: the standard
    complement presentation from braid monodromy generators."""
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one automorphism")
    k = phis[0].rank
    if any(phi.rank != k for phi in phis):
        raise ValueError("all automorphisms must share a rank")
    names = [f"x{i}" for i in range(1, k + 1)]
    relators = []
    for phi in phis:
        for i in range(k):
            rel = phi.images[i] * Word.generator(i) ** -1
            if not rel.is_identity():
                relators.append(rel)
    return Presentation(names, relators)


def pure_braid_presentation(k):
    """The pure braid group on k strands, presented iteratively: forgetting
    the last strand splits off a free group, with the smaller pure braid
    group acting through the Artin representation.

    Generators are the band generators, ordered (1,2), (1,3), (2,3),
    (1,4), ...; each earlier generator conjugates the A_{m,t}, with
    g^-1 x g = artin(g)(x) (the side is pinned by the golden values of
    this group's characteristic varieties, like every convention here).
    """
    if k < 2:
        raise ValueError("need at least two strands")
    names = []
    pair_index = {}
    for t in range(2, k + 1):
        for m in range(1, t):
            pair_index[(m, t)] = len(names)
            names.append(f"a{m}{t}")
    relators = []
    for t in range(3, k + 1):
        # the earlier generators, as braids on t-1 strands, act on the
        # free group generated by the pairs (m, t)
        for (i, j), g_idx in sorted(pair_index.items(),
                                    key=lambda kv: (kv[0][1], kv[0][0])):
            if j >= t:
                continue
            phi = artin_action(pure_generator(i, j, t - 1))
            g = Word.generator(g_idx)
            for m in range(1, t):
                x = Word.generator(pair_index[(m, t)])
                image = phi.images[m - 1].substitute(
                    [Word.generator(pair_index[(r + 1, t)])
                     for r in range(t - 1)])
                rel = g.inverse() * x * g * image.inverse()
                if not rel.is_identity():
                    relators.append(rel)
    return Presentation(names, relators)


# the braid monodromy data of the two named line arrangements
NON_FANO_STRANDS = 6
DELETED_B3_STRANDS = 4


def non_fano_group(*, opposite=False):
    """The non-Fano arrangement group: the monodromy presentation of its
    braid monodromy generators, times Z; opposite conjugates the full
    twists on the rejected side."""
    A = pure_generator
    conj = conjugate_braid
    k = NON_FANO_STRANDS

    def F(indices):
        return full_twist(indices, k, opposite=opposite)

    braids = [
        F([3, 4, 5]),
        conj(F([1, 2, 5]), A(3, 5, k) * A(4, 5, k)),
        conj(A(1, 4, k), A(3, 4, k)),
        F([1, 3, 6]),
        conj(F([2, 4, 6]), A(3, 4, k) * A(3, 6, k)),
    ]
    phis = [artin_action(b) for b in braids]
    return direct_product_with_Z(monodromy_presentation(phis))


def deleted_b3_group():
    """The deleted B3 arrangement group: F_4 extended by its three braid
    monodromy generators, times Z."""
    A = pure_generator
    conj = conjugate_braid
    k = DELETED_B3_STRANDS
    braids = [
        A(2, 3, k),
        conj(A(1, 3, k), A(2, 3, k)) * A(2, 4, k),
        conj(A(1, 4, k), A(2, 4, k)),
    ]
    phis = [artin_action(b) for b in braids]
    return direct_product_with_Z(semidirect_presentation(phis))


def build_fixture(name):
    """A named arrangement-group presentation built from braid data."""
    if name == "braid_arrangement":
        return pure_braid_presentation(4)
    if name == "non_fano":
        return non_fano_group()
    if name == "deleted_b3":
        return deleted_b3_group()
    if name.startswith("horizontal:"):
        tau = [int(c) for c in name.split(":", 1)[1]]
        xi = xi_from_permutation(tau)
        return semidirect_presentation([artin_action(xi ** 2)])
    raise ValueError(f"unknown fixture {name!r}")


FROZEN_FIXTURES = ("braid_arrangement", "non_fano", "deleted_b3",
                   "horizontal:123", "horizontal:1234", "horizontal:2134",
                   "horizontal:12345", "horizontal:21345",
                   "horizontal:21435", "horizontal:31425",
                   "horizontal:123456")
