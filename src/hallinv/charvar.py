"""Torsion characters, depth, and Betti numbers of finite covers.

A character is a point of Hom(G, K*), recorded by its exponent vector e
on the chi coordinates of H_1(G): coordinate c takes the value
zeta_N^(e_c).  Its depth is corank(A^t) - 1, where A^t is the Alexander
matrix evaluated at t; for a nontrivial character this is the
largest d with t on the d-th determinantal stratum, and for a normal
subgroup K with cyclic quotient the mod-q Betti number of K is recovered
by summing depths of the powers of the defining character.

Depth is constant on Galois orbits of characters (Frobenius orbits when
q > 0), and every character walk goes through one rule, _galois_orbits.
It streams the cyclic subgroups, each built at its least generator with
its orbits given as cosets of multipliers, and carries the generator's
form exponents (see DepthEngine) from one subgroup to the next through a
linear map each caller supplies; one representative per orbit is
ranked, weighted by the orbit's size, and no list of characters is kept.
When q does not generate (Z/p)^*, an index-p subgroup's p - 1 characters
may differ in depth; there is then no Betti distribution, while the Hall
invariants, which sum over characters, are still defined.  The
all-points path (check_orbits) verifies that depth is constant on each
orbit.

Depth is a rank, and DepthEngine is the one evaluator of the Alexander
matrix: it compiles the matrix once into integer coefficients and linear
forms on e, and ranks it at a character's form exponents over finite
fields.  In characteristic q > 0 the one field is F_{q^s}: at most 2^16
elements by Zech-logarithm elimination (_rank_codes), a larger one by the
integer elimination of characteristic 0 (_rank_mod) on its elements
packed into integers (_Packed).  In characteristic 0 the rank over
Q(zeta_N) is the largest rank mod the split primes ell = 1 (mod N),
counted down from 2^30 (and, past the primes below 2^30, up from it),
each reached by a ring map Z[zeta_N] -> F_ell, which can only lower
rank, and taken by integer elimination (_rank_mod).  That lower bound r
is exact once it meets the ceiling Fox's fundamental identity puts on a
nontrivial character, or once the product of the primes tried outgrows a
Hadamard bound on the norm of every minor of size r + 1 (see DepthEngine
for the argument); a generic character needs one prime.  No arithmetic
in Q or Q(zeta_N) is ever done.  The two eliminations keep one contract
and stream the rows: a row is evaluated only when the elimination
reaches it, reduced against the echelon basis of the rows kept so far,
and the elimination stops at the ceiling.  The rows that
were pivots when a character last reached the ceiling come first, so a
generic character is usually certified on the l - 1 rows it builds, and
one that misses on them goes on from the basis it has.

A Group holds what several invariants of one presentation share: the
abelianization, the Alexander matrix, its depth engines and the
character depths already asked for.  Callers that combine invariants
make one Group per request.  With --jobs, a walk is cut into contiguous
blocks of subgroups, one per process: the caller ranks the first, and
forked children, which inherit the engine, rank the others.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property
from itertools import accumulate, count, islice
from math import gcd, isqrt, lcm, prod

from .errors import InvariantViolation
from .fields import (_LOG_TABLE_LIMIT, euler_phi, is_prime, log_tables,
                     multiplicative_order, prime_field,
                     primitive_root_of_unity, sufficiently_large_field)
from .foxcalc import abelianization, alexander_matrix
from .linalg import smith_normal_form


class DepthEngine:
    """Depth of the characters of order dividing N over a field of
    characteristic q, by ranks over finite fields.

    The Alexander matrix is compiled once: each Laurent term becomes an
    integer coefficient plus the linear form its exponents induce on the
    chi coordinates, each distinct form kept once.  A character is a
    coordinate exponent vector e, its value on coordinate c being
    zeta_N^{e_c}, so every entry of the evaluated matrix is a sum of
    coefficient * zeta^(form . e mod N) in Z[zeta_N].  The exponents
    form . e are taken once per character and serve every field it is
    ranked over: from one column of form weights per coordinate
    (_exponents), or carried along a character walk, which passes them as
    depth_of_exponents(forms=...).

    Each coefficient c has a table t, filled as exponents x are met, with
    t[x] the value of c * zeta^x that its kernel reads, and an entry sums
    t[x] over its terms (_reduction).  The engine picks its rank kernel
    once, by its mode, and every kernel keeps one contract: it takes
    (rows, n, order, exps, head, ceiling), builds a row only when the
    elimination reaches it, reduces it against an echelon basis, and
    stops once the rank reaches the ceiling below.

    For q > 0 the one field is K = F_{q^s}, and its rank is the answer: at
    most 2^16 elements (_LOG_TABLE_LIMIT) by elimination on Zech logs, an
    entry summed as packed base-q digits and turned into its log by
    _Reducer (_rank_codes, mode "zech"), a larger K by _rank_mod on the
    packed digits themselves, each entry and row update reduced by K's
    _Packed when read (mode "element").

    For q = 0 (mode "modular") the fields are the primes ell = 1 (mod N),
    those below 2^30 counted down from 2^30, then, if a character needs
    more, those above it counted up (_split_prime), with zeta_N sent to a
    primitive N-th root of unity mod ell; each is ranked by integer
    elimination mod ell (_rank_mod), which takes an entry mod ell only
    when it reads it.  N must be below 2^29: past it at most one number
    = 1 (mod N) lies below 2^30.  A prime is found when a character first
    needs it, and kept for the process; its tables take each power of
    zeta by pow when first met, since N can reach 2^29.  This is a ring
    map Z[zeta_N] -> F_ell, so no rank mod ell exceeds the rank over
    Q(zeta_N), and the largest rank r seen is a lower bound.  It is the
    rank once either

    * it reaches a ceiling the rank cannot pass: min(m, l) for m relators
      and l generators, or l - 1 for a nontrivial character, whose vector
      (chi(x_j) - 1)_j is nonzero and killed by the matrix (Fox's
      fundamental identity); or
    * the primes tried have product P with P^2 > B2^phi(N), B2 the
      Hadamard bound on |sigma(D)|^2 for every minor D of size r + 1 and
      every complex embedding sigma (_hadamard_bound).  The rank exceeds r
      only if some such D is nonzero.  But D maps to 0 in every F_ell
      tried, so it lies in the kernels of those maps, distinct prime ideals
      of norm ell; P then divides the norm N(D), while
      |N(D)| <= B2^(phi(N)/2) < P, so D = 0.

    Row order: the kernels take the rows in one order, the pivot rows of
    the last rank that reached the ceiling first, rebuilt only when those
    pivots change; any order gives the same rank.  Nearly every character
    is generic (rank l - 1), and its rank then builds and eliminates the
    l - 1 pivot rows instead of m; one on which they fall short goes on to
    the next rows with the basis it has.
    """

    def __init__(self, A, N, q):
        if not q and N >= 1 << 29:
            raise ValueError(f"characters of order N = {N}: at q = 0 N "
                             f"must be below 2^29")
        self.N = N
        self.q = q
        self.num_generators = A.num_generators
        forms = {}
        self.rows = [[[(coeff, forms.setdefault(key, len(forms)))
                       for key, coeff in entry.items()]
                      for entry in row] for row in A.entries]
        self.num_forms = len(forms)
        # coordinate c's column of form weights mod N (see _exponents)
        self.columns = [(c, [w % N for w in column])
                        for c, column in enumerate(zip(*forms)) if any(column)]
        self.ceiling = min(len(self.rows), self.num_generators)
        if q:
            self.field = sufficiently_large_field(N, q)
            if self.field.order() <= _LOG_TABLE_LIMIT:
                self.mode, self.kernel = "zech", _rank_codes
            else:
                self.mode, self.kernel = "element", _rank_mod
        else:
            self.field = None
            self.mode, self.kernel = "modular", _rank_mod
            self.phi = euler_phi(N)
            self.roots = {}  # k -> isqrt(B2^phi(N)) for the minors of size k
        self.reductions = []
        self.pivots = None  # rows that last reached the ceiling
        self.order = list(range(len(self.rows)))  # pivots first

    def depth_of_exponents(self, *, forms):
        """Depth of the nontrivial character whose form exponents
        (_exponents) a character walk carries as forms."""
        return self.num_generators - self._certified_rank(
            forms, min(self.ceiling, self.num_generators - 1)) - 1

    def _certified_rank(self, exps, ceiling):
        """Rank at the form exponents exps: the largest rank over the
        fields in order, each taken on the rows in the engine's order,
        until one reaches the ceiling the true rank cannot pass or (q = 0)
        the norm bound certifies the largest rank seen.  A rank that
        reaches the ceiling puts the rows that raised it first in the
        order."""
        rank, tried = 0, 1
        for i in count():
            head, rows = self._reduction(i)
            r, pivots = self.kernel(rows, self.num_generators, self.order,
                                    exps, head, ceiling)
            rank = max(rank, r)
            if rank >= ceiling:
                if pivots != self.pivots:
                    self.pivots = pivots
                    self.order = pivots + [k for k in range(len(self.rows))
                                           if k not in pivots]
                return rank
            if self.q:
                return rank
            tried *= head  # ell
            if tried > self._root(rank + 1):  # tried^2 > B2^phi(N)
                return rank

    def _root(self, k):
        """isqrt(B2^phi(N)) for the minors of size k (_hadamard_bound)."""
        if k not in self.roots:
            self.roots[k] = isqrt(_hadamard_bound(self.rows, k) ** self.phi)
        return self.roots[k]

    def _exponents(self, e):
        """form . e mod N for every form: zeta^(form . e) as its exponent,
        summed as e_c times coordinate c's column of weights."""
        N = self.N
        sums = [0] * self.num_forms
        for c, column in self.columns:
            a = e[c] % N
            if a:
                sums = [s + a * w for s, w in zip(sums, column)]
        return [s % N for s in sums]

    def _reduction(self, i):
        """The i-th field, reduced, as (head, rows), head by mode: "modular",
        ell; "zech", the field's _Reducer; "element", its _Packed.  A row
        lists its nonzero entries as (column, terms), each term (table,
        form) worth table[x] at form exponent x: its coefficient times
        zeta^x as an integer mod ell, or packed (_pack); terms that vanish
        in the field are dropped.  Built when first needed, the fields
        taken in order."""
        if i == len(self.reductions):
            N = self.N
            if self.mode == "modular":
                ell, zeta = _split_prime(N, i)
                head = modulus = ell

                def value(c):
                    return lambda x: c * pow(zeta, x, ell) % ell
            else:
                K, modulus = self.field, self.field.char
                widest = max((sum(1 for c, _ in entry if c % modulus)
                              for row in self.rows for entry in row),
                             default=0)
                if self.mode == "element":
                    head = _Packed(K, widest, self.num_generators)
                    zeta, w = primitive_root_of_unity(K, N), head.width

                    def value(c):
                        return lambda x: _pack(K.mul(c, K.power(zeta, x)),
                                               modulus, w)
                else:
                    lt = log_tables(K)
                    if lt.n % N:
                        raise InvariantViolation(
                            f"{K!r} has no primitive {N}-th root of unity")
                    head = _Reducer(lt, modulus, K.degree, widest)
                    step, w = lt.n // N, head.width  # zeta = g^step

                    def value(c):
                        c = lt.log[c]
                        return lambda x: _pack(lt.codes[(c + step * x)
                                                        % lt.n], modulus, w)
            # one table per coefficient mod the characteristic
            tables = _Table(lambda c: _Table(value(c)))
            rows = []
            for row in self.rows:
                rows.append([])
                for j, entry in enumerate(row):
                    terms = [(tables[c % modulus], form)
                             for c, form in entry if c % modulus]
                    if terms:
                        rows[-1].append((j, terms))
            self.reductions.append((head, rows))
        return self.reductions[i]


def _hadamard_bound(rows, k):
    """An integer B2 >= |det D|^2 for every square submatrix D, of at most
    k rows, of any complex embedding of the compiled matrix: each entry is
    bounded by the sum of its |coefficients|, and B2 is the product of the
    k largest squared row norms, or of the k largest squared column norms
    if that is smaller, each norm taken as at least 1."""
    sizes = [[sum(abs(c) for c, _ in terms) ** 2 for terms in row]
             for row in rows]
    return min(prod(max(v, 1) for v in sorted(norms, reverse=True)[:k])
               for norms in ([sum(r) for r in sizes],
                             [sum(c) for c in zip(*sizes)]))


_PRIME_LIMIT = 1 << 30
_SPLIT_PRIMES = {}  # N -> ((ell, zeta) found so far, in order; candidates)


class _Table(dict):
    """value(x) by x, each taken when first asked for, so that the table
    holds only the exponents met, whatever N is."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value

    def __missing__(self, x):
        self[x] = v = self.value(x)
        return v


class _Reducer(dict):
    """The Zech log of an entry of F_{q^s} summed as packed integers.

    An element is packed as its base-q digits (its coefficients), digit i
    in the slot of bits [w i, w (i + 1)), so that adding packed elements
    adds their digits slot by slot.  An entry of at most `terms` terms
    sums to digits d <= D = terms (q - 1) < 2^k, k = bits(D), which no
    slot carries out of.  Its digits mod q are taken in every slot at once:
    floor(d / q) = floor(d R / 2^m) for R = ceil(2^m / q) and m = k +
    bits(q), since d (R q - 2^m) < 2^k q <= 2^m (Granlund and Montgomery,
    "Division by invariant integers using multiplication", 1994), and the
    slot, w = bits(D R), holds every d R.  Indexed by a sum so reduced,
    whose digits are < q, the reducer gives the element's Zech log
    (LogTables), each found when first asked for: at most q^s of them."""

    __slots__ = ("tables", "q", "degree", "width", "factor", "shift",
                 "mask")

    def __init__(self, lt, q, degree, terms):
        super().__init__()
        self.tables = lt
        self.q = q
        self.degree = degree
        top = max(terms, 1) * (q - 1)
        self.shift = top.bit_length() + q.bit_length()
        self.factor = -(-(1 << self.shift) // q)
        self.width = (top * self.factor).bit_length()
        # the quotient's bits in every slot
        self.mask = sum(((1 << (self.width - self.shift)) - 1)
                        << (self.width * i) for i in range(degree))

    def __missing__(self, r):
        q, w = self.q, self.width
        digits = [r >> (w * i) & ((1 << w) - 1) for i in range(self.degree)]
        if r >> (w * self.degree) or max(digits) >= q:
            raise InvariantViolation(
                f"a packed entry reduced to digits {digits}, not all below "
                f"q = {q}")
        code = sum(d * q ** i for i, d in enumerate(digits))
        self[r] = log = self.tables.log[code]
        return log


def _pack(code, q, width):
    """The element of F_{q^s} with this code, packed: its base-q digit i
    in the slot of bits [width i, width (i + 1))."""
    out, i = 0, 0
    while code:
        code, d = divmod(code, q)
        out |= d << i
        i += width
    return out


class _Packed:
    """F_{q^s} past the Zech tables as the head _rank_mod ranks over: its
    entries are packed elements (_pack), and x % head is the packed
    element x stands for.

    With one digit a slot, plain integer + and * add and multiply the
    polynomials the slots hold while no slot overflows (Kronecker
    substitution; von zur Gathen and Gerhard, Modern Computer Algebra,
    8.4).  _rank_mod reduces an entry when it reads it: by then a sum of
    at most `terms` packed elements plus one product of reduced elements,
    at most s (q - 1)^2 a slot, for each of its fewer than `rows` basis
    rows.  Slots of bits(terms (q - 1) + rows s (q - 1)^2) bits hold that,
    in at most 2s - 1 of them; x % head unpacks them, folds those from s
    upward into the lower ones by the modulus tail (x^s is the tail's
    sum), takes each digit mod q and repacks."""

    __slots__ = ("field", "width", "mask")

    def __init__(self, K, terms, rows):
        self.field = K
        self.width = (terms * (K.char - 1)
                      + rows * K.degree * (K.char - 1) ** 2).bit_length()
        self.mask = (1 << self.width) - 1

    def __rmod__(self, r):
        K, w, mask = self.field, self.width, self.mask
        q, s = K.char, K.degree
        digits = [r >> i & mask for i in range(0, r.bit_length(), w)]
        if len(digits) >= 2 * s:
            raise InvariantViolation(f"a packed value of {len(digits)} "
                                     f"slots, past 2s - 1 in {K!r}")
        for k in range(len(digits) - 1, s - 1, -1):
            c = digits[k] % q
            if c:
                for j, t in K._tail:
                    digits[k - s + j] += c * t
        out = 0
        for d in reversed(digits[:s]):
            out = out << w | d % q
        return out

    def minus_inverse(self, c):
        """-1/c, packed, for a reduced nonzero packed c, by K's inv."""
        K, w = self.field, self.width
        code = K._code([-(c >> i & self.mask) % K.char
                        for i in range(0, c.bit_length(), w)])  # -c
        return _pack(K.inv(code), K.char, w)


def _split_candidates(N):
    """The numbers ell = 1 (mod N) above N: those below 2^30 counting
    down from 2^30, then those above it counting up."""
    top = (_PRIME_LIMIT - 2) // N * N + 1
    yield from range(top, N, -N)
    yield from count(top + N, N)


def _split_prime(N, i):
    """The i-th prime of _split_candidates(N), with zeta the primitive
    N-th root of unity that fields.primitive_root_of_unity picks in F_ell.
    Found when first asked for and kept for the process.  Past the primes
    below 2^30 residues take two CPython digits: slower, still exact."""
    found, candidates = _SPLIT_PRIMES.setdefault(
        N, ([], _split_candidates(N)))
    while len(found) <= i:
        ell = next(ell for ell in candidates if is_prime(ell))
        found.append((ell, primitive_root_of_unity(prime_field(ell), N)))
    return found[i]


def _rank_codes(rows, n, order, exps, logs, ceiling):
    """Rank over F_{q^s} of the reduced rows (DepthEngine._reduction), of
    n columns, at the form exponents exps, and the numbers of the rows
    that raised it.  The rows are taken in order, each built when reached:
    an entry sums its terms as packed integers and logs, the field's
    _Reducer, gives its Zech log.  The row is then reduced, through the
    Zech table, by each basis row in turn, clearing that row's pivot
    column, and joins the basis if anything is left; the rank stops at the
    ceiling.  A basis row is zero at the pivot columns of those before it,
    so clearing a column never refills one cleared earlier."""
    lt = logs.tables
    zech, size, minus_one = lt.zech, lt.n, lt.minus_one
    q, factor, shift, mask = logs.q, logs.factor, logs.shift, logs.mask
    rank, pivots = 0, []
    basis = []  # (pivot column, its log, the later nonzero (column, log))
    for k in order:
        if rank >= ceiling:
            break
        row = [-1] * n
        for j, entry in rows[k]:
            a = 0
            for t, f in entry:
                a += t[exps[f]]
            row[j] = logs[a - q * (a * factor >> shift & mask)]
        for col, pval, terms in basis:
            c = row[col]
            if c != -1:
                # row -= (c / pval) * pivot row, in logs: add b + scale
                # to row[j] through the Zech table; column col becomes 0
                scale = (c - pval + minus_one) % size
                row[col] = -1
                for j, b in terms:
                    b = (b + scale) % size
                    a = row[j]
                    if a == -1:
                        row[j] = b
                    else:  # a, b < size: a negative a - b counts from the end
                        d = zech[a - b]
                        row[j] = -1 if d == -1 else (b + d) % size
        for col in range(n):
            c = row[col]
            if c != -1:
                pivots.append(k)
                rank += 1
                if rank < ceiling:
                    terms = []
                    for j in range(col + 1, n):
                        b = row[j]
                        if b != -1:
                            terms.append((j, b))
                    basis.append((col, c, terms))
                break
    return rank, pivots


def _rank_mod(rows, n, order, exps, ell, ceiling):
    """Rank mod the prime ell of the reduced rows (DepthEngine._reduction),
    of n columns, at the form exponents exps, and the numbers of the rows
    that raised it.  The rows are taken in order, each built when reached,
    its entries summed as plain integers; the row is reduced by each basis
    row in turn, as _rank_codes does, each entry taken mod ell only when
    it is read, and joins the basis if anything is left; the rank stops at
    the ceiling.  ell may also be a _Packed field, its entries packed
    elements: x % ell then reduces x in that field, and only the pivot's
    inverse asks it by name."""
    rank, pivots = 0, []
    basis = []  # (pivot column, -1/pivot, the later nonzero (column, entry))
    for k in order:
        if rank >= ceiling:
            break
        row = [0] * n
        for j, entry in rows[k]:
            a = 0
            for t, f in entry:
                a += t[exps[f]]
            row[j] = a
        for col, inverse, terms in basis:
            c = row[col] % ell
            if c:
                # row -= (c / pivot) * pivot row; column col becomes 0
                scale = c * inverse % ell
                row[col] = 0
                for j, b in terms:
                    row[j] += scale * b
        for col in range(n):
            c = row[col] % ell
            if c:
                pivots.append(k)
                rank += 1
                if rank < ceiling:
                    terms = []
                    for j in range(col + 1, n):
                        b = row[j] % ell
                        if b:
                            terms.append((j, b))
                    inverse = ell - pow(c, -1, ell) if type(ell) is int \
                        else ell.minus_inverse(c)
                    basis.append((col, inverse, terms))
                break
    return rank, pivots


def coordinate_exponents_from_generators(abel, N, gen_exps):
    """chi-coordinate exponents of the character with value zeta^gen_exps[j]
    on generator j, asserting the values factor through H_1."""
    coord_exps = tuple(sum(w * e for w, e in zip(row, gen_exps)) % N
                       for row in abel.coordinate_rows)
    for image, e in zip(abel.images, gen_exps):
        if (sum(a * b for a, b in zip(image, coord_exps)) - e) % N:
            raise ValueError("generator values do not factor through H_1")
    return coord_exps


def _character_moduli(abel, k):
    """The characters of order dividing k as Z_{m_1} + ... + Z_{m_c}, one
    summand per chi coordinate: the vector v is the character with
    coordinate exponents (k / m_i) v_i mod k.  For a prime k every m_i is
    k or 1, so v is its own coordinate exponent vector."""
    return [gcd(k, e) for e in abel.torsion] + [k] * abel.free_rank


def _unit_cosets(k, q):
    """The cosets of <q mod k> in (Z/k)^*, or all of (Z/k)^* at q = 0, in
    order of their least elements, each listed as j, jq, jq^2, ... from its
    least element j."""
    units = [j for j in range(1, k) if gcd(j, k) == 1]
    if not q:
        return [units]
    s, q = multiplicative_order(q, k), q % k
    cosets = [list(accumulate(range(s - 1), lambda x, _: x * q % k,
                              initial=j)) for j in units]
    return [coset for coset in cosets if min(coset) == coset[0]]


def _coordinate_columns(engine, moduli):
    """The walk's linear map for the characters of order dividing
    engine.N as _character_moduli: basis vector i has exponent N / m_i on
    chi coordinate i, and its column is that character's form exponents."""
    N = engine.N
    return [engine._exponents([N // m if c == i else 0
                               for c in range(len(moduli))])
            for i, m in enumerate(moduli)]


def _galois_orbits(moduli, q, columns=None, N=1):
    """Each nontrivial cyclic subgroup of Z_{m_1} + ... + Z_{m_r}, as its
    generators split into Galois orbits.

    The vectors are characters with values in a field of characteristic
    q.  Its Galois group fixes the Alexander matrix and so depth: for
    q > 0 it is generated by Frobenius, rho -> rho^q, and at q = 0 it holds
    every rho -> rho^j, j prime to the order of rho.  So the generators of
    a subgroup of order k split into the orbits of <q mod k> <= (Z/k)^*,
    or form one orbit at q = 0.

    Each subgroup is built at its least generator v, in increasing order.
    v's first nonzero coordinate i holds a divisor d < m_i of m_i, the
    least generator of the subgroup that coordinate i spans, and the later
    coordinates take every value, the last fastest.  If d has order m_i / d
    equal to the order k of v, v is least: only j = 1 keeps d at i.
    Otherwise v is kept when no j = 1 (mod m_i / d) makes j v smaller; at
    a prime order that never happens.  At its end the walk checks that the
    subgroups' generators number the nonzero vectors.

    columns[i] is the form exponents mod N of basis vector i under a
    linear map (none by default).  The exponents of v are carried along,
    one list pass per vector, and those of j v are j times them.  Each
    subgroup is yielded as its orbits (rep, exps, coset), the first headed
    by v: the multipliers j, jq, jq^2, ... in coset take v to the orbit's
    members, rep = coset[0] v, and exps are rep's form exponents.
    """
    r = len(moduli)
    columns = columns or [[]] * r
    cosets, covered = {}, 0
    for i in reversed(range(r)):
        m = moduli[i]
        tail = [t for t in range(i + 1, r) if moduli[t] > 1]
        # steps[t]: the exponents' change as the odometer moves digit t up
        # by one and every later digit back from m - 1 to 0
        steps, back = {}, [0] * len(columns[i])
        for t in reversed(tail):
            steps[t] = [(a - b) % N for a, b in zip(columns[t], back)]
            back = [(b + (moduli[t] - 1) * a) % N
                    for a, b in zip(columns[t], back)]
        for d in (d for d in range(1, m) if m % d == 0):
            head = m // d
            fixed = all(head % moduli[t] == 0 for t in tail)
            v = [0] * r
            v[i] = d
            exps = [d * a % N for a in columns[i]]
            while True:
                k = head if fixed else lcm(head, *(
                    moduli[t] // gcd(v[t], moduli[t]) for t in tail))
                if k == head or all(
                        [j * e % n for e, n in zip(v, moduli)] >= v
                        for j in range(head + 1, k, head) if gcd(j, k) == 1):
                    if k not in cosets:
                        cosets[k] = _unit_cosets(k, q)
                    first, *rest = cosets[k]
                    covered += len(first) + sum(map(len, rest))
                    yield [(tuple(v), exps, first)] + [
                        (tuple(c[0] * e % n for e, n in zip(v, moduli)),
                         [c[0] * a % N for a in exps], c) for c in rest]
                for t in reversed(tail):
                    if v[t] + 1 < moduli[t]:
                        v[t] += 1
                        exps = [(a + b) % N for a, b in zip(exps, steps[t])]
                        break
                    v[t] = 0
                else:
                    break
    if covered != prod(moduli) - 1:
        raise InvariantViolation(
            f"the walk of Z_{moduli} met {covered} generators, not the "
            f"{prod(moduli) - 1} nonzero vectors")


class BettiDistribution:
    """The finite map d -> number of index-p normal subgroups whose mod-q
    first Betti number exceeds the base group's by (p-1)d.  It exists when
    every such subgroup has all its order-p characters of one depth d;
    see Group.depths."""

    __slots__ = ("p", "q", "n_p", "counts")

    def __init__(self, p, q, n_p, counts):
        self.p = p
        self.q = q
        self.n_p = n_p
        self.counts = {d: c for d, c in sorted(counts.items()) if c}
        total = (p ** n_p - 1) // (p - 1)
        if sum(self.counts.values()) != total or \
                any(c < 0 for c in self.counts.values()):
            raise InvariantViolation(
                f"beta counts {self.counts} do not total (p^n-1)/(p-1) = {total}")

    def __getitem__(self, d):
        return self.counts.get(d, 0)

    def positive_part(self):
        """(beta_{p,1}, ..., beta_{p,k}) up to the last nonzero entry."""
        top = max((d for d in self.counts if d >= 1), default=0)
        return tuple(self.counts.get(d, 0) for d in range(1, top + 1))

    def total(self):
        return sum(self.counts.values())

    def __eq__(self, other):
        return (isinstance(other, BettiDistribution) and other.p == self.p
                and other.q == self.q and other.counts == self.counts)

    def __repr__(self):
        return f"beta_{self.p}^({self.q}) = {self.positive_part()}"


def _depth_tally(engine, walk, check_orbits, start=0, stop=None):
    """(characters, counts) over the subgroups start, ..., stop - 1 of
    _galois_orbits(*walk, engine.N), or from start to the walk's end when
    stop is None: characters counts the characters of each depth, and
    counts the subgroups all of whose characters have one depth, or is
    None once a subgroup has two.  Each orbit's representative is ranked,
    or with check_orbits each member, verifying that depth is constant on
    it.  The subgroups before start are walked unranked; only a tally run
    to the walk's end (stop None) meets the walk's closing check that the
    subgroups cover every nonzero vector."""
    N = engine.N
    depth = engine.depth_of_exponents
    characters, counts = Counter(), Counter()
    for orbits in islice(_galois_orbits(*walk, N), start, stop):
        subgroup_depths = set()
        _, v_exps, _ = orbits[0]
        for rep, exps, coset in orbits:
            found = ({depth(forms=[j * a % N for a in v_exps]) for j in coset}
                     if check_orbits else {depth(forms=exps)})
            if len(found) != 1:
                raise InvariantViolation(f"depth not constant on the Galois "
                                         f"orbit of {rep}: {found}")
            (d,) = found
            characters[d] += len(coset)
            subgroup_depths.add(d)
        if len(subgroup_depths) > 1:
            counts = None
        elif counts is not None:
            counts[subgroup_depths.pop()] += 1
    return characters, counts


# Walks of at most this many ranks stay in the caller: timed in-process
# at --jobs 1 and 2 on every walk of the queries request set (2 CPUs,
# contiguous shares, streamed rank kernels), --jobs 2 lost at every size
# up to 121, was mixed from 127 to 728 and won from 1093 on; whole
# requests forking past 255 and past 727 could not be told apart.
_FORK_CUTOVER = 255


def _cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tally_share(engine, walk, check_orbits, start, stop):
    """(True, _depth_tally of one share), or (False, the exception)."""
    try:
        return True, _depth_tally(engine, walk, check_orbits, start, stop)
    except Exception as e:
        return False, e


def _parallel_depth_tally(engine, walk, check_orbits, jobs, subgroups):
    """_depth_tally spread over jobs shares of the walk's subgroups: share
    i ranks the contiguous block [n i / jobs, n (i + 1) / jobs) of the
    n = subgroups, so that consecutive ranks stay neighbours and keep the
    engine's remembered pivot rows, and the last share runs the walk to
    its end and its closing check.  The caller ranks share 0 while
    jobs - 1 forked children, which inherit the engine instead of
    building their own, each rank one other share and pipe back only its
    pickled tallies (the library starts no threads, so a fork copies a
    consistent state).  Every child is reaped before this returns or
    raises; if shares fail, the lowest share's exception is raised."""
    import pickle  # imported here to spare non-forking runs 0.3 MB

    bounds = [subgroups * i // jobs for i in range(jobs)] + [None]
    pids, pipes = [], []
    try:
        for i in range(1, jobs):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child_share(w, engine, walk, check_orbits,
                                 bounds[i], bounds[i + 1])
            finally:
                os.close(w)
            pids.append(pid)
        shares = [_tally_share(engine, walk, check_orbits, 0, bounds[1])]
        for pipe in pipes:
            data = pipe.read()
            shares.append(pickle.loads(data) if data else (False, RuntimeError(
                "a --jobs child exited without sending its tallies")))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    characters, counts = Counter(), Counter()
    for ok, result in shares:
        if not ok:
            raise result
        part, part_counts = result
        characters += part
        counts = None if None in (counts, part_counts) else \
            counts + part_counts
    return characters, counts


def _child_share(fd, engine, walk, check_orbits, start, stop):
    """In a forked child: write one share's pickled _tally_share to fd,
    then exit without returning to the caller's frames."""
    import pickle

    code = 1
    try:
        data = pickle.dumps(_tally_share(engine, walk, check_orbits,
                                         start, stop))
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _order_p_depths(G, p, q, *, check_orbits=False):
    """Depths of the order-p characters over a field of characteristic q,
    as (characters, beta): characters maps d to the number of characters
    of depth d, and beta is the BettiDistribution, or None when some
    index-p subgroup has characters of two depths (possible only when q
    has order less than p - 1 mod p).

    Each subgroup is tallied as the walk produces it, one character per
    Galois orbit ranked; check_orbits ranks every character instead and
    verifies that depth is constant on each orbit.
    """
    if q == p:
        raise ValueError("q must differ from p")
    engine, abel = G.engine(p, q), G.abel
    moduli = _character_moduli(abel, p)
    walk = moduli, q, _coordinate_columns(engine, moduli)
    subgroups = (prod(moduli) - 1) // (p - 1)
    ranks = subgroups * (p - 1 if check_orbits else len(_unit_cosets(p, q)))
    jobs = min(G.jobs, _cpu_count(), subgroups)
    if jobs > 1 and ranks > _FORK_CUTOVER:
        characters, counts = _parallel_depth_tally(engine, walk,
                                                   check_orbits, jobs,
                                                   subgroups)
    else:
        characters, counts = _depth_tally(engine, walk, check_orbits)
    beta = None if counts is None else \
        BettiDistribution(p, q, abel.b1(p), counts)
    return dict(sorted(characters.items())), beta


def beta_distribution(P, p, q, *, check_orbits=False, A=None, jobs=1):
    """Distribution of mod-q Betti jumps over index-p normal subgroups
    (Group.beta).  check_orbits evaluates every order-p character and
    verifies that depth is constant on each Galois orbit; A= evaluates in
    the chi basis of that Alexander matrix of P, and the counts do not
    depend on the basis."""
    return Group(P, A=A, jobs=jobs).beta(p, q, check_orbits=check_orbits)


class Group:
    """One presentation's shared invariants, each computed at most once:
    H_1 (one Smith normal form, shared with the Alexander matrix, and
    holding the augmentation Jacobian), the Alexander matrix, the depth
    engines by (N, q), and the order-p character depths already asked
    for, keyed on (p, q).  jobs only spreads the character walk over
    processes; A= fixes the chi basis, as for beta_distribution."""

    def __init__(self, P, *, A=None, jobs=1):
        self.P = P
        self.jobs = jobs
        self._A = A
        self._depths = {}
        self._engines = {}

    @classmethod
    def of(cls, G, **kwargs):
        """G if it is a Group, else a Group of the presentation G."""
        return G if isinstance(G, cls) else cls(G, **kwargs)

    @cached_property
    def abel(self):
        return abelianization(self.P) if self._A is None else self._A.abel

    @property
    def alexander(self):
        if self._A is None:
            self._A = alexander_matrix(self.P, abel=self.abel)
        return self._A

    def engine(self, N, q):
        """The DepthEngine for the characters of order dividing N over a
        field of characteristic q."""
        if (N, q) not in self._engines:
            self._engines[N, q] = DepthEngine(self.alexander, N, q)
        return self._engines[N, q]

    def depths(self, p, q, *, check_orbits=False):
        """(characters, beta) for the order-p characters, as described at
        _order_p_depths; a check_orbits call always recomputes, on the
        all-points path."""
        found = None if check_orbits else self._depths.get((p, q))
        if found is None:
            found = _order_p_depths(self, p, q, check_orbits=check_orbits)
            self._depths[p, q] = found
        return found

    def beta(self, p, q, *, check_orbits=False):
        """The BettiDistribution at (p, q); a ValueError naming p and q when
        some index-p subgroup has characters of two depths."""
        _, beta = self.depths(p, q, check_orbits=check_orbits)
        if beta is None:
            raise ValueError(
                f"no Betti distribution at p = {p}, q = {q}: some index-{p} "
                f"subgroup has characters of different depths, as q has "
                f"order {multiplicative_order(q, p)} < {p - 1} mod {p}")
        return beta


# ---------------------------------------------------------------------------
# Betti numbers of finite cyclic and abelian covers

def b1_cover_cyclic(G, N, images, q, *, A=None):
    """Mod-q first Betti number of the kernel of the map G -> Z_N sending
    generator j to images[j]: b1_cover_abelian with the one factor Z_N.
    A= evaluates in the chi basis of that Alexander matrix of G."""
    return b1_cover_abelian(Group.of(G, A=A), [N], [images], q)


def _validate_epimorphism_abelian(G, factors, images):
    if not factors or any(c < 1 for c in factors):
        raise ValueError("cyclic factor orders must be positive")
    if len(images) != len(factors):
        raise ValueError("one row of images per cyclic factor required")
    l = G.P.num_generators
    if any(len(row) != l for row in images):
        raise ValueError("one image per generator required")
    for i, c in enumerate(factors):
        for row in G.abel.jacobian:
            if sum(a * b for a, b in zip(row, images[i])) % c:
                raise ValueError("not a homomorphism: a relator has nonzero image")
    # surjectivity: the quotient of sum Z_{c_i} by the generator images
    # must vanish; present it and reduce
    k = len(factors)
    rows = [{i: images[i][j] for i in range(k)} for j in range(l)]
    rows += [{c: factors[c]} for c in range(k)]
    form = smith_normal_form(rows, k)
    if form.coker_free_rank or form.coker_torsion():
        raise ValueError("images do not generate Z_"
                         + " + Z_".join(map(str, factors)))


def b1_cover_abelian(G, factors, images, q):
    """Mod-q first Betti number of the kernel of G -> sum_i Z_{factors[i]},
    generator j mapping to column j of images; G is a presentation or a
    Group.

    It is b1(G) plus the depth of every nontrivial character rho of the
    target pulled back along the map, tallied by _depth_tally over the
    walk of the target's characters.
    """
    G = Group.of(G)
    _validate_epimorphism_abelian(G, factors, images)
    E = lcm(*factors)
    engine = G.engine(E, q)
    abel = G.alexander.abel
    # basis vector i of the target pulls back to generator exponents
    # (E / c_i) images[i]
    columns = [engine._exponents(coordinate_exponents_from_generators(
        abel, E, [E // c * g % E for g in row]))
        for c, row in zip(factors, images)]
    characters, _ = _depth_tally(engine, (factors, q, columns), False)
    return abel.b1(q) + sum(d * c for d, c in characters.items())
