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
elements by Zech-logarithm elimination (_rank_codes), a larger one by
rank_over_field on its elements.  In characteristic 0 the rank over
Q(zeta_N) is the largest rank mod the split primes ell = 1 (mod N),
counted down from 2^30 (and, past the primes below 2^30, up from it),
each reached by a ring map Z[zeta_N] -> F_ell, which can only lower
rank, and taken by integer elimination (_rank_mod).  That lower bound r
is exact once it meets the ceiling Fox's fundamental identity puts on a
nontrivial character, or once the product of the primes tried outgrows a
Hadamard bound on the norm of every minor of size r + 1 (see DepthEngine
for the argument); a generic character needs one prime.  No arithmetic
in Q or Q(zeta_N) is ever done.  The rows that were pivots when a
character last reached the ceiling are ranked first, and only they are
evaluated, so a generic character is usually certified on l - 1 rows.

A Group holds what several invariants of one presentation share: the
abelianization, the Alexander matrix, its depth engines and the
character depths already asked for.  Callers that combine invariants
make one Group per request; its --jobs children fork with the engine.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property
from itertools import accumulate, count, islice
from math import gcd, isqrt, lcm, prod

from .fields import (_LOG_TABLE_LIMIT, euler_phi, factorize, is_prime,
                     log_tables, multiplicative_order,
                     primitive_root_of_unity, sufficiently_large_field)
from .foxcalc import (abelianization, alexander_matrix,
                      augmentation_jacobian)
from .linalg import InvariantViolation, rank_over_field


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
    depth_of_exponents(forms=...).  Every elimination stops once its rank
    reaches the ceiling below.

    For q > 0 the one field is K = F_{q^s}, and its rank is the answer:
    at most 2^16 elements (_LOG_TABLE_LIMIT) by Zech-logarithm elimination
    (_rank_codes, mode "zech"), a larger K by rank_over_field on the
    entries as field elements, summed from K's table of zeta's N powers
    (mode "element").

    For q = 0 (mode "modular") the fields are the primes ell = 1 (mod N),
    those below 2^30 counted down from 2^30, then, if a character needs
    more, those above it counted up (_split_prime), with zeta_N sent to a
    primitive N-th root of unity mod ell; each is ranked by integer
    elimination mod ell (_rank_mod), below 2^30 every residue one CPython
    digit.  N must be below 2^29: past it at most one number = 1 (mod N)
    lies below 2^30.  A prime is found when a character first needs it,
    and kept for the process; its powers of zeta are taken when first met
    (_Powers).  Each row keeps its own terms (coefficient mod ell, form),
    so ranking some rows evaluates only theirs.  This is a ring map
    Z[zeta_N] -> F_ell, so no rank mod ell exceeds the rank over
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

    Pivot rows: the rows that were pivots the last time a character's rank
    reached the ceiling are kept.  When they are fewer than all the rows,
    the next character is first ranked, over the first field only, on just
    those rows; a submatrix's rank is a lower bound, so if it reaches the
    ceiling that is the rank, and otherwise the full matrix is ranked as
    above.  Nearly every character is generic (rank l - 1), and its test
    then builds and eliminates l - 1 rows instead of m.
    """

    def __init__(self, A, N, q):
        if not q and N >= 1 << 29:
            raise ValueError(f"characters of order N = {N}: at q = 0 N "
                             f"must be below 2^29")
        self.N = N
        self.q = q
        self.num_generators = A.num_generators
        forms = {}
        self.rows = [[[(coeff, forms.setdefault(tuple(tors) + tuple(free),
                                                len(forms)))
                       for (free, tors), coeff in entry.terms.items()]
                      for entry in row] for row in A.entries]
        self.num_forms = len(forms)
        # coordinate c's column of form weights mod N (see _exponents)
        self.columns = [(c, [w % N for w in column])
                        for c, column in enumerate(zip(*forms)) if any(column)]
        self.ceiling = min(len(self.rows), self.num_generators)
        if q:
            self.field = sufficiently_large_field(N, q)
            self.mode = ("zech" if self.field.order() <= _LOG_TABLE_LIMIT
                         else "element")
        else:
            self.field = None
            self.mode = "modular"
            self.phi = euler_phi(N)
            self.roots = {}  # k -> isqrt(B2^phi(N)) for the minors of size k
        self.reductions = []
        self.pivots = None  # rows that last reached the ceiling

    def depth_of_exponents(self, coord_exps=None, *, forms=None):
        """Depth of the character with coordinate exponent vector e, or of
        the nontrivial character whose form exponents (_exponents) a
        character walk carries as forms."""
        ceiling = self.ceiling
        if forms is not None or any(a % self.N for a in coord_exps):
            ceiling = min(ceiling, self.num_generators - 1)
        return self.num_generators - self._certified_rank(
            coord_exps, ceiling, forms) - 1

    def _certified_rank(self, e, ceiling, exps=None):
        """Rank at e (or at the form exponents exps): first on the pivot
        rows over the first field, then the largest rank over the fields
        in order, until one reaches the ceiling the true rank cannot pass
        or (q = 0) the norm bound certifies the largest rank seen."""
        if exps is None:
            exps = self._exponents(e)
        pivots = self.pivots
        if pivots is not None and ceiling <= len(pivots) < len(self.rows):
            rank, _ = self._rank(exps, 0, ceiling, pivots)
            if rank >= ceiling:
                return rank
        rank, tried = 0, 1
        for i in count():
            r, pivots = self._rank(exps, i, ceiling)
            rank = max(rank, r)
            if rank >= ceiling:
                if pivots is not None:
                    self.pivots = pivots
                return rank
            if self.q:
                return rank
            tried *= self.reductions[i][0]
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
        """The i-th field, reduced, by mode: "modular", (ell, the powers of
        zeta mod ell (_Powers), the rows, each as its terms (coefficient
        mod ell, form) in one flat list and its entries as spans of it,
        so that ranking some rows evaluates only theirs); "zech", (K's log
        tables, zeta's log, the rows with coefficient codes); "element",
        (zeta's N powers in K, the rows with coefficients in K).  Built
        when first needed, the fields taken in order."""
        if i == len(self.reductions):
            N = self.N
            if self.mode == "modular":
                ell, zeta = _split_prime(N, i)
                rows = []
                for row in self.rows:
                    terms, spans = [], []
                    for entry in row:
                        start = len(terms)
                        terms.extend((c % ell, form) for c, form in entry
                                     if c % ell)
                        spans.append((start, len(terms)))
                    rows.append((terms, spans))
                self.reductions.append((ell, _Powers(zeta, ell), rows))
            elif self.mode == "zech":
                F = self.field
                lt = log_tables(F)
                if lt.n % N:
                    raise InvariantViolation(
                        f"{F!r} has no primitive {N}-th root of unity")
                codes = {c: lt.encode(F.from_int(c)) for row in self.rows
                         for terms in row for c, _ in terms}
                rows = [[[(codes[c], form) for c, form in terms
                          if codes[c] != -1] for terms in row]
                        for row in self.rows]
                self.reductions.append((lt, lt.n // N, rows))
            else:
                F = self.field
                zeta = primitive_root_of_unity(F, N)
                powers = [F.one()]
                for _ in range(N - 1):
                    powers.append(powers[-1] * zeta)
                rows = [[[(F.from_int(c), form) for c, form in terms
                          if c % F.char] for terms in row]
                        for row in self.rows]
                self.reductions.append((powers, rows))
        return self.reductions[i]

    def _rank(self, exps, i, ceiling, indices=None):
        """Rank over the i-th field at the form exponents exps, of the rows
        numbered in indices (all rows by default), with the numbers of its
        pivot rows (None on the element route)."""
        *reduction, rows = self._reduction(i)
        if indices is not None:
            rows = [rows[k] for k in indices]
        if self.mode == "modular":
            ell, powers = reduction
            matrix = []
            for terms, spans in rows:
                # prefix sums of the row's terms: an entry is the difference
                # of the sums at the ends of its span
                sums = list(accumulate(
                    [c * powers[exps[f]] for c, f in terms], initial=0))
                matrix.append([(sums[b] - sums[a]) % ell for a, b in spans])
            rank, pivots = _rank_mod(matrix, ell, ceiling)
        elif self.mode == "zech":
            lt, zeta = reduction
            order, zech = lt.n, lt.zech
            logs = [zeta * k for k in exps]  # zeta is held as its log
            matrix = []
            for row in rows:
                out_row = []
                for terms in row:
                    acc = -1
                    for c, f in terms:
                        # acc += coefficient * zeta^(form . e), by Zech logs
                        b = (c + logs[f]) % order
                        if acc == -1:
                            acc = b
                        else:
                            d = zech[(acc - b) % order]
                            acc = -1 if d == -1 else (b + d) % order
                    out_row.append(acc)
                matrix.append(out_row)
            rank, pivots = _rank_codes(matrix, lt, ceiling)
        else:
            (powers,) = reduction
            F = self.field
            return rank_over_field(
                [[sum((c * powers[exps[f]] for c, f in terms), F.zero())
                  for terms in row] for row in rows], F), None
        if indices is not None:
            pivots = [indices[k] for k in pivots]
        return rank, pivots


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


class _Powers(dict):
    """zeta^k mod ell by k, each power taken when first asked for, so
    that the table holds only the exponents met, whatever N is."""

    def __init__(self, zeta, ell):
        super().__init__()
        self.zeta = zeta
        self.ell = ell

    def __missing__(self, k):
        self[k] = value = pow(self.zeta, k, self.ell)
        return value


def _split_candidates(N):
    """The numbers ell = 1 (mod N) above N: those below 2^30 counting
    down from 2^30, then those above it counting up."""
    top = (_PRIME_LIMIT - 2) // N * N + 1
    yield from range(top, N, -N)
    yield from count(top + N, N)


def _split_prime(N, i):
    """The i-th prime of _split_candidates(N), with zeta =
    x^((ell - 1)/N) mod ell for the least x >= 2 for which it has order N.
    Found when first asked for and kept for the process.  Past the primes
    below 2^30 residues take two CPython digits: slower, still exact."""
    found, candidates = _SPLIT_PRIMES.setdefault(
        N, ([], _split_candidates(N)))
    while len(found) <= i:
        ell = next(ell for ell in candidates if is_prime(ell))
        radicals = [N // r for r in factorize(N)] if N > 1 else []
        for x in count(2):
            zeta = pow(x, (ell - 1) // N, ell)
            if all(pow(zeta, k, ell) != 1 for k in radicals):
                break
        found.append((ell, zeta))
    return found[i]


def _rank_codes(matrix, lt, ceiling):
    """Rank of a matrix of discrete-log codes by elimination, stopped at
    the ceiling, with the positions of its pivot rows."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    zech, order, minus_one = lt.zech, lt.n, lt.minus_one
    numbers = list(range(m))
    rank = 0
    col = 0
    while rank < ceiling and col < n:
        piv = None
        for i in range(rank, m):
            if matrix[i][col] != -1:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        numbers[rank], numbers[piv] = numbers[piv], numbers[rank]
        prow = matrix[rank]
        pval = prow[col]
        rank += 1
        if rank == ceiling:
            break
        pivot_terms = [(j, prow[j]) for j in range(col + 1, n)
                       if prow[j] != -1]
        for i in range(rank, m):
            row = matrix[i]
            c = row[col]
            if c != -1:
                # row -= (c / pval) * prow, in logs: add factor + prow[j]
                # to row[j] through the Zech table; column col becomes 0
                factor = (c - pval + minus_one) % order
                row[col] = -1
                for j, b in pivot_terms:
                    b = (b + factor) % order
                    a = row[j]
                    if a == -1:
                        row[j] = b
                    else:
                        d = zech[(a - b) % order]
                        row[j] = -1 if d == -1 else (b + d) % order
        col += 1
    return rank, numbers[:rank]


def _rank_mod(matrix, ell, ceiling):
    """Rank of an integer matrix mod the prime ell, its entries reduced,
    by elimination stopped at the ceiling, with the positions of its pivot
    rows."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    numbers = list(range(m))
    rank = 0
    col = 0
    while rank < ceiling and col < n:
        piv = None
        for i in range(rank, m):
            if matrix[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        numbers[rank], numbers[piv] = numbers[piv], numbers[rank]
        prow = matrix[rank]
        rank += 1
        if rank == ceiling:
            break
        inverse = ell - pow(prow[col], -1, ell)
        pivot_terms = [(j, prow[j]) for j in range(col + 1, n) if prow[j]]
        for i in range(rank, m):
            row = matrix[i]
            c = row[col]
            if c:
                # row -= (c / pivot) * prow; column col becomes 0
                factor = c * inverse % ell
                row[col] = 0
                for j, b in pivot_terms:
                    row[j] = (row[j] + factor * b) % ell
        col += 1
    return rank, numbers[:rank]


def coordinate_exponents_from_generators(abel, N, gen_exps):
    """chi-coordinate exponents of the character with value zeta^gen_exps[j]
    on generator j, asserting the values factor through H_1."""
    h = len(abel.torsion)
    coord_exps = []
    for c in range(abel.num_coordinates):
        row = abel.coordinate_in_generators(c)
        coord_exps.append(sum(w * e for w, e in zip(row, gen_exps)) % N)
    tors_exps, free_exps = coord_exps[:h], coord_exps[h:]
    for j in range(abel.num_generators):
        free, tors = abel.chi([1 if i == j else 0
                               for i in range(abel.num_generators)])
        back = (sum(a * b for a, b in zip(tors, tors_exps))
                + sum(a * b for a, b in zip(free, free_exps)))
        if (back - gen_exps[j]) % N:
            raise ValueError("generator values do not factor through H_1")
    return tuple(coord_exps)


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


def _depth_tally(engine, walk, check_orbits, start=0, step=1):
    """(characters, counts) over the subgroups start, start + step, ...
    of _galois_orbits(*walk, engine.N): characters counts the characters
    of each depth, and counts the subgroups all of whose characters have
    one depth, or is None once a subgroup has two.  Each orbit's
    representative is ranked, or with check_orbits each member, verifying
    that depth is constant on it."""
    N = engine.N
    depth = engine.depth_of_exponents
    characters, counts = Counter(), Counter()
    for orbits in islice(_galois_orbits(*walk, N), start, None, step):
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
# at --jobs 1 and 2 on every walk of the queries request set (2 CPUs),
# --jobs 2 lost at every size up to 255 and won from 364 on.
_FORK_CUTOVER = 255


def _cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tally_share(engine, walk, check_orbits, start, step):
    """(True, _depth_tally of one share), or (False, the exception)."""
    try:
        return True, _depth_tally(engine, walk, check_orbits, start, step)
    except Exception as e:
        return False, e


def _parallel_depth_tally(engine, walk, check_orbits, jobs):
    """_depth_tally spread over jobs shares: share i ranks every jobs-th
    subgroup of the walk from the i-th.  The caller ranks share 0 while
    jobs - 1 forked children, which inherit the engine instead of
    building their own, each rank one other share and pipe back only its
    pickled tallies (the library starts no threads, so a fork copies a
    consistent state).  Every child is reaped before this returns or
    raises; if shares fail, the lowest share's exception is raised."""
    import pickle  # imported here to spare non-forking runs 0.3 MB

    pids, pipes = [], []
    try:
        for i in range(1, jobs):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child_share(w, engine, walk, check_orbits, i, jobs)
            finally:
                os.close(w)
            pids.append(pid)
        shares = [_tally_share(engine, walk, check_orbits, 0, jobs)]
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


def _child_share(fd, engine, walk, check_orbits, start, step):
    """In a forked child: write one share's pickled _tally_share to fd,
    then exit without returning to the caller's frames."""
    import pickle

    code = 1
    try:
        data = pickle.dumps(_tally_share(engine, walk, check_orbits,
                                         start, step))
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
                                                   check_orbits, jobs)
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
    H_1 (one Smith normal form, shared with the Alexander matrix), the
    Alexander matrix, the augmentation Jacobian, the depth engines by
    (N, q), and the order-p character depths already asked for, keyed on
    (p, q).  jobs only spreads the character walk over processes; A=
    fixes the chi basis, as for beta_distribution."""

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

    @cached_property
    def jacobian(self):
        """The relators' exponent sums (augmentation_jacobian)."""
        return augmentation_jacobian(self.P)

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
        for row in G.jacobian.entries:
            if sum(a * b for a, b in zip(row, images[i])) % c:
                raise ValueError("not a homomorphism: a relator has nonzero image")
    # surjectivity: the quotient of sum Z_{c_i} by the generator images
    # must vanish; present it and reduce
    from .linalg import IntMatrix, smith_normal_form
    k = len(factors)
    rows = [[images[i][j] for i in range(k)] for j in range(l)]
    rows += [[factors[i] if i == c else 0 for i in range(k)] for c in range(k)]
    form = smith_normal_form(IntMatrix.from_rows(rows, k))
    if form.coker_free_rank or form.coker_torsion():
        raise ValueError("images do not generate Z_"
                         + " + Z_".join(map(str, factors)))


def b1_cover_abelian(G, factors, images, q):
    """Mod-q first Betti number of the kernel of G -> sum_i Z_{factors[i]},
    generator j mapping to column j of images; G is a presentation or a
    Group.

    It is b1(G) plus the depth of every nontrivial character rho of the
    target pulled back along the map.  Depth is constant on the Galois
    orbits of _galois_orbits, so each orbit adds its size times the depth
    of its representative.
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
    total = abel.b1(q)
    for orbits in _galois_orbits(factors, q, columns, E):
        for _, exps, coset in orbits:
            total += len(coset) * engine.depth_of_exponents(forms=exps)
    return total


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
