"""Torsion characters, depth, and Betti numbers of finite covers.

A character is a point of Hom(G, K*), recorded by its values on the chi
coordinates of H_1(G).  Its depth is corank(A^t) - 1, where A^t is the
Alexander matrix evaluated at t; for a nontrivial character this is the
largest d with t on the d-th determinantal stratum, and for a normal
subgroup K with cyclic quotient the mod-q Betti number of K is recovered
by summing depths of the powers of the defining character.

beta_distribution counts order-p characters by depth.  Depth is constant
on the orbits t -> t^j (1 <= j < p), which all have size exactly p - 1, so
by default one representative per orbit is evaluated; the slower all-points
path (check_orbits) divides by p - 1 and asserts exactness, and the two
must agree.

A Group holds what several invariants of one presentation share: the
abelianization, the Alexander matrix and the Betti distributions already
asked for.  Callers that combine invariants make one Group per request.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .fields import (euler_phi, factorize, log_tables,
                     primitive_root_of_unity, reduction_rows,
                     sufficiently_large_field)
from .foxcalc import (abelianization, alexander_matrix,
                      augmentation_jacobian)
from .linalg import InvariantViolation, rank_over_field


class Character:
    """A torsion character, as unit values on the chi coordinates of H_1."""

    __slots__ = ("field", "free_values", "torsion_values", "_tables", "_ints")

    def __init__(self, field, free_values, torsion_values, torsion_divisors,
                 order_bound=None):
        self.field = field
        self.free_values = list(free_values)
        self.torsion_values = list(torsion_values)
        if len(torsion_values) != len(torsion_divisors):
            raise ValueError("one torsion value per elementary divisor required")
        for v, e in zip(torsion_values, torsion_divisors):
            if not (v ** e).is_one():
                raise ValueError("torsion coordinate value of wrong order")
        self._tables = []
        for v in self.free_values + self.torsion_values:
            if v.is_zero():
                raise ValueError("character values must be units")
            n = v.multiplicative_order(order_bound)
            table = [field.one()]
            for _ in range(n - 1):
                table.append(table[-1] * v)
            self._tables.append(table)
        self._ints = {}

    def order(self):
        return lcm(*(len(t) for t in self._tables)) if self._tables else 1

    def is_trivial(self):
        return all(len(t) == 1 for t in self._tables)

    def value(self, coordinate):
        return self._tables[coordinate][1 % len(self._tables[coordinate])]

    def monomial_value(self, free_exps, torsion_exps, coeff=1):
        """coeff * prod t_i^free_exps[i] * prod s_j^torsion_exps[j] in K."""
        if coeff in self._ints:
            acc = self._ints[coeff]
        else:
            acc = self.field.from_int(coeff)
            self._ints[coeff] = acc
        n = len(self.free_values)
        for i, e in enumerate(free_exps):
            if e:
                table = self._tables[i]
                acc = acc * table[e % len(table)]
        for j, e in enumerate(torsion_exps):
            if e:
                table = self._tables[n + j]
                acc = acc * table[e % len(table)]
        return acc


def depth(A, t):
    """corank of the evaluated Alexander matrix, minus one.

    Equals max{d : t in V_d} for nontrivial t, and b_1^{(q)}(G) - 1 at the
    trivial character (the one place the stratification convention differs).
    """
    evaluated = A.evaluate(t)
    return A.num_generators - rank_over_field(evaluated, t.field) - 1


class DepthEngine:
    """Integer-only depth evaluation for characters of order dividing N.

    The Alexander matrix is compiled once: each Laurent term becomes a
    coefficient plus the linear form its exponents induce on the chi
    coordinates.  A character is then just a coordinate exponent vector e
    (its value on coordinate c being zeta_N^{e_c}), entry values are sums
    of coefficient * zeta^(form . e mod N), and the rank runs over plain
    integers: Zech-logarithm arithmetic for small finite fields,
    fraction-free elimination on integer coefficient vectors for Q and
    cyclotomic fields.  Must agree with the element-level depth(); the
    test suite checks exactly that.
    """

    def __init__(self, A, K, N):
        self.A = A
        self.K = K
        self.N = N
        self.num_generators = A.num_generators
        h = len(A.abel.torsion)
        n = A.abel.free_rank
        self.rows = []
        for row in A.entries:
            out_row = []
            for entry in row:
                terms = []
                for (free, tors), coeff in entry.terms.items():
                    form = tuple(tors) + tuple(free)
                    terms.append((coeff, form))
                out_row.append(terms)
            self.rows.append(out_row)
        self.num_coords = h + n
        self.tables = log_tables(K) if K.char else None
        if self.tables is not None:
            lt = self.tables
            assert lt.n % N == 0
            self.zeta_log = (lt.n // N) if N > 1 else 0
            self.coeff_codes = {}
            self.mode = "zech"
        elif not K.char:
            if K.degree > 1:
                reduction_rows(K)
            self.zeta_pows = self._char0_zeta_powers()
            self.mode = "intpoly"
        else:
            # finite field beyond the table limit; fall back to elements
            self.zeta = K.one() if N == 1 else primitive_root_of_unity(K, N)
            self.mode = "element"

    def _char0_zeta_powers(self):
        K, N = self.K, self.N
        zeta = K.one() if N == 1 else primitive_root_of_unity(K, N)
        pows = []
        x = K.one()
        for _ in range(N):
            assert all(c.denominator == 1 for c in x.coeffs)
            pows.append([int(c) for c in x.coeffs])
            x = x * zeta
        return pows

    def depth_of_exponents(self, coord_exps):
        """Depth of the character with coordinate exponent vector e."""
        if self.mode == "zech":
            rank = self._rank_finite(coord_exps)
        elif self.mode == "intpoly":
            rank = self._rank_char0(coord_exps)
        else:
            h = len(self.A.abel.torsion)
            t = character_from_coordinate_exponents(
                self.A.abel, self.K, self.zeta, self.N,
                coord_exps[:h], coord_exps[h:])
            return depth(self.A, t)
        return self.num_generators - rank - 1

    # -- finite field backend (Zech logarithm codes)

    def _coeff_code(self, coeff):
        code = self.coeff_codes.get(coeff)
        if code is None:
            lt = self.tables
            code = lt.encode(self.K.from_int(coeff))
            self.coeff_codes[coeff] = code
        return code

    def _rank_finite(self, e):
        lt = self.tables
        N = self.N
        zl = self.zeta_log
        n_mod = lt.n
        add = lt.add
        matrix = []
        for row in self.rows:
            out_row = []
            for terms in row:
                acc = -1
                for coeff, form in terms:
                    c = self._coeff_code(coeff)
                    if c == -1:
                        continue
                    dot = 0
                    for w, a in zip(form, e):
                        if w and a:
                            dot += w * a
                    acc = add(acc, (c + zl * (dot % N)) % n_mod)
                out_row.append(acc)
            matrix.append(out_row)
        return _rank_codes(matrix, lt)

    # -- characteristic zero backend (integer coefficient vectors)

    def _rank_char0(self, e):
        N = self.N
        pows = self.zeta_pows
        d = self.K.degree
        matrix = []
        for row in self.rows:
            out_row = []
            for terms in row:
                acc = [0] * d
                for coeff, form in terms:
                    dot = 0
                    for w, a in zip(form, e):
                        if w and a:
                            dot += w * a
                    vec = pows[dot % N]
                    for j in range(d):
                        acc[j] += coeff * vec[j]
                out_row.append(acc)
            matrix.append(out_row)
        return _rank_int_vectors(matrix, self.K)


def _rank_codes(matrix, lt):
    """Rank of a matrix of discrete-log codes by elimination."""
    if not matrix or not matrix[0]:
        return 0
    m, n = len(matrix), len(matrix[0])
    add, mul, neg = lt.add, lt.mul, lt.neg
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = None
        for i in range(rank, m):
            if matrix[i][col] != -1:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        prow = matrix[rank]
        pval = prow[col]
        for i in range(rank + 1, m):
            c = matrix[i][col]
            if c != -1:
                factor = neg((c - pval) % lt.n)
                row = matrix[i]
                for j in range(col, n):
                    row[j] = add(row[j], mul(factor, prow[j]))
        rank += 1
        col += 1
    return rank


def _rank_int_vectors(matrix, K):
    """Fraction-free rank of a matrix over Z[x]/(modulus), entries as
    integer coefficient vectors; rows are rescaled by their content to
    keep the integers small."""
    if not matrix or not matrix[0]:
        return 0
    d = K.degree
    if d > 1:
        red = reduction_rows(K)

    def pmul(a, b):
        if d == 1:
            return [a[0] * b[0]]
        out = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        for k in range(d - 2, -1, -1):
            c = out[d + k]
            if c:
                rk = red[k]
                for j in range(d):
                    out[j] += c * rk[j]
        del out[d:]
        return out

    def reduce_row(row):
        g = 0
        for vec in row:
            for c in vec:
                g = gcd(g, c)
                if g == 1:
                    return row
        if g > 1:
            for vec in row:
                for j in range(d):
                    vec[j] //= g
        return row

    m, n = len(matrix), len(matrix[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = None
        for i in range(rank, m):
            if any(matrix[i][col]):
                piv = i
                break
        if piv is None:
            col += 1
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        prow = matrix[rank]
        pval = prow[col]
        for i in range(rank + 1, m):
            c = matrix[i][col]
            if any(c):
                row = matrix[i]
                matrix[i] = reduce_row(
                    [[x - y for x, y in zip(pmul(pval, row[j]),
                                            pmul(c, prow[j]))]
                     for j in range(n)])
        rank += 1
        col += 1
    return rank


def character_from_coordinate_exponents(abel, K, zeta, N, tors_exps, free_exps):
    """Character whose coordinate c takes the value zeta^(exponent of c)."""
    table = [K.one()]
    for _ in range(N - 1):
        table.append(table[-1] * zeta)
    free_values = [table[e % N] for e in free_exps]
    torsion_values = [table[e % N] for e in tors_exps]
    return Character(K, free_values, torsion_values, abel.torsion,
                     order_bound=N)


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
    zeta = primitive_root_of_unity(K, p)
    for exps in _nonzero_vectors(p, abel.b1(p)):
        yield _order_p_character(abel, K, zeta, p, exps)


def _order_p_character(abel, K, zeta, p, exps):
    active = iter(exps)
    tors_exps = [next(active) if e % p == 0 else 0 for e in abel.torsion]
    free_exps = [next(active) for _ in range(abel.free_rank)]
    return character_from_coordinate_exponents(abel, K, zeta, p,
                                               tors_exps, free_exps)


def _nonzero_vectors(p, n):
    vec = [0] * n
    total = p ** n
    for code in range(1, total):
        m = code
        for i in range(n):
            vec[i] = m % p
            m //= p
        yield tuple(vec)


def _orbit_canonical(exps, p):
    return min(tuple((j * e) % p for e in exps) for j in range(1, p))


class BettiDistribution:
    """The finite map d -> number of index-p normal subgroups whose mod-q
    first Betti number exceeds the base group's by (p-1)d."""

    __slots__ = ("p", "q", "n_p", "counts")

    def __init__(self, p, q, n_p, counts):
        self.p = p
        self.q = q
        self.n_p = n_p
        self.counts = {d: c for d, c in counts.items() if c}
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


def _order_p_coordinates(abel, p, exps):
    """Full chi-coordinate exponent vector from the active-coordinate one."""
    active = iter(exps)
    tors = tuple(next(active) if e % p == 0 else 0 for e in abel.torsion)
    free = tuple(next(active) for _ in range(abel.free_rank))
    return tors + free


def _depth_tally(A, p, q, exp_vectors):
    """Map exponent vector -> depth, for a chunk of order-p characters."""
    K = sufficiently_large_field(p, q)
    engine = DepthEngine(A, K, p)
    abel = A.abel
    out = {}
    for exps in exp_vectors:
        coords = _order_p_coordinates(abel, p, exps)
        out[exps] = engine.depth_of_exponents(coords)
    return out


def _parallel_depth_tally(A, p, q, exp_vectors, jobs):
    import multiprocessing as mp

    chunks = [exp_vectors[i::jobs] for i in range(jobs)]
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs) as pool:
        results = pool.starmap(_depth_tally,
                               [(A, p, q, chunk) for chunk in chunks if chunk])
    merged = {}
    for r in results:
        merged.update(r)
    return merged


def beta_distribution(P, p, q, *, check_orbits=False, A=None, jobs=1):
    """Distribution of mod-q Betti jumps over index-p normal subgroups.

    Counts order-p characters by depth over a sufficiently large field of
    characteristic q, one character per orbit of p-1 powers (they share a
    kernel and a depth).  check_orbits instead evaluates every character,
    verifies that depth really is constant on each orbit and asserts the
    division by p-1 exact.  A= evaluates in the chi basis of that Alexander
    matrix of P; the counts do not depend on the basis.
    """
    if q == p:
        raise ValueError("q must differ from p")
    if A is None:
        A = alexander_matrix(P)
    n_p = A.abel.b1(p)
    vectors = list(_nonzero_vectors(p, n_p))
    if not check_orbits:
        vectors = [v for v in vectors if v == _orbit_canonical(v, p)]
    if jobs > 1 and len(vectors) > 64:
        depths = _parallel_depth_tally(A, p, q, vectors, jobs)
    else:
        depths = _depth_tally(A, p, q, vectors)

    if check_orbits:
        by_orbit = {}
        for v, d in depths.items():
            by_orbit.setdefault(_orbit_canonical(v, p), set()).add(d)
        for orbit, ds in by_orbit.items():
            if len(ds) != 1:
                raise InvariantViolation(
                    f"depth not constant on the orbit of {orbit}: {ds}")

    tally = {}
    for d in depths.values():
        tally[d] = tally.get(d, 0) + 1
    counts = {}
    for d, c in tally.items():
        if d >= 1:
            if not check_orbits:
                counts[d] = c
            else:
                if c % (p - 1):
                    raise InvariantViolation(
                        f"depth-{d} character count {c} not divisible by p-1")
                counts[d] = c // (p - 1)
    total = (p ** n_p - 1) // (p - 1)
    counts[0] = total - sum(counts.values())
    return BettiDistribution(p, q, n_p, counts)


class Group:
    """One presentation's shared invariants, each computed at most once:
    H_1 (one Smith normal form, shared with the Alexander matrix), the
    Alexander matrix, and the Betti distributions already asked for, keyed
    on (p, q).  jobs only spreads the character enumeration over workers;
    A= fixes the chi basis, as for beta_distribution."""

    def __init__(self, P, *, A=None, jobs=1):
        self.P = P
        self.jobs = jobs
        self._A = A
        self._betas = {}

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

    def beta(self, p, q, *, check_orbits=False):
        """beta_distribution(P, p, q); a check_orbits call always
        recomputes, on the all-points path."""
        b = None if check_orbits else self._betas.get((p, q))
        if b is None:
            b = beta_distribution(self.P, p, q, check_orbits=check_orbits,
                                  A=self.alexander, jobs=self.jobs)
            self._betas[p, q] = b
        return b


# ---------------------------------------------------------------------------
# Betti numbers of finite cyclic and abelian covers

def _validate_epimorphism_cyclic(P, N, images):
    if N < 1:
        raise ValueError("N must be positive")
    if len(images) != P.num_generators:
        raise ValueError("one image per generator required")
    if gcd(N, *images) != 1:
        raise ValueError("images do not generate Z_N")
    J = augmentation_jacobian(P)
    for row in J.entries:
        if sum(a * b for a, b in zip(row, images)) % N:
            raise ValueError("not a homomorphism: a relator has nonzero image")


def b1_cover_cyclic(P, N, images, q, *, A=None):
    """Mod-q first Betti number of the kernel of the map G -> Z_N sending
    generator j to images[j]: b_1 + sum over nontrivial k | N of
    phi(k) * depth of the order-k power character.  A= evaluates in the
    chi basis of that Alexander matrix of P."""
    _validate_epimorphism_cyclic(P, N, images)
    if q != 0 and N % q == 0:
        raise ValueError("characteristic divides the cover order")
    if A is None:
        A = alexander_matrix(P)
    abel = A.abel
    K = sufficiently_large_field(N, q)
    engine = DepthEngine(A, K, N)
    total = abel.b1(q)
    for k in range(2, N + 1):
        if N % k:
            continue
        j = N // k
        coords = coordinate_exponents_from_generators(
            abel, N, [(j * e) % N for e in images])
        total += euler_phi(k) * engine.depth_of_exponents(coords)
    return total


def _validate_epimorphism_abelian(P, factors, images):
    if not factors or any(c < 1 for c in factors):
        raise ValueError("cyclic factor orders must be positive")
    if len(images) != len(factors) or \
            any(len(row) != P.num_generators for row in images):
        raise ValueError("images must be a (factors x generators) grid")
    J = augmentation_jacobian(P)
    for i, c in enumerate(factors):
        for row in J.entries:
            if sum(a * b for a, b in zip(row, images[i])) % c:
                raise ValueError("not a homomorphism: a relator has nonzero image")
    # surjectivity: the quotient of sum Z_{c_i} by the generator images
    # must vanish; present it and reduce
    from .linalg import IntMatrix, smith_normal_form
    k = len(factors)
    rows = [[images[i][j] for i in range(k)] for j in range(P.num_generators)]
    rows += [[factors[i] if i == c else 0 for i in range(k)] for c in range(k)]
    form = smith_normal_form(IntMatrix.from_rows(rows, k))
    if form.coker_free_rank or form.coker_torsion():
        raise ValueError("images do not generate the target group")


def b1_cover_abelian(P, factors, images, q):
    """Mod-q first Betti number of the kernel of G -> sum_i Z_{factors[i]},
    generator j mapping to column j of images.

    Nontrivial characters rho of the target are grouped by the cyclic
    subgroup they generate; each class contributes phi(ord rho) times the
    depth of one representative pulled back along the map.
    """
    _validate_epimorphism_abelian(P, factors, images)
    E = lcm(*factors)
    if q != 0 and E % q == 0:
        raise ValueError("characteristic divides the cover order")
    A = alexander_matrix(P)
    abel = A.abel
    K = sufficiently_large_field(E, q)
    engine = DepthEngine(A, K, E)

    seen = set()
    total = abel.b1(q)
    phi_total = 0
    for rho in _nonzero_vectors_mixed(factors):
        if rho in seen:
            continue
        order = lcm(*(c // gcd(r, c) for r, c in zip(rho, factors)))
        multiples = {tuple((j * r) % c for r, c in zip(rho, factors))
                     for j in range(1, order) if gcd(j, order) == 1}
        multiples.add(rho)
        seen.update(multiples)
        m_rho = euler_phi(order)
        assert len(multiples) == m_rho
        gen_exps = [sum((E // c) * r * images[i][j]
                        for i, (r, c) in enumerate(zip(rho, factors))) % E
                    for j in range(P.num_generators)]
        coords = coordinate_exponents_from_generators(abel, E, gen_exps)
        total += m_rho * engine.depth_of_exponents(coords)
        phi_total += m_rho
    expected = 1
    for c in factors:
        expected *= c
    assert phi_total == expected - 1
    return total


def _nonzero_vectors_mixed(factors):
    total = 1
    for c in factors:
        total *= c
    for code in range(1, total):
        vec = []
        m = code
        for c in factors:
            vec.append(m % c)
            m //= c
        yield tuple(vec)


def check_bounds_congruence(b1_base, b1_cover, num_generators, k,
                            depth_sup=None):
    """Validate the bounds and congruence a finite abelian cover must obey.

    b1(G) <= b1(K) <= b1(G) + (k-1)(l-1), sharpened to (k-1) * depth_sup
    when the maximal depth over nontrivial characters of order dividing k
    is supplied; and b1(K) = b1(G) mod gcd(p_i - 1) over the prime factors
    of k.  Returns a report dict; raises InvariantViolation on any breach.
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
    primes = list(factorize(k)) if k > 1 else []
    D = 0
    for p in primes:
        D = gcd(D, p - 1)
    if D > 1 and (b1_cover - b1_base) % D:
        raise InvariantViolation(
            f"jump {b1_cover - b1_base} not divisible by D = {D}")
    return {"lower": lower, "upper": upper, "sharpened": sharp,
            "modulus": D, "jump": b1_cover - b1_base}


def max_depth_of_order_dividing(P, k, q):
    """sup of depth over nontrivial characters whose order divides k."""
    A = alexander_matrix(P)
    abel = A.abel
    K = sufficiently_large_field(k, q)
    engine = DepthEngine(A, K, k)
    best = 0
    h = len(abel.torsion)
    # torsion coordinate values must also satisfy v^{e_i} = 1
    for exps in _nonzero_vectors(k, abel.num_coordinates):
        ok = True
        for e, ei in zip(exps[:h], abel.torsion):
            if (e * ei) % k:
                ok = False
                break
        if not ok:
            continue
        best = max(best, engine.depth_of_exponents(exps))
    return best
