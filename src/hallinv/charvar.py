"""Torsion characters, depth, and Betti numbers of finite covers.

A character is a point of Hom(G, K*), recorded by its exponent vector e
on the chi coordinates of H_1(G): coordinate c takes the value
zeta_N^(e_c).  Its depth is corank(A^t) - 1, where A^t is the Alexander
matrix evaluated at t; for a nontrivial character this is the
largest d with t on the d-th determinantal stratum, and for a normal
subgroup K with cyclic quotient the mod-q Betti number of K is recovered
by summing depths of the powers of the defining character.

Depth is constant on Galois orbits of characters (Frobenius orbits when
q > 0), so every character walk evaluates one representative per orbit,
weighted by its size, through one rule: _galois_orbits.  When q does not
generate (Z/p)^*, an index-p subgroup's p - 1 characters may differ in
depth; there is then no Betti distribution, while the Hall invariants,
which sum over characters, are still defined.  The all-points path
(check_orbits) verifies that depth is constant on each orbit.

Depth is a rank, and DepthEngine is the one evaluator of the Alexander
matrix: it compiles the matrix once into integer coefficients and linear
forms on e, and takes every rank over a finite field by one rule: a
field of at most 2^16 elements by Zech-logarithm elimination
(_rank_codes), a larger one by rank_over_field on its elements.
In characteristic q > 0 the one field is F_{q^s}.  In characteristic 0
the rank over Q(zeta_N) is the largest rank over F_ell for the split
primes ell = 1 (mod N), each reached by a ring map Z[zeta_N] -> F_ell,
which can only lower rank.  That lower bound is exact once it meets the
ceiling Fox's fundamental identity puts on a nontrivial character, or
once the product of the primes tried outgrows a Hadamard bound on the
norm of every minor (see DepthEngine for the argument).  No arithmetic
in Q or Q(zeta_N) is ever done.

A Group holds what several invariants of one presentation share: the
abelianization, the Alexander matrix and the character depths already
asked for.  Callers that combine invariants make one Group per request.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice, product
from math import gcd, lcm, prod

from .fields import (_LOG_TABLE_LIMIT, euler_phi, is_prime, log_tables,
                     multiplicative_order, prime_field,
                     primitive_root_of_unity, sufficiently_large_field)
from .foxcalc import (abelianization, alexander_matrix,
                      augmentation_jacobian)
from .linalg import InvariantViolation, rank_over_field


class DepthEngine:
    """Depth of the characters of order dividing N over a field of
    characteristic q, by ranks over finite fields.

    The Alexander matrix is compiled once: each Laurent term becomes an
    integer coefficient plus the linear form its exponents induce on the
    chi coordinates, each distinct form kept once (as its nonzero weights)
    so that a character evaluates it once.  A character is a coordinate
    exponent vector e, its value on coordinate c being zeta_N^{e_c}, so
    every entry of the evaluated matrix is a sum of
    coefficient * zeta^(form . e mod N) in Z[zeta_N].

    Ranks are taken over a list of finite fields, each holding a primitive
    N-th root of unity, by one rule, both from the same compiled rows and
    forms: a field of at most 2^16 elements (_LOG_TABLE_LIMIT) by
    Zech-logarithm elimination (_rank_codes) on the logs of the entries, a
    larger one by rank_over_field on the entries as field elements, summed
    from the field's table of zeta's N powers.  mode names the rule of the
    first field, "zech" or "element".

    For q > 0 the list is K = F_{q^s}, and its rank is the answer.  For
    q = 0 the list is the primes ell = 1 (mod N) in increasing order, with
    zeta_N sent to a primitive N-th root of unity of F_ell.  This is a
    ring map Z[zeta_N] -> F_ell, so no rank mod ell exceeds the rank r over
    Q(zeta_N), and the largest rank seen is a lower bound.  It equals r
    once either

    * it reaches a ceiling r cannot pass: min(m, l) for m relators and l
      generators, or l - 1 for a nontrivial character, whose vector
      (chi(x_j) - 1)_j is nonzero and killed by the matrix (Fox's
      fundamental identity); or
    * the primes tried have product P with P^2 > B2^phi(N), which the
      prime list is chosen to reach.  B2 bounds |sigma(D)|^2 for every
      minor D and every complex embedding sigma (Hadamard, from the
      coefficient sizes).  A minor D larger than the largest rank seen
      maps to 0 in every F_ell tried, so it lies in the kernels of those
      maps, distinct prime ideals of norm ell; P then divides the norm
      N(D), while |N(D)| <= B2^(phi(N)/2) < P, so D = 0.
    """

    def __init__(self, A, N, q):
        self.N = N
        self.num_generators = A.num_generators
        forms = {}
        self.rows = [[[(coeff, forms.setdefault(tuple(tors) + tuple(free),
                                                len(forms)))
                       for (free, tors), coeff in entry.terms.items()]
                      for entry in row] for row in A.entries]
        self.forms = [tuple((c, w) for c, w in enumerate(form) if w)
                      for form in forms]
        self.ceiling = min(len(self.rows), self.num_generators)
        if q:
            self.fields = [sufficiently_large_field(N, q)]
        else:
            bound = _hadamard_bound(self.rows, self.ceiling) ** euler_phi(N)
            self.fields = [prime_field(ell) for ell in _split_primes(N, bound)]
        self.reductions = []
        self.mode = "zech" if self.fields[0].order() <= _LOG_TABLE_LIMIT \
            else "element"

    def depth_of_exponents(self, coord_exps):
        """Depth of the character with coordinate exponent vector e."""
        ceiling = self.ceiling
        if any(a % self.N for a in coord_exps):
            ceiling = min(ceiling, self.num_generators - 1)
        return self.num_generators - self._certified_rank(coord_exps,
                                                          ceiling) - 1

    def _certified_rank(self, e, ceiling):
        """Rank at e: the largest rank over the fields, tried in order
        until one reaches the ceiling the true rank cannot pass."""
        rank = 0
        for i in range(len(self.fields)):
            rank = max(rank, self._rank(e, i))
            if rank >= ceiling:
                break
        return rank

    def _reduction(self, i):
        """For the i-th field: its log tables, zeta's log and the rows with
        coefficient codes within the table limit; past it None, the table
        of zeta's N powers and the rows with coefficients as elements.
        Built when first needed, the fields taken in order."""
        if i == len(self.reductions):
            F = self.fields[i]
            if F.order() > _LOG_TABLE_LIMIT:
                zeta = primitive_root_of_unity(F, self.N)
                powers = [F.one()]
                for _ in range(self.N - 1):
                    powers.append(powers[-1] * zeta)
                rows = [[[(F.from_int(c), form) for c, form in terms
                          if c % F.char] for terms in row]
                        for row in self.rows]
                self.reductions.append((None, powers, rows))
            else:
                lt = log_tables(F)
                if lt.n % self.N:
                    raise InvariantViolation(
                        f"{F!r} has no primitive {self.N}-th root of unity")
                codes = {c: lt.encode(F.from_int(c)) for row in self.rows
                         for terms in row for c, _ in terms}
                rows = [[[(codes[c], form) for c, form in terms
                          if codes[c] != -1] for terms in row]
                        for row in self.rows]
                self.reductions.append((lt, lt.n // self.N, rows))
        return self.reductions[i]

    def _rank(self, e, i):
        """Rank at e over the i-th field."""
        lt, zeta, rows = self._reduction(i)
        N = self.N
        # zeta^(form . e) as its exponent, once per distinct form
        exps = [sum(w * e[c] for c, w in form) % N for form in self.forms]
        if lt is None:
            # zeta is the table of its powers
            F = self.fields[i]
            return rank_over_field(
                [[sum((c * zeta[exps[f]] for c, f in terms), F.zero())
                  for terms in row] for row in rows], F)
        order, zech = lt.n, lt.zech
        # zeta is held as its log
        logs = [zeta * k for k in exps]
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
        return _rank_codes(matrix, lt)


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


def _split_primes(N, bound):
    """The primes ell = 1 (mod N) in increasing order, up to the first whose
    running product P has P^2 > bound."""
    primes = []
    product = 1
    ell = 1
    while product * product <= bound:
        ell += N
        if is_prime(ell):
            primes.append(ell)
            product *= ell
    return primes


def _rank_codes(matrix, lt):
    """Rank of a matrix of discrete-log codes by elimination."""
    if not matrix or not matrix[0]:
        return 0
    m, n = len(matrix), len(matrix[0])
    zech, order, minus_one = lt.zech, lt.n, lt.minus_one
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
        pivot_terms = [(j, prow[j]) for j in range(col + 1, n)
                       if prow[j] != -1]
        for i in range(rank + 1, m):
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
        rank += 1
        col += 1
    return rank


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
    s = multiplicative_order(q, k)
    cosets = [[j * q ** i % k for i in range(s)] for j in units]
    return [coset for coset in cosets if min(coset) == coset[0]]


def _galois_orbits(moduli, q):
    """Each nontrivial cyclic subgroup of Z_{m_1} + ... + Z_{m_r}, as its
    generators split into Galois orbits.

    The vectors are characters with values in a field of characteristic
    q.  Its Galois group fixes the Alexander matrix and so depth: for
    q > 0 it is generated by Frobenius, rho -> rho^q, and at q = 0 it holds
    every rho -> rho^j, j prime to the order of rho.  So the generators of
    a subgroup of order k split into the orbits of <q mod k> <= (Z/k)^*,
    or form one orbit at q = 0.  A subgroup is visited at its least
    generator (as a tuple), vectors taken in code order, first coordinate
    fastest, and yielded as a list of orbits, each a list of vectors
    headed by its representative; the first is the least generator.
    """
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


def _depth_tally(engine, exp_vectors):
    """Map exponent vector -> depth, for a chunk of characters."""
    return {exps: engine.depth_of_exponents(exps) for exps in exp_vectors}


_POOL_ENGINE = None  # the engine forked --jobs workers inherit


def _pool_depth_tally(exp_vectors):
    return _depth_tally(_POOL_ENGINE, exp_vectors)


def _parallel_depth_tally(engine, exp_vectors, jobs):
    """_depth_tally spread over jobs forked workers, which inherit the
    engine instead of each building (or unpickling) their own."""
    global _POOL_ENGINE
    import multiprocessing as mp

    chunks = [exp_vectors[i::jobs] for i in range(jobs)]
    _POOL_ENGINE = engine
    try:
        with mp.get_context("fork").Pool(jobs) as pool:
            results = pool.map(_pool_depth_tally,
                               [chunk for chunk in chunks if chunk])
    finally:
        _POOL_ENGINE = None
    merged = {}
    for r in results:
        merged.update(r)
    return merged


def _order_p_depths(G, p, q, *, check_orbits=False):
    """Depths of the order-p characters over a field of characteristic q,
    as (characters, beta): characters maps d to the number of characters
    of depth d, and beta is the BettiDistribution, or None when some
    index-p subgroup has characters of two depths (possible only when q
    has order less than p - 1 mod p).

    One character per Galois orbit is evaluated; check_orbits evaluates
    every character instead and verifies that depth is constant on each
    orbit.
    """
    if q == p:
        raise ValueError("q must differ from p")
    engine, abel = G.engine(p, q), G.abel
    # flat lists, a pointer per orbit: the characters to evaluate, each
    # orbit's size and each subgroup's number of orbits
    vectors, sizes, shapes = [], [], []
    for orbits in _galois_orbits(_character_moduli(abel, p), q):
        shapes.append(len(orbits))
        for orbit in orbits:
            sizes.append(len(orbit))
            vectors.extend(orbit if check_orbits else orbit[:1])
    if G.jobs > 1 and len(vectors) > 64:
        depths = _parallel_depth_tally(engine, vectors, G.jobs)
    else:
        depths = _depth_tally(engine, vectors)

    characters, counts = {}, {}
    evaluated, orbit_sizes = iter(vectors), iter(sizes)
    for n in shapes:
        subgroup_depths = set()
        for size in islice(orbit_sizes, n):
            orbit = list(islice(evaluated, size if check_orbits else 1))
            orbit_depths = {depths[v] for v in orbit}
            if len(orbit_depths) != 1:
                raise InvariantViolation(
                    f"depth not constant on the Galois orbit of "
                    f"{orbit[0]}: {orbit_depths}")
            d = orbit_depths.pop()
            characters[d] = characters.get(d, 0) + size
            subgroup_depths.add(d)
        if len(subgroup_depths) > 1:
            counts = None
        elif counts is not None:
            d = subgroup_depths.pop()
            counts[d] = counts.get(d, 0) + 1
    beta = None if counts is None else \
        BettiDistribution(p, q, abel.b1(p), counts)
    return characters, beta


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
    (p, q).  jobs only spreads the character enumeration over workers; A=
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
    A = G.alexander
    total = A.abel.b1(q)
    for orbits in _galois_orbits(factors, q):
        for orbit in orbits:
            rho = orbit[0]
            gen_exps = [sum(E // c * r * row[j]
                            for r, c, row in zip(rho, factors, images)) % E
                        for j in range(G.P.num_generators)]
            coords = coordinate_exponents_from_generators(A.abel, E, gen_exps)
            total += len(orbit) * engine.depth_of_exponents(coords)
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
    D = gcd(*(len(orbit) for orbits in _galois_orbits([k], q)
              for orbit in orbits))
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
    return max((engine.depth_of_exponents(
        tuple(k // m * e for m, e in zip(moduli, orbit[0])))
        for orbits in _galois_orbits(moduli, q) for orbit in orbits),
        default=0)
