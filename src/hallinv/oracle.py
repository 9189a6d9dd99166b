"""Independent brute-force validators.

Everything here counts by explicit enumeration over finite group tables:
homomorphisms and epimorphisms from a presented group, automorphism group
orders, subgroup lattices with their Moebius function, and the homology of
a finite-index subgroup from the permutation action on its cosets (Fox
derivatives, permutation matrices, Smith normal form).  Nothing in this
module touches Alexander matrices, characters, or depth, so its numbers
check the closed formulas from the outside.

Backtracking over generator images, pruned as soon as a relator's support
is fully assigned, is the default counting strategy.  Two reorganized
enumerations cover shapes the plain search cannot finish: a single relator
whose letters split into generator-disjoint blocks (surface words) is
counted by convolving block distributions, and generators that appear only
in relators otherwise supported on a small base set (direct-product and
semidirect shapes, optionally with one central generator) are counted
pointwise per base assignment.  Epimorphism counts use a per-solution
generation check under backtracking, and Moebius inversion over the
brute-forced subgroup lattice when a reorganized plan is in play.
"""

from __future__ import annotations

from itertools import permutations, product

from .foxcalc import fox_derivative
from .linalg import IntMatrix, smith_normal_form


class BudgetExceeded(Exception):
    """Enumeration would exceed the partial-assignment budget."""


class FiniteGroupTable:
    """A finite group as an index multiplication table, verified on build."""

    def __init__(self, mul, check=True):
        self.order = len(mul)
        self.mul = [list(row) for row in mul]
        self.identity = None
        for e in range(self.order):
            if all(self.mul[e][x] == x == self.mul[x][e]
                   for x in range(self.order)):
                self.identity = e
                break
        if self.identity is None:
            raise ValueError("no identity element")
        self.inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.mul[x][y] == self.identity:
                    self.inv[x] = y
                    break
            if self.inv[x] is None or self.mul[self.inv[x]][x] != self.identity:
                raise ValueError("missing inverse")
        if check:
            m = self.mul
            for a in range(self.order):
                ma = m[a]
                for b in range(self.order):
                    mab = ma[b]
                    mb = m[b]
                    for c in range(self.order):
                        if m[mab][c] != ma[mb[c]]:
                            raise ValueError("multiplication not associative")
        self._subgroups = None
        self._moebius = None

    # -- constructors

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)],
                   check=False)

    @classmethod
    def abelian(cls, factors):
        """Direct sum of cyclic groups of the given orders."""
        factors = list(factors)
        n = 1
        for c in factors:
            n *= c

        def decode(i):
            out = []
            for c in factors:
                out.append(i % c)
                i //= c
            return out

        def encode(v):
            i = 0
            base = 1
            for c, x in zip(factors, v):
                i += x * base
                base *= c
            return i

        mul = [[encode([(a + b) % c for a, b, c in
                        zip(decode(i), decode(j), factors)])
                for j in range(n)] for i in range(n)]
        return cls(mul, check=False)

    @classmethod
    def symmetric(cls, k):
        elts = sorted(permutations(range(k)))
        index = {p: i for i, p in enumerate(elts)}
        mul = [[index[tuple(p[q[i]] for i in range(k))] for q in elts]
               for p in elts]
        return cls(mul, check=False)

    # -- structure queries

    def power(self, x, e):
        out = self.identity
        if e < 0:
            x, e = self.inv[x], -e
        for _ in range(e):
            out = self.mul[out][x]
        return out

    def element_order(self, x):
        n = 1
        y = x
        while y != self.identity:
            y = self.mul[y][x]
            n += 1
        return n

    def closure(self, elements):
        """Subgroup generated by the given elements, as a frozenset."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(elements) + [self.inv[g] for g in elements]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def generates(self, elements):
        return len(self.closure(elements)) == self.order

    def centralizer(self, elements):
        return [x for x in range((self.order))
                if all(self.mul[x][g] == self.mul[g][x] for g in elements)]

    def all_subgroups(self):
        """Every subgroup, found by closing known subgroups with one more
        generator until nothing new appears."""
        if self._subgroups is None:
            trivial = frozenset([self.identity])
            found = {trivial}
            frontier = [trivial]
            while frontier:
                H = frontier.pop()
                for g in range(self.order):
                    if g not in H:
                        K = self.closure(set(H) | {g})
                        if K not in found:
                            found.add(K)
                            frontier.append(K)
            self._subgroups = sorted(found, key=lambda s: (len(s), sorted(s)))
        return self._subgroups

    def moebius(self):
        """Moebius function of the subgroup lattice: mu of the whole group
        is 1, and mu sums to zero over the subgroups above any proper one."""
        if self._moebius is None:
            subs = self.all_subgroups()
            mu = {}
            for H in sorted(subs, key=len, reverse=True):
                if len(H) == self.order:
                    mu[H] = 1
                else:
                    mu[H] = -sum(mu[K] for K in subs
                                 if len(K) > len(H) and H < K)
            self._moebius = mu
        return self._moebius

    def subgroup_table(self, elements):
        """The subgroup as its own table, plus the embedding index list."""
        embed = sorted(elements)
        back = {g: i for i, g in enumerate(embed)}
        mul = [[back[self.mul[a][b]] for b in embed] for a in embed]
        return FiniteGroupTable(mul, check=False), embed

    def minimal_generating_set(self):
        """A small generating set by greedy closure growth."""
        if self.order == 1:
            return []
        gens = []
        current = frozenset([self.identity])
        while len(current) < self.order:
            best, best_len = None, -1
            for g in range(self.order):
                if g in current:
                    continue
                size = len(self.closure(gens + [g]))
                if size > best_len:
                    best, best_len = g, size
            gens.append(best)
            current = self.closure(gens)
        return gens

    def is_abelian(self):
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(a))


def _bfs_tree(T, gens):
    """Spanning words: element -> (parent, generator index), root = identity."""
    tree = {T.identity: None}
    queue = [T.identity]
    while queue:
        x = queue.pop(0)
        for gi, g in enumerate(gens):
            y = T.mul[x][g]
            if y not in tree:
                tree[y] = (x, gi)
                queue.append(y)
    order = [T.identity] + [y for y in tree if tree[y] is not None]
    return tree, order


def _count_generator_images(T1, T2, bijective_only=True):
    """Homomorphisms T1 -> T2 determined by images of a minimal generating
    set of T1, checked against the whole table; counts the bijective ones."""
    gens = T1.minimal_generating_set()
    if not gens:
        return 1 if T2.order == 1 or not bijective_only else int(T2.order == 1)
    tree, order = _bfs_tree(T1, gens)
    assert len(tree) == T1.order
    count = 0
    for images in product(range(T2.order), repeat=len(gens)):
        phi = {T1.identity: T2.identity}
        for y in order[1:]:
            x, gi = tree[y]
            phi[y] = T2.mul[phi[x]][images[gi]]
        if bijective_only and len(set(phi.values())) != T1.order:
            continue
        if all(phi[T1.mul[a][b]] == T2.mul[phi[a]][phi[b]]
               for a in range(T1.order) for b in range(T1.order)):
            count += 1
    return count


def aut_order(T):
    """|Aut(T)| by enumerating generator images and checking the table."""
    return _count_generator_images(T, T, bijective_only=True)


def tables_isomorphic(T1, T2):
    """Brute-force isomorphism test for small tables."""
    if T1.order != T2.order:
        return False
    return _count_generator_images(T1, T2, bijective_only=True) > 0


# ---------------------------------------------------------------------------
# homomorphism counting

def _eval_word(letters, images, T):
    x = T.identity
    mul = T.mul
    inv = T.inv
    for g, s in letters:
        y = images[g]
        x = mul[x][y if s > 0 else inv[y]]
    return x


def _completion_order(relators, l):
    """Assign generators so relators complete (and prune) early: repeatedly
    pick the generator finishing the most relators, breaking ties by total
    occurrences."""
    supports = [r.support() for r in relators]
    occurrences = [0] * l
    for r in relators:
        for g, e in r.syllables:
            occurrences[g] += abs(e)
    chosen = []
    remaining = set(range(l))
    while remaining:
        def score(g):
            s = set(chosen) | {g}
            completed = sum(1 for sup in supports if sup <= s and g in sup)
            touched = sum(1 for sup in supports if g in sup)
            return (completed, touched, occurrences[g], -g)
        nxt = max(remaining, key=score)
        chosen.append(nxt)
        remaining.discard(nxt)
    return chosen


def _dfs_count(relators, l, T, mode, budget):
    order = _completion_order(relators, l)
    position = {g: i for i, g in enumerate(order)}
    schedule = [[] for _ in range(l + 1)]
    for r in relators:
        depth = max(position[g] + 1 for g in r.support())
        schedule[depth].append(r.letters())

    images = [None] * l
    budget_left = [budget]
    n = T.order
    identity = T.identity
    generates_cache = {}

    def leaf_value():
        if mode != "epi":
            return 1
        key = frozenset(images)
        hit = generates_cache.get(key)
        if hit is None:
            hit = T.generates(key)
            generates_cache[key] = hit
        return 1 if hit else 0

    def recurse(depth):
        if depth == l:
            return leaf_value()
        g = order[depth]
        total = 0
        checks = schedule[depth + 1]
        for v in range(n):
            if budget_left[0] <= 0:
                raise BudgetExceeded("homomorphism search budget exhausted")
            budget_left[0] -= 1
            images[g] = v
            if all(_eval_word(prog, images, T) == identity for prog in checks):
                total += recurse(depth + 1)
        images[g] = None
        return total

    return recurse(0)


def _plan_blocks(relators, l, n_elements, budget):
    """Plan for a single relator splitting into generator-disjoint letter
    blocks (surface-type words); None when the shape does not fit."""
    if len(relators) != 1:
        return None
    letters = relators[0].letters()
    support = relators[0].support()
    spans = {}
    for pos, (g, _) in enumerate(letters):
        lo, hi = spans.get(g, (pos, pos))
        spans[g] = (min(lo, pos), max(hi, pos))
    intervals = sorted(spans.values())
    blocks = []
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            blocks.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    blocks.append((cur_lo, cur_hi))
    if len(blocks) < 2:
        return None
    block_gens = [sorted({g for g, _ in letters[lo:hi + 1]})
                  for lo, hi in blocks]
    if max(len(bg) for bg in block_gens) > 3:
        return None
    if n_elements ** max(len(bg) for bg in block_gens) > budget:
        return None
    free = l - len(support)

    def run(table):
        n = table.order
        dist = None
        for (lo, hi), gens in zip(blocks, block_gens):
            prog = [(gens.index(g), s) for g, s in letters[lo:hi + 1]]
            f = [0] * n
            for assignment in product(range(n), repeat=len(gens)):
                f[_eval_word(prog, assignment, table)] += 1
            if dist is None:
                dist = f
            else:
                conv = [0] * n
                for a, fa in enumerate(dist):
                    if fa:
                        row = table.mul[a]
                        for b, fb in enumerate(f):
                            if fb:
                                conv[row[b]] += fa * fb
                dist = conv
        return dist[table.identity] * n ** free

    return run


def _find_central_generator(relators, supports, l):
    """A generator whose relators are single commutators covering every
    other generator; the shape produced by a direct factor of Z."""
    for z in range(l):
        partners = set()
        ok = False
        for r, sup in zip(relators, supports):
            if z not in sup:
                continue
            others = sup - {z}
            if len(others) != 1 or not _is_commutator_pair(r, z):
                ok = False
                break
            partners.update(others)
            ok = True
        if ok and partners == set(range(l)) - {z}:
            return z
    return None


def _is_commutator_pair(r, z):
    s = r.syllables
    if len(s) != 4:
        return False
    gens = [g for g, _ in s]
    exps = [e for _, e in s]
    return (gens[0] == gens[2] and gens[1] == gens[3]
            and gens[0] != gens[1] and z in gens
            and exps[0] == -exps[2] and exps[1] == -exps[3]
            and all(abs(e) == 1 for e in exps))


def _plan_attached(relators, l, n_elements, base_budget=600_000):
    """Plan for presentations where each of several generators appears only
    in relators whose other generators lie in a small common base set; an
    optional central generator is counted through centralizer sizes.

    Returns None when the shape does not fit or the base enumeration would
    be larger than base_budget assignments.
    """
    supports = [r.support() for r in relators]
    used = set().union(*supports) if supports else set()
    central = _find_central_generator(relators, supports, l)

    core_pairs = [(r, sup) for r, sup in zip(relators, supports)
                  if central is None or central not in sup]
    core = (used - {central}) if central is not None else set(used)

    membership = {g: sum(g in sup for _, sup in core_pairs) for g in core}
    attached = []
    for g in sorted(core, key=lambda g: (membership[g], g)):
        rels_g = [sup for _, sup in core_pairs if g in sup]
        if rels_g and all((sup - {g}).isdisjoint(attached) for sup in rels_g):
            attached.append(g)
    base = sorted(core - set(attached))
    if not attached and central is None:
        return None
    if n_elements ** len(base) > base_budget:
        return None

    position = {g: i for i, g in enumerate(base)}
    schedule = [[] for _ in range(len(base) + 1)]
    per_attached = {g: [] for g in attached}
    for r, sup in core_pairs:
        extra = sup - set(base)
        if not extra:
            depth = max(position[g] + 1 for g in sup)
            schedule[depth].append(r.letters())
        else:
            (g,) = extra
            per_attached[g].append(r.letters())
    free = l - len(used)

    def run(table):
        n = table.order
        identity = table.identity
        images = [None] * l
        total = 0

        def candidates(g):
            out = []
            progs = per_attached[g]
            for v in range(n):
                images[g] = v
                if all(_eval_word(p, images, table) == identity for p in progs):
                    out.append(v)
            images[g] = None
            return out

        def recurse(depth):
            nonlocal total
            if depth == len(base):
                sets = [candidates(g) for g in attached]
                if central is None:
                    prod_count = 1
                    for s in sets:
                        prod_count *= len(s)
                    total += prod_count
                else:
                    base_vals = [images[g] for g in base]
                    for combo in product(*sets):
                        total += len(table.centralizer(
                            base_vals + list(combo)))
                return
            g = base[depth]
            checks = schedule[depth + 1]
            for v in range(n):
                images[g] = v
                if all(_eval_word(p, images, table) == identity
                       for p in checks):
                    recurse(depth + 1)
            images[g] = None

        recurse(0)
        return total * n ** free

    return run


def hom_count(P, T, mode="all", budget=10 ** 8):
    """Number of homomorphisms from the presented group to the table.

    mode 'all' counts every homomorphism, mode 'epi' only those whose
    images generate.  Raises BudgetExceeded rather than returning a
    partial count when the enumeration is too large.
    """
    if mode not in ("all", "epi"):
        raise ValueError("mode must be 'all' or 'epi'")
    relators = [r for r in P.relators if not r.is_identity()]
    l = P.num_generators

    if not relators:
        if mode == "all":
            return T.order ** l
        return _epi_by_moebius(P, T, budget)

    plan = (_plan_blocks(relators, l, T.order, budget)
            or _plan_attached(relators, l, T.order,
                              base_budget=min(600_000, budget)))
    if plan is not None:
        if mode == "all":
            return plan(T)
        return _epi_by_moebius(P, T, budget)

    if mode == "epi" and T.order ** l > 2_000_000:
        # one pruned search per subgroup beats a generation check at
        # every leaf of a large search
        return _epi_by_moebius(P, T, budget)
    return _dfs_count(relators, l, T, mode, budget)


def _epi_by_moebius(P, T, budget):
    """Epimorphism count by Moebius inversion over the subgroup lattice."""
    mu = T.moebius()
    total = 0
    for H, m in mu.items():
        if m == 0:
            continue
        sub, _ = T.subgroup_table(H)
        total += m * hom_count(P, sub, "all", budget)
    assert total >= 0
    return total


def delta_oracle(P, T, budget=10 ** 8):
    """Hall invariant by pure enumeration: |Epi(P, T)| / |Aut(T)|."""
    epi = hom_count(P, T, "epi", budget)
    aut = aut_order(T)
    assert epi % aut == 0, "epimorphism count not divisible by |Aut|"
    return epi // aut


# ---------------------------------------------------------------------------
# cover homology (finite-index subgroups via coset actions)

def _compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def _invert_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _word_permutation(w, gen_perms, k):
    out = tuple(range(k))
    for g, e in w.syllables:
        p = gen_perms[g] if e > 0 else _invert_perm(gen_perms[g])
        for _ in range(abs(e)):
            out = _compose_perm(out, p)
    return out


def cover_homology(P, gen_perms):
    """H_1 of the index-k subgroup stabilizing 0 under the coset action.

    gen_perms[j] is the permutation of {0..k-1} induced by generator j; the
    action must be transitive.  The Fox Jacobian with each word replaced by
    its permutation matrix presents H_1(K) + Z^{k-1}; its Smith form gives
    back (betti number of K, torsion divisors of K).
    """
    l = P.num_generators
    if len(gen_perms) != l:
        raise ValueError("one permutation per generator required")
    k = len(gen_perms[0]) if gen_perms else 1
    for p in gen_perms:
        if sorted(p) != list(range(k)):
            raise ValueError("not a permutation")
    orbit = {0}
    frontier = [0]
    inverses = [_invert_perm(p) for p in gen_perms]
    while frontier:
        x = frontier.pop()
        for p in list(gen_perms) + inverses:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    if len(orbit) != k:
        raise ValueError("coset action is not transitive")

    m = len(P.relators)
    big = IntMatrix.zeros(m * k, l * k)
    for i, r in enumerate(P.relators):
        for j in range(l):
            d = fox_derivative(r, j)
            for w, coeff in d.terms.items():
                perm = _word_permutation(w, gen_perms, k)
                for b in range(k):
                    big.entries[i * k + perm[b]][j * k + b] += coeff
    form = smith_normal_form(big)
    betti = form.coker_free_rank - (k - 1)
    assert betti >= 0
    return betti, form.coker_torsion()


def cover_b1(P, gen_perms, q):
    """Mod-q first Betti number of the subgroup fixed by the action."""
    betti, torsion = cover_homology(P, gen_perms)
    if q == 0:
        return betti
    return betti + sum(1 for d in torsion if d % q == 0)


def regular_cyclic_action(N, images):
    """Coset action of the kernel of a map onto Z_N: generator j adds
    images[j] mod N."""
    return [tuple((b + a) % N for b in range(N)) for a in images]


def regular_abelian_action(factors, images):
    """Coset action of the kernel of a map onto a direct sum of cyclic
    groups Z_{factors[i]}; images[i][j] is the i-th coordinate of the
    image of generator j."""
    n = 1
    for c in factors:
        n *= c

    def decode(code):
        out = []
        for c in factors:
            out.append(code % c)
            code //= c
        return out

    def encode(vec):
        code = 0
        base = 1
        for c, x in zip(factors, vec):
            code += x * base
            base *= c
        return code

    perms = []
    for j in range(len(images[0])):
        shift = [images[i][j] for i in range(len(factors))]
        perms.append(tuple(encode([(x + s) % c for x, s, c in
                                   zip(decode(b), shift, factors)])
                           for b in range(n)))
    return perms
