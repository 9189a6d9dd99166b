"""Independent brute-force validators.

Everything here counts by explicit enumeration over finite group tables:
homomorphisms and epimorphisms from a presented group, automorphism group
orders, subgroup lattices with their Moebius function, and the homology of
a finite-index subgroup from the permutation action on its cosets (Fox
derivatives, permutation matrices, Smith normal form).  Nothing in this
module touches Alexander matrices, characters, or depth, so its numbers
check the closed formulas from the outside.

Homomorphisms are counted by one backtracking search over generator
images.  Each relator is checked as soon as its last generator is
assigned, and after each assignment the unassigned generators split into
the connected components of the relators still open, whose counts
multiply (the component decomposition of model counting: Sang, Beame and
Kautz, SAT 2004).  A single relator whose letters fall into
generator-disjoint blocks (a surface word) never splits; it is counted by
convolving the value distributions of its blocks instead.  Epimorphisms
are counted by Moebius inversion over the brute-forced subgroup lattice.
Every search and every target-table build is checked against a budget and
raises BudgetExceeded rather than returning a partial count.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .foxcalc import fox_derivative
from .linalg import IntMatrix, InvariantViolation, smith_normal_form


class BudgetExceeded(Exception):
    """Enumeration would exceed the partial-assignment budget."""


def check_table_budget(order, budget):
    """Raise BudgetExceeded before a multiplication table of order^2
    entries is built past the budget, or past 5M entries whatever the
    budget."""
    if order * order > min(budget, 5_000_000):
        raise BudgetExceeded(f"a group table of order {order} has "
                             f"{order * order} entries, over the budget")


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
    if len(tree) != T1.order:
        raise InvariantViolation("generating set does not reach every element")
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


@lru_cache(maxsize=128)
def _search_plan(relators, l):
    """The component tree of the homomorphism search; it depends only on
    the relators, so one plan serves every target table.

    A forest is (nodes, free): free counts the unassigned generators that
    no remaining relator involves, and each node heads one connected
    component of the rest.  A node (g, checks, forest) assigns g, checks
    the relators that this assignment completes, and splits the still
    unassigned generators of its component into the child forest.  Within
    a component the branch is the generator in the most relators, then
    with the most distinct unassigned neighbours, then completing the
    most relators, then with the most letters, then the lowest index.
    """
    occurrences = [0] * l
    for r in relators:
        for g, e in r.syllables:
            occurrences[g] += abs(e)

    def forest(gens, live):
        nodes, free, seen = [], 0, set()
        for start in sorted(gens):
            if start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                g = frontier.pop()
                for _, sup in live:
                    if g in sup and not sup <= component:
                        frontier.extend(sup - component)
                        component |= sup
            seen |= component
            rels = [(i, sup) for i, sup in live if sup <= component]
            if rels:
                nodes.append(node(component, rels))
            else:
                free += 1
        return nodes, free

    def node(component, rels):
        def score(g):
            mine = [sup for _, sup in rels if g in sup]
            return (len(mine), len(set().union(*mine)),
                    sum(len(sup) == 1 for sup in mine), occurrences[g], -g)
        g = max(component, key=score)
        checks = [relators[i].letters() for i, sup in rels if sup == {g}]
        rest = [(i, sup - {g}) for i, sup in rels if sup != {g}]
        return g, checks, forest(component - {g}, rest)

    return forest(set(range(l)), [(i, r.support())
                                  for i, r in enumerate(relators)])


def _dfs_count(relators, l, T, budget):
    """|Hom| into T by backtracking over the component tree: the counts of
    sibling components multiply, and every partial assignment is charged
    to the budget."""
    n = T.order
    identity = T.identity
    images = [None] * l
    budget_left = budget

    def count_forest(forest):
        nodes, free = forest
        total = n ** free
        for child in nodes:
            if not total:
                break
            total *= count_node(child)
        return total

    def count_node(node):
        nonlocal budget_left
        g, checks, forest = node
        total = 0
        for v in range(n):
            if budget_left <= 0:
                raise BudgetExceeded("homomorphism search budget exhausted")
            budget_left -= 1
            images[g] = v
            if all(_eval_word(prog, images, T) == identity for prog in checks):
                total += count_forest(forest)
        return total

    return count_forest(_search_plan(tuple(relators), l))


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


def hom_count(P, T, mode="all", budget=10 ** 8):
    """Number of homomorphisms from the presented group to the table.

    mode 'all' counts every homomorphism, mode 'epi' only those whose
    images generate.  Raises BudgetExceeded rather than returning a
    partial count when the enumeration is too large.
    """
    if mode not in ("all", "epi"):
        raise ValueError("mode must be 'all' or 'epi'")
    if mode == "epi":
        return _epi_by_moebius(P, T, budget)
    relators = tuple(r for r in P.relators if not r.is_identity())
    l = P.num_generators
    blocks = _plan_blocks(relators, l, T.order, budget)
    if blocks is not None:
        return blocks(T)
    return _dfs_count(relators, l, T, budget)


def _epi_by_moebius(P, T, budget):
    """Epimorphism count by Moebius inversion over the subgroup lattice."""
    mu = T.moebius()
    total = 0
    for H, m in mu.items():
        if m == 0:
            continue
        sub, _ = T.subgroup_table(H)
        total += m * hom_count(P, sub, "all", budget)
    if total < 0:
        raise InvariantViolation("negative epimorphism count")
    return total


def delta_oracle(P, T, budget=10 ** 8):
    """Hall invariant by pure enumeration: |Epi(P, T)| / |Aut(T)|."""
    epi = hom_count(P, T, "epi", budget)
    aut = aut_order(T)
    if epi % aut:
        raise InvariantViolation("epimorphism count not divisible by |Aut|")
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
    if betti < 0:
        raise InvariantViolation("cover homology has negative Betti number")
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
    if N < 1:
        raise ValueError("N must be positive")
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
