"""Independent brute-force validators.

Everything here counts by explicit enumeration over finite group tables:
homomorphisms and epimorphisms from a presented group, automorphism group
orders, subgroup lattices with their Moebius function, and the homology of
a finite-index subgroup from the permutation action on its cosets (Fox
derivatives, permutation matrices, Smith normal form).  Nothing in this
module touches Alexander matrices, characters, or depth, so its numbers
check the closed formulas from the outside.

The cover's Fox matrix is built as sparse rows, one walk along each
relator: every Fox term is a prefix of the relator, so its permutation of
the cosets is the running composite of the letters read so far.  The
matrix goes to linalg.smith_normal_form, the one Smith-form entry point,
which reduces it by unit pivots first and then the Euclidean loop on
whatever is left (Dumas, Heckenbach, Saunders and Welker, "Computing
simplicial homology based on efficient Smith normal form algorithms",
2003).  Its nonzeros are nearly all +-1, and on the abelian
covers of the arrangement groups the unit pivots leave nothing.

Homomorphisms are counted by one backtracking search over generator
images.  Each relator is checked as soon as its last generator is
assigned, and after each assignment the unassigned generators split into
the connected components of the relators still open, whose counts
multiply (the component decomposition of model counting: Sang, Beame and
Kautz, SAT 2004).  A single relator whose letters fall into
generator-disjoint blocks (a surface word) never splits; it is counted by
convolving the value distributions of its blocks instead.

A check is a relator completed at a node's generator g: every other
generator in it is assigned higher up the path, so which values v of g
pass depends only on v and the images the check reads.  The search keys
each check's passing values, a bit mask over the table, by those images
packed into one integer in base |T|, and builds the mask only on a miss:
each maximal g-free segment of the relator, its tail rotated onto its
head, is folded into one table element, and each v is tested against the
folded relator through per-search tables of powers x^e.  A node keeps an
orbit representative v when bit v of the AND of its checks' masks is set.
The memos live for one search, since the plan is shared across tables.
Nodes are visited and charged exactly as when every check was walked
letter by letter, so every count and budget verdict is unchanged.

The search runs up to conjugacy, along a stabilizer chain (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, the homomorphism
search).  A node's generator ranges over the orbits of a subgroup S of
the target T acting by conjugation, taking each orbit's representative
and weighting its subtree's count by the orbit size.  S is all of T at a
top-level component; below a node that assigned v it is S intersected
with the centralizer of v, so S is the centralizer of the images on the
node's path to the root.  This is exact: conjugation by an element of S
fixes every image on the path, maps homomorphisms to homomorphisms, and
so permutes the completions of the node's component, sending those with
the generator at v to those with it at a conjugate of v.  The orbit data
is built once per table, at the first search.

Epimorphisms are counted by Moebius inversion over the brute-forced
subgroup lattice: |Epi(G, T)| is the sum of mu(H) |Hom(G, H)|.  Conjugate
subgroups have the same mu and isomorphic tables, so each conjugacy class
of subgroups costs one hom count, times the class size.

Every search, subgroup lattice, automorphism count and target-table build
is checked against a budget and raises BudgetExceeded rather than
returning a partial count.  The backtracking search is charged the partial
assignments of the unreduced search, which tries every element at every
node: a node reached through orbits of sizes s_1, ..., s_k stands for
s_1 ... s_k unreduced nodes of |T| assignments each, so the budget a
request needs does not depend on the reduction.  The block convolution
is priced before it runs, at |T| to the number of generators of its
largest block, and is charged nothing more; a relator it cannot take
within the budget goes to the search.  So `oracle --target sym:5
--fixture surface:2` answers at budget 120^2 = 14400, where its unreduced
search has 120^4 assignments.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import gcd
from operator import itemgetter

from .foxcalc import fox_terms
from .errors import InvariantViolation
from .linalg import smith_normal_form


# The budget every brute-force route takes when none is given.
DEFAULT_BUDGET = 10 ** 8


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
    """A finite group as an index multiplication table, verified on build.

    Associativity is checked by Light's test.  The elements a with
    (xa)y = x(ay) for all x, y include the identity and are closed under
    products: for two of them, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
    = x((ab)y).  The check picks generators until closure() reaches every
    element as a product of them and their inverses, so checking those
    elements proves the whole table associative, in n^2 steps per element
    checked where checking every triple takes n^3.
    """

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
        # x's inverse is the first y with xy = 1, and yx = 1 must hold too
        self.inv = [row.index(self.identity) if self.identity in row else None
                    for row in self.mul]
        if any(y is None or self.mul[y][x] != self.identity
               for x, y in enumerate(self.inv)):
            raise ValueError("missing inverse")
        if check:
            gens = []
            while len(reached := self.closure(gens)) < self.order:
                gens.append(next(x for x in range(self.order)
                                 if x not in reached))
            m = self.mul
            for a in gens + [self.inv[g] for g in gens]:
                # times_a(row x) lists x(ay) and row xa lists (xa)y, for
                # y = 0, 1, ...
                times_a = itemgetter(*m[a])
                if any(times_a(m[x]) != tuple(m[m[x][a]])
                       for x in range(self.order)):
                    raise ValueError("multiplication not associative")
        self._subgroups = None
        self._moebius = None
        self._centralizer_ids = None
        self._orbits = None

    # -- constructors

    @classmethod
    def cyclic(cls, n):
        return cls.abelian([n])

    @classmethod
    def abelian(cls, factors):
        """Direct sum of cyclic groups of the given orders, numbered as
        _translations numbers it: row a is the translation by element a."""
        vectors = [v[::-1] for v in product(*map(range, reversed(factors)))]
        return cls(_translations(factors, vectors), check=False)

    @classmethod
    def symmetric(cls, k):
        elts = sorted(permutations(range(k)))
        index = {p: i for i, p in enumerate(elts)}
        mul = [[index[tuple(p[q[i]] for i in range(k))] for q in elts]
               for p in elts]
        return cls(mul, check=False)

    # -- structure queries

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

    def all_subgroups(self, budget=DEFAULT_BUDGET):
        """Every subgroup, found by closing known subgroups with one more
        generator until nothing new appears.  Each closure is charged its
        size, and BudgetExceeded is raised once the total passes budget."""
        if self._subgroups is None:
            trivial = frozenset([self.identity])
            # each subgroup found, with the generators it was closed from
            gens = {trivial: []}
            frontier = [trivial]
            spent = 0
            while frontier:
                H = frontier.pop()
                for g in range(self.order):
                    if g not in H:
                        K = self.closure(gens[H] + [g])
                        spent += len(K)
                        if spent > budget:
                            raise BudgetExceeded(
                                "subgroup lattice budget exhausted")
                        if K not in gens:
                            gens[K] = gens[H] + [g]
                            frontier.append(K)
            self._subgroups = sorted(gens, key=lambda s: (len(s), sorted(s)))
        return self._subgroups

    def moebius(self, budget=DEFAULT_BUDGET):
        """Moebius function of the subgroup lattice: mu of the whole group
        is 1, and mu sums to zero over the subgroups above any proper one.
        The lattice is built within budget (all_subgroups)."""
        if self._moebius is None:
            subs = self.all_subgroups(budget)
            mu = {}
            for H in sorted(subs, key=len, reverse=True):
                if len(H) == self.order:
                    mu[H] = 1
                else:
                    mu[H] = -sum(mu[K] for K in subs
                                 if len(K) > len(H) and H < K)
            self._moebius = mu
        return self._moebius

    def conjugates(self, H):
        """The conjugacy class of the subgroup H, as a set of frozensets."""
        mul, inv = self.mul, self.inv
        return {frozenset(mul[mul[t][h]][inv[t]] for h in H)
                for t in range(self.order)}

    def conjugation_orbits(self, sid):
        """Orbits of the subgroup S numbered sid acting on the table by
        conjugation, as [(representative, orbit size, number of the
        representative's centralizer in S)].  Subgroup 0 is the whole
        group; the others are numbered as they first appear as
        centralizers, and each orbit list is built when first asked for."""
        if self._orbits is None:
            whole = tuple(range(self.order))
            self._centralizer_ids = {whole: 0}
            self._orbits = [[whole, None]]
        S, orbits = self._orbits[sid]
        if orbits is None:
            mul, inv = self.mul, self.inv
            seen = set()
            orbits = []
            for x in range(self.order):
                if x in seen:
                    continue
                orbit = {mul[mul[s][x]][inv[s]] for s in S}
                seen |= orbit
                C = tuple(s for s in S if mul[s][x] == mul[x][s])
                cid = self._centralizer_ids.setdefault(C, len(self._orbits))
                if cid == len(self._orbits):
                    self._orbits.append([C, None])
                orbits.append((x, len(orbit), cid))
            self._orbits[sid][1] = orbits
        return orbits

    def subgroup_table(self, elements):
        """The subgroup as its own table, its elements in increasing
        order."""
        embed = sorted(elements)
        back = {g: i for i, g in enumerate(embed)}
        mul = [[back[self.mul[a][b]] for b in embed] for a in embed]
        return FiniteGroupTable(mul, check=False)

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


def _count_generator_images(T1, T2, budget=DEFAULT_BUDGET):
    """Isomorphisms T1 -> T2: maps determined by images of a minimal
    generating set of T1, kept when bijective and checked against the
    whole table.
    Raises BudgetExceeded before it starts if the image tuples outnumber
    budget."""
    gens = T1.minimal_generating_set()
    if not gens:
        return int(T2.order == 1)
    if T2.order ** len(gens) > budget:
        raise BudgetExceeded(f"{T2.order}^{len(gens)} generator images "
                             "exceed the budget")
    tree, order = _bfs_tree(T1, gens)
    if len(tree) != T1.order:
        raise InvariantViolation("generating set does not reach every element")
    count = 0
    for images in product(range(T2.order), repeat=len(gens)):
        phi = {T1.identity: T2.identity}
        for y in order[1:]:
            x, gi = tree[y]
            phi[y] = T2.mul[phi[x]][images[gi]]
        if len(set(phi.values())) != T1.order:
            continue
        if all(phi[T1.mul[a][b]] == T2.mul[phi[a]][phi[b]]
               for a in range(T1.order) for b in range(T1.order)):
            count += 1
    return count


def aut_order(T, budget=DEFAULT_BUDGET):
    """|Aut(T)| by enumerating generator images and checking the table,
    within budget image tuples."""
    return _count_generator_images(T, T, budget)


# ---------------------------------------------------------------------------
# homomorphism counting

def _power_tables(T, relators):
    """pows[e][x] = x^e for each exponent e of the relators' syllables,
    each list taken by repeated squaring over the whole table."""
    mul, n = T.mul, T.order
    pows = {}
    for r in relators:
        for _, e in r.syllables:
            if e in pows:
                continue
            base = list(range(n)) if e > 0 else list(T.inv)
            out = [T.identity] * n
            k = abs(e)
            while k:
                if k & 1:
                    out = [mul[a][b] for a, b in zip(out, base)]
                k >>= 1
                if k:
                    base = [mul[b][b] for b in base]
            pows[e] = out
    return pows


def _compile_check(number, relator, g):
    """The relator numbered number, completed by generator g, as (number,
    reads, exps, segments).  reads are its other generators, sorted.  The
    rotation of the relator that starts at its first power of g reads
    g^exps[0] segments[0] g^exps[1] segments[1] ..., each segment a tuple
    of g-free syllables; the last one is the tail followed by the head."""
    syllables = relator.syllables
    first = next(i for i, (h, _) in enumerate(syllables) if h == g)
    exps, segments = [], []
    for h, e in syllables[first:] + syllables[:first]:
        if h == g:
            exps.append(e)
            segments.append([])
        else:
            segments[-1].append((h, e))
    return (number, tuple(sorted(relator.support() - {g})), tuple(exps),
            tuple(map(tuple, segments)))


@lru_cache(maxsize=128)
def _search_plan(relators, l):
    """The component tree of the homomorphism search; it depends only on
    the relators, so one plan serves every target table.

    A forest is (nodes, free): free counts the unassigned generators that
    no remaining relator involves, and each node heads one connected
    component of the rest.  A node (g, checks, forest) assigns g, checks
    the relators that this assignment completes, and splits the still
    unassigned generators of its component into the child forest; each
    check is a relator compiled by _compile_check, numbered by its index in
    relators.  Within a component the branch is the generator in the most
    relators, then with the most distinct unassigned neighbours, then
    completing the most relators, then with the most letters, then the
    lowest index.
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
        checks = [_compile_check(i, relators[i], g)
                  for i, sup in rels if sup == {g}]
        rest = [(i, sup - {g}) for i, sup in rels if sup != {g}]
        return g, checks, forest(component - {g}, rest)

    return forest(set(range(l)), [(i, r.support())
                                  for i, r in enumerate(relators)])


def _dfs_count(relators, l, T, budget):
    """|Hom| into T by backtracking over the component tree, up to
    conjugacy: the counts of sibling components multiply, and a node's
    generator takes one value per orbit of the centralizer S of the images
    on its path, weighted by the orbit size.  A node reached through
    orbits of sizes s_1, ..., s_k stands for s_1 * ... * s_k nodes of the
    unreduced search, and is charged that many times T.order, so the
    budget counts the partial assignments of the unreduced search.

    The values of the node's generator that pass a check form a bit mask
    over the table, which depends only on the images the check reads; it
    is built once per assignment of those images and kept, for this
    search only, in the check's memo under the images packed in base
    T.order."""
    n = T.order
    mul, identity = T.mul, T.identity
    images = [None] * l
    budget_left = budget
    orbits = T.conjugation_orbits
    pows = _power_tables(T, relators)
    memos = [{} for _ in relators]
    everything = (1 << n) - 1

    def check_mask(check):
        _, _, exps, segments = check
        folded = []
        for segment in segments:
            x = identity
            for h, e in segment:
                x = mul[x][pows[e][images[h]]]
            folded.append(x)
        # v passes iff v^e_0 s_0 ... v^e_{k-1} s_{k-1} = 1, that is iff
        # v^e_0 s_0 ... v^e_{k-1} equals the inverse of s_{k-1}
        xs = pows[exps[0]]
        for s, e in zip(folded, exps[1:]):
            xs = [mul[mul[x][s]][y] for x, y in zip(xs, pows[e])]
        target = T.inv[folded[-1]]
        mask = 0
        for v, x in enumerate(xs):
            if x == target:
                mask |= 1 << v
        return mask

    def count_nodes(nodes, sid, weight):
        total = 1
        for child in nodes:
            total *= count_node(child, sid, weight)
            if not total:
                break
        return total

    def count_node(node, sid, weight):
        nonlocal budget_left
        g, checks, (nodes, free) = node
        budget_left -= weight * n
        if budget_left < 0:
            raise BudgetExceeded("homomorphism search budget exhausted")
        passing = everything
        for check in checks:
            key = 0
            for h in check[1]:
                key = key * n + images[h]
            memo = memos[check[0]]
            mask = memo.get(key)
            if mask is None:
                mask = memo[key] = check_mask(check)
            passing &= mask
        if not passing:
            return 0
        total = 0
        for v, size, child in orbits(sid):
            if passing >> v & 1:
                if nodes:
                    images[g] = v
                    total += size * count_nodes(nodes, child, weight * size)
                else:
                    total += size
        return total * n ** free

    nodes, free = _search_plan(tuple(relators), l)
    return n ** free * count_nodes(nodes, 0, 1)


def _plan_blocks(relators, l, n_elements, budget):
    """Plan for a single relator splitting into generator-disjoint letter
    blocks (surface-type words); None when the shape does not fit."""
    if len(relators) != 1:
        return None
    syllables = relators[0].syllables
    support = relators[0].support()
    spans = {}
    for pos, (g, _) in enumerate(syllables):
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
    block_gens = [sorted({g for g, _ in syllables[lo:hi + 1]})
                  for lo, hi in blocks]
    if max(len(bg) for bg in block_gens) > 3:
        return None
    if n_elements ** max(len(bg) for bg in block_gens) > budget:
        return None
    free = l - len(support)

    def run(table):
        n = table.order
        mul, identity = table.mul, table.identity
        pows = _power_tables(table, relators)
        dist = None
        for (lo, hi), gens in zip(blocks, block_gens):
            prog = [(gens.index(g), pows[e]) for g, e in syllables[lo:hi + 1]]
            f = [0] * n
            for assignment in product(range(n), repeat=len(gens)):
                x = identity
                for i, p in prog:
                    x = mul[x][p[assignment[i]]]
                f[x] += 1
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


def hom_count(P, T, mode="all", budget=DEFAULT_BUDGET):
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
    """Epimorphism count by Moebius inversion over the subgroup lattice,
    one term per conjugacy class of subgroups: conjugate subgroups have
    the same Moebius value and isomorphic tables, so one hom count times
    the class size stands for the class."""
    mu = T.moebius(budget)
    done = set()
    total = 0
    for H, m in mu.items():
        if m == 0 or H in done:
            continue
        conjugates = T.conjugates(H)
        if any(mu[K] != m for K in conjugates):
            raise InvariantViolation("Moebius function not constant on a "
                                     "conjugacy class of subgroups")
        done |= conjugates
        sub = T.subgroup_table(H)
        total += m * len(conjugates) * hom_count(P, sub, "all", budget)
    if total < 0:
        raise InvariantViolation("negative epimorphism count")
    return total


def delta_oracle(P, T):
    """Hall invariant by pure enumeration: |Epi(P, T)| / |Aut(T)|."""
    epi = hom_count(P, T, "epi")
    aut = aut_order(T)
    if epi % aut:
        raise InvariantViolation("epimorphism count not divisible by |Aut|")
    return epi // aut


# ---------------------------------------------------------------------------
# cover homology (finite-index subgroups via coset actions)

def cover_homology(P, gen_perms):
    """H_1 of the index-k subgroup stabilizing 0 under the coset action.

    gen_perms[j] is the permutation of {0..k-1} induced by generator j, its
    image in S_k; the action must be transitive, and every relator must act
    as the identity so that the action comes from a homomorphism to S_k.
    The Fox Jacobian with each word replaced by its permutation matrix
    presents H_1(K) + Z^{k-1}; its Smith form gives back (betti number of
    K, torsion divisors of K).  The Jacobian is built as sparse rows, each
    relator contributing one row per coset, and reduced by
    linalg.smith_normal_form.
    """
    l = P.num_generators
    if len(gen_perms) != l:
        raise ValueError("one image per generator required")
    k = len(gen_perms[0]) if gen_perms else 1
    for p in gen_perms:
        if sorted(p) != list(range(k)):
            raise ValueError("not a permutation")
    inverses = [tuple(sorted(range(k), key=p.__getitem__))
                for p in gen_perms]
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in list(gen_perms) + inverses:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    if len(orbit) != k:
        raise ValueError("coset action is not transitive")

    identity = tuple(range(k))
    rows = [{} for _ in range(len(P.relators) * k)]
    for i, r in enumerate(P.relators):
        # act is the prefix read so far acting on the cosets, its letters
        # applied right to left.  A term of a positive syllable of g is the
        # prefix before a letter g, one of a negative syllable the prefix
        # ending in a letter g^-1.
        act = identity
        for _, g, _, c in fox_terms(r):
            if c < 0:
                act = tuple(act[b] for b in inverses[g])
            for b in range(k):
                row, col = rows[i * k + act[b]], g * k + b
                row[col] = row.get(col, 0) + c
            if c > 0:
                act = tuple(act[b] for b in gen_perms[g])
        if act != identity:
            raise ValueError(f"not a homomorphism: relator {i + 1} does "
                             f"not act as the identity on the cosets")
    form = smith_normal_form(rows, l * k)
    betti = form.coker_free_rank - (k - 1)
    if betti < 0:
        raise InvariantViolation("cover homology has negative Betti number")
    return betti, form.coker_torsion()


def mod_q_betti(betti, torsion, q):
    """First Betti number with F_q coefficients (Q at q = 0) of a group
    whose H_1 is Z^betti plus the cyclic groups of the torsion divisors."""
    if q == 0:
        return betti
    return betti + sum(1 for d in torsion if d % q == 0)


def cover_b1(P, gen_perms, q):
    """Mod-q first Betti number of the subgroup fixed by the action."""
    return mod_q_betti(*cover_homology(P, gen_perms), q)


def regular_cyclic_action(N, images):
    """Coset action of the kernel of a map onto Z_N: generator j adds
    images[j] mod N.  The images must generate Z_N."""
    if N < 1:
        raise ValueError("N must be positive")
    if gcd(N, *images) != 1:
        raise ValueError(f"images do not generate Z_{N}")
    return _translations([N], ((a,) for a in images))


def regular_abelian_action(factors, images):
    """Coset action of the kernel of a map onto a direct sum of cyclic
    groups Z_{factors[i]}; images[i][j] is the i-th coordinate of the
    image of generator j."""
    return _translations(factors, zip(*images))


def _translations(factors, shifts):
    """For each shift vector, the permutation b -> b + shift of
    Z_{factors[0]} + ... + Z_{factors[-1]}, element b numbered in mixed
    radix with the first coordinate least significant."""
    perms = []
    for shift in shifts:
        perm, base = [0], 1
        for c, x in zip(factors, shift):
            perm = [a + (y + x) % c * base for y in range(c) for a in perm]
            base *= c
        perms.append(tuple(perm))
    return perms
