"""Exact integer Smith normal form.

Everything here works with arbitrary-precision Python integers; there is
no floating point anywhere.  Ranks over finite fields are the depth
engine's (charvar), not this module's.  The single convention used
throughout the package: an m x n integer matrix A presents the abelian
group Z^n / (row space of A).

smith_normal_form is the one Smith-form entry point; it takes sparse rows
{column: value}.  Without a basis it starts with a unit-pivot phase: every
+-1 entry that can serve as a pivot is eliminated with one row operation
per row it meets, as in homology-scale Smith forms (Dumas, Heckenbach,
Saunders and Welker, "Computing simplicial homology based on efficient
Smith normal form algorithms", 2003).  What is left, its zero rows and
columns dropped, goes to the dense Euclidean loop, the one other
elimination path.  The abelianization asks for the basis V of the column
operations, and V^-1; the Euclidean loop then runs on the whole matrix
and tracks both.  Reidemeister-Schreier Fox matrices of the oracle's
covers are a few percent nonzero, nearly all of it +-1; those of the
arrangement groups' abelian covers reduce by unit pivots alone.
"""

from __future__ import annotations

from .errors import InvariantViolation


class SmithForm:
    """Result of a Smith normal form computation.

    divisors: the nonzero diagonal d_1 | d_2 | ... | d_r (1's retained).
    rank: r.  coker_free_rank: cols - r, the free rank of Z^cols / rowspace.
    basis and inverse, present only when requested: V and V^-1 as lists of
    rows, with U*A*V = diag(divisors) for some U of determinant +-1.  The
    abelianization needs both directions of the change of basis.
    """

    __slots__ = ("divisors", "rank", "coker_free_rank", "basis", "inverse")

    def __init__(self, divisors, cols, basis=None, inverse=None):
        self.divisors = list(divisors)
        self.rank = len(self.divisors)
        self.coker_free_rank = cols - self.rank
        self.basis = basis
        self.inverse = inverse

    def coker_torsion(self):
        """Elementary divisors > 1, i.e. the torsion of the cokernel."""
        return [d for d in self.divisors if d > 1]


def _least_nonzero_pivot(a, t, rows, cols):
    """Position of the nonzero entry of smallest absolute value in the
    trailing block a[t:, t:], or None."""
    best = None
    best_val = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            v = ai[j]
            if v != 0 and (best_val is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
                if best_val == 1:
                    return best
    return best


def _balanced_div(x, d):
    """Quotient and remainder with |remainder| <= |d| / 2."""
    q, r = divmod(x, d)
    if 2 * abs(r) > abs(d):
        q += 1
        r -= d
    return q, r


def smith_normal_form(rows, cols, want_basis=False):
    """Smith normal form of the matrix whose rows are dicts {column: value}
    over the columns 0..cols-1; zero values may be present or left out.

    Unit pivots go first (_unit_pivots), each contributing a divisor 1;
    the remainder, with its zero rows and columns dropped, goes to the
    Euclidean loop.  With want_basis=True (the abelianization, which needs
    V and V^-1) the Euclidean loop runs on the whole matrix instead.  The
    rows are not modified.
    """
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    if any(row and (min(row) < 0 or max(row) >= cols) for row in rows):
        raise ValueError("a column index lies outside the stated shape")
    if want_basis:
        dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
        return _euclidean_snf(dense, len(rows), cols, want_basis=True)
    units, rest = _unit_pivots(rows)
    used = sorted({j for row in rest for j in row})
    index = {j: t for t, j in enumerate(used)}
    dense = [[0] * len(used) for _ in rest]
    for out, row in zip(dense, rest):
        for j, v in row.items():
            out[index[j]] = v
    form = _euclidean_snf(dense, len(rest), len(used))
    divisors = [1] * units + form.divisors
    if len(divisors) > min(len(rows), cols):
        raise InvariantViolation(f"SNF rank {len(divisors)} exceeds the "
                                 f"{len(rows)} x {cols} shape")
    return SmithForm(divisors, cols)


def _unit_pivots(rows):
    """Eliminate +-1 pivots from sparse rows, in place.

    The unit-pivot phase of homology-scale Smith forms (Dumas, Heckenbach,
    Saunders and Welker, "Computing simplicial homology based on efficient
    Smith normal form algorithms", 2003).  Each sweep visits the live rows
    shortest first and, in a row that holds a +-1, pivots on the one whose
    column has the fewest live entries: a row operation clears that column
    from every other row, and then the pivot row and column are dropped,
    which column operations would do without touching anything else, so
    the Smith form is diag(1, rest).  Sweeps repeat until one finds no
    unit.  Returns the number of pivots and the nonempty rows left.
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for j in row:
            if j in col_rows:
                col_rows[j].add(i)
            else:
                col_rows[j] = {i}
    live = {i for i, row in enumerate(rows) if row}
    units = 0
    pivoted = True
    while pivoted:
        pivoted = False
        for i in sorted(live, key=lambda i: (len(rows[i]), i)):
            if i not in live:
                continue
            row = rows[i]
            best = None
            for j, v in row.items():
                if v == 1 or v == -1:
                    key = (len(col_rows[j]), j)
                    if best is None or key < best:
                        best = key
            if best is None:
                continue
            c = best[1]
            u = row.pop(c)
            for j in row:
                col_rows[j].discard(i)
            others = col_rows.pop(c)
            others.discard(i)
            for r in others:
                target = rows[r]
                # target -= (target[c] / u) * pivot row, and 1/u = u
                f = target.pop(c) * u
                for j, v in row.items():
                    x = target.get(j, 0) - f * v
                    if x:
                        if j not in target:
                            col_rows[j].add(r)
                        target[j] = x
                    else:
                        del target[j]
                        col_rows[j].discard(r)
                if not target:
                    live.discard(r)
            rows[i] = {}
            live.discard(i)
            units += 1
            pivoted = True
    return units, [rows[i] for i in sorted(live)]


def _euclidean_snf(a, rows, cols, want_basis=False):
    """The Euclidean loop of smith_normal_form on the dense rows a, which
    it overwrites.

    The pivot is re-chosen as the nonzero entry of least absolute value in
    the whole trailing block before every reduction sweep, and reduction
    uses nearest-integer quotients, so the pivot at least halves whenever
    a sweep leaves a nonzero remainder; this keeps intermediate entries
    from the explosive growth a fixed pivot suffers.  The divisibility
    chain is enforced at the end by folding offending diagonal entries
    back into a 2 x 2 block.  Exact for any input.
    """
    if want_basis:
        v = [[int(i == j) for j in range(cols)] for i in range(cols)]
        vinv = [row[:] for row in v]
    else:
        v = vinv = None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        asrc, adst = a[src], a[dst]
        for k in range(cols):
            adst[k] += c * asrc[k]

    def add_col(src, dst, c):
        # col dst += c * col src
        for row in a:
            row[dst] += c * row[src]
        if v is not None:
            for row in v:
                row[dst] += c * row[src]
            # inverse op on vinv: row src -= c * row dst
            wsrc, wdst = vinv[src], vinv[dst]
            for k in range(cols):
                wsrc[k] -= c * wdst[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _least_nonzero_pivot(a, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            piv = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q, r = _balanced_div(a[i][t], piv)
                    if q:
                        add_row(t, i, -q)
                    if r:
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    q, r = _balanced_div(a[t][j], piv)
                    if q:
                        add_col(t, j, -q)
                    if r:
                        clean = False
            if clean:
                break
            pos = _least_nonzero_pivot(a, t, rows, cols)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                # fold d_{i+1} into the 2x2 block at (i, i) and re-reduce
                add_col(i + 1, i, 1)
                q = a[i + 1][i] // a[i][i]
                add_row(i, i + 1, -q)
                while a[i + 1][i] != 0:
                    swap_rows(i, i + 1)
                    q = a[i + 1][i] // a[i][i]
                    add_row(i, i + 1, -q)
                q = a[i][i + 1] // a[i][i]
                add_col(i, i + 1, -q)
                if a[i][i + 1]:
                    raise InvariantViolation("SNF left an off-diagonal entry")
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True

    divisors = [a[i][i] for i in range(r)]
    if any(d <= 0 for d in divisors) or \
            any(divisors[i + 1] % divisors[i] for i in range(r - 1)):
        raise InvariantViolation(f"SNF divisors {divisors} are not a chain")

    return SmithForm(divisors, cols, v, vinv)
