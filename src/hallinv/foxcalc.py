"""Fox derivatives, the abelianization structure, and the Alexander matrix.

The Fox derivative d/dx_j is the linear map on the free group ring with
d(x_i)/dx_j = delta_ij and d(uv)/dx_j = du/dx_j e(v) + u dv/dx_j, where e
is the augmentation.  Applied to the relators and pushed through a fixed
isomorphism chi of H_1(G) onto sum Z_{e_i} (+) Z^n, the Fox Jacobian
becomes the Alexander matrix, with entries in the Laurent ring

    Z[t_1^{+-1}, ..., t_n^{+-1}, s_1, ..., s_h] / (s_i^{e_i} - 1).

Nothing downstream does arithmetic in either ring; it only reads terms.
Every term of a Fox derivative of a word is a prefix of the word, so the
free group ring never appears: fox_terms names each term by its place in
the word, and each consumer reads the term's image (in H_1, or as a
permutation of cosets) off the images of the word's prefixes.  A Laurent
polynomial is a plain dict {coordinate tuple: coefficient} without zero
coefficients, each term's tuple its monomial's exponents, the torsion
coordinates first, as AbelStructure writes every element of H_1.

chi itself comes from the Smith normal form of the augmented Jacobian and
is therefore deterministic; every count computed downstream is independent
of this choice, up to the usual monomial change of basis.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .linalg import smith_normal_form


def fox_terms(w):
    """The terms of every Fox derivative of the group element w, syllable
    by syllable.

    For syllable i = (g, e) of w, with u_i its first i syllables, yields
    (i, g, k, c) for each term c * u_i g^k of dw/dx_g, from
    d(x^e)/dx = 1 + x + ... + x^{e-1} for e > 0 and
    -(x^{-1} + ... + x^{e}) for e < 0, together with d(uv) = du + u dv
    (valid since e(v) = 1 for group elements): k runs 0, ..., e - 1 with
    c = 1 when e > 0, and -1, ..., e with c = -1 when e < 0.  Each term is
    a prefix of w, and as w is reduced no two of them are equal.
    """
    for i, (g, e) in enumerate(w.syllables):
        if e > 0:
            for k in range(e):
                yield i, g, k, 1
        else:
            for k in range(-1, e - 1, -1):
                yield i, g, k, -1


def augmentation_jacobian(P):
    """The generator exponent sums of the relators, one row per relator."""
    return [[r.exponent_sum(j) for j in range(P.num_generators)]
            for r in P.relators]


class AbelStructure:
    """A fixed isomorphism chi: H_1(G) -> sum_i Z_{e_i} (+) Z^n.

    torsion: the elementary divisors e_i > 1, in a divisibility chain.
    free_rank: n.  An element of H_1 is one coordinate tuple: the torsion
    coordinates first, each reduced mod its divisor, then the free ones.
    images[j] is the tuple of generator j, and coordinate_rows[c] an
    integer generator-exponent row representing coordinate basis vector c,
    which is how characters given on generators get converted to
    coordinates.  jacobian is the presentation's augmentation_jacobian,
    built once by abelianization for every later reader.
    """

    __slots__ = ("free_rank", "torsion", "images", "coordinate_rows",
                 "jacobian")

    def __init__(self, free_rank, torsion, images, coordinate_rows,
                 jacobian):
        self.free_rank = free_rank
        self.torsion = list(torsion)
        self.images = images
        self.coordinate_rows = coordinate_rows
        self.jacobian = jacobian

    @property
    def num_coordinates(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, v):
        """The coordinate tuple of an integer coordinate vector v."""
        h = len(self.torsion)
        return tuple(t % d for t, d in zip(v, self.torsion)) + tuple(v[h:])

    def chi(self, exponent_vector):
        """Image of a generator exponent vector, as a coordinate tuple."""
        out = [0] * self.num_coordinates
        for e, image in zip(exponent_vector, self.images):
            if e:
                out = [a + e * b for a, b in zip(out, image)]
        return self.reduce(out)

    def b1(self, q):
        """Mod-q first Betti number; q = 0 gives the ordinary one."""
        if q == 0:
            return self.free_rank
        return self.free_rank + sum(1 for e in self.torsion if e % q == 0)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z_{e}" for e in self.torsion]
        return "H1 = " + (" + ".join(parts) if parts else "0")


def abelianization(P):
    """AbelStructure of a presentation, from the SNF of the augmented Jacobian.

    With U J V = D, the quotient Z^l / rowspace(J) is carried isomorphically
    onto Z^l / rowspace(D) by right multiplication with V; generator j has
    coordinates given by row j of V, and coordinate c pulls back to row c
    of V^{-1}.
    """
    J = augmentation_jacobian(P)
    l = P.num_generators
    form = smith_normal_form([dict(enumerate(row)) for row in J], l,
                             want_basis=True)
    V, vinv = form.basis, form.inverse
    r = form.rank
    divisors = form.divisors
    keep = [i for i in range(r) if divisors[i] > 1]
    abel = AbelStructure(
        l - r, [divisors[i] for i in keep],
        tuple(tuple(V[j][i] % divisors[i] for i in keep) + tuple(V[j][r:])
              for j in range(l)),
        tuple(map(tuple, [vinv[i] for i in keep] + vinv[r:])), J)
    for row in J:
        if any(abel.chi(row)):
            raise InvariantViolation("a relator has nonzero image in H_1")
    return abel


class AlexanderMatrix:
    """The Fox Jacobian of a presentation pushed through chi.

    entries is an m x l grid (m relators, l generators) of dicts
    {coordinate tuple: coefficient}, zero coefficients left out;
    augmenting every entry (all variables -> 1), that is summing its
    coefficients, recovers the integer augmented Jacobian.
    """

    __slots__ = ("abel", "entries", "num_relators", "num_generators")

    def __init__(self, abel, entries, num_generators):
        self.abel = abel
        self.entries = entries
        self.num_relators = len(entries)
        self.num_generators = num_generators

    def dump(self):
        """One line per entry: `(i,j): c * t^(v) * s^(w) + ...`, v the free
        part and w the torsion part of each term's tuple, the terms sorted
        by (v, w)."""
        h = len(self.abel.torsion)
        lines = []
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if not entry:
                    continue
                parts = []
                for v, w, coeff in sorted(
                        (key[h:], key[:h], c) for key, c in entry.items()):
                    piece = f"{coeff}"
                    if any(v):
                        piece += f" * t^{list(v)}"
                    if any(w):
                        piece += f" * s^{list(w)}"
                    parts.append(piece)
                lines.append(f"({i},{j}): " + " + ".join(parts))
        return "\n".join(lines)


def alexander_matrix(P, abel=None):
    """The Alexander matrix of P in the chi basis of abel.  The Fox term
    c * u_i g^k of a relator maps under chi to the image of its prefix u_i,
    a running sum of the syllables' images along the relator, plus k times
    the image of g."""
    if abel is None:
        abel = abelianization(P)
    images = abel.images
    entries = []
    for r in P.relators:
        sums = [(0,) * abel.num_coordinates]  # images of the prefixes
        for g, e in r.syllables:
            sums.append([a + e * b for a, b in zip(sums[-1], images[g])])
        row = [{} for _ in range(P.num_generators)]
        for i, g, k, c in fox_terms(r):
            key = abel.reduce([a + k * b for a, b in zip(sums[i], images[g])])
            terms = row[g]
            new = terms.get(key, 0) + c
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        entries.append(row)
    A = AlexanderMatrix(abel, entries, P.num_generators)
    for i in range(A.num_relators):
        for j in range(A.num_generators):
            if sum(A.entries[i][j].values()) != abel.jacobian[i][j]:
                raise InvariantViolation(
                    f"Alexander entry ({i},{j}) does not augment to the "
                    "Jacobian")
    return A
