"""Pure-braid machinery and the arrangement-group presentation builders.

Braid words act on free groups through the Artin representation.  The
elementary generator on strands i, i+1 maps x_i to x_i x_{i+1} x_i^{-1}
and x_{i+1} to x_i, and a braid word acts by composing its letters with
the leftmost letter applied first; both choices are validated empirically
by the characteristic-variety golden values of the arrangement groups
built here (see tests), which is the only calibration available since the
conventions differ across the literature.

Band generators A_{i,j} twist one pair of strands; the full twist on an
arbitrary index set I slides the strands of I together (passing over the
strands in between, with positive crossings), performs the full twist on
the now-adjacent block, and slides back.
"""

from __future__ import annotations

from .linalg import IntMatrix, smith_normal_form
from .presentations import Presentation, Word, direct_product_with_Z


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

    def inverse(self):
        return BraidWord(self.strands,
                         tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, n):
        if n == 0:
            return BraidWord.identity(self.strands)
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and other.strands == self.strands
                and other.letters == self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {list(self.letters)})"


def conjugate_braid(a, b):
    """a conjugated by b: b^-1 a b."""
    return b.inverse() * a * b


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

    @classmethod
    def identity(cls, rank):
        return cls(rank, [Word.generator(i) for i in range(rank)])

    def is_identity(self):
        return all(w == Word.generator(i) for i, w in enumerate(self.images))

    def __eq__(self, other):
        return (isinstance(other, FreeAutomorphism)
                and other.rank == self.rank and other.images == self.images)

    def __repr__(self):
        return f"FreeAutomorphism({self.rank}, {list(self.images)})"


def _abelianized_determinant_unit(rank, images):
    """True when the abelianized image matrix is unimodular (a necessary
    condition for the images to generate)."""
    M = IntMatrix(rank, rank, [[w.exponent_sum(j) for j in range(rank)]
                               for w in images])
    form = smith_normal_form(M)
    return form.rank == rank and all(d == 1 for d in form.divisors)


def _elementary_images(i, k, forward):
    """Generator images of the Artin action of sigma_i (forward) or its
    inverse, on strands i, i+1 of k."""
    images = [Word.generator(j) for j in range(k)]
    a, b = Word.generator(i - 1), Word.generator(i)
    if forward:
        images[i - 1], images[i] = a * b * a.inverse(), a
    else:
        images[i - 1], images[i] = b, b.inverse() * a * b
    return images


def artin_action(b, *, reversed_convention=False):
    """The free-group automorphism of a braid word.

    The leftmost letter acts first, so under classical function
    composition artin(uv) = artin(v) o artin(u) (a right action of the
    braid group, as in the classical Artin representation).  With
    reversed_convention the opposite elementary action is used (the
    documented alternate, kept so the tests can demonstrate that the
    golden values select the convention).  The letters' actions are
    composed on the image words, and the result is checked once.
    """
    k = b.strands
    images = [Word.generator(j) for j in range(k)]
    for i, s in b.letters:
        phi = _elementary_images(i, k, (s > 0) != reversed_convention)
        images = [w.substitute(phi) for w in images]
    return FreeAutomorphism(k, images)


# ---------------------------------------------------------------------------
# pure-braid generators and full twists

def pure_generator(i, j, k):
    """The band generator A_{i,j}: strand j passes in front of the strands
    between i and j, twists fully with strand i, and returns."""
    if not 1 <= i < j <= k:
        raise ValueError("need 1 <= i < j <= number of strands")
    letters = [(t, 1) for t in range(j - 1, i, -1)]
    letters += [(i, 1), (i, 1)]
    letters += [(t, -1) for t in range(i + 1, j)]
    return BraidWord(k, letters)


def _adjacent_full_twist(a, size, k):
    """Full twist on the adjacent strands a, a+1, ..., a+size-1."""
    single = [(t, 1) for t in range(a, a + size - 1)]
    return BraidWord(k, single * size)


def full_twist(indices, k, *, opposite=False):
    """Full twist A_I on an arbitrary strand set I.

    The strands of I are slid next to min(I) by a permutation braid C of
    positive crossings, the adjacent block is fully twisted, and C is
    undone: A_I = C T C^-1.  Conjugating on the other side (`opposite`,
    the first candidate convention) fails the non-Fano golden values,
    which is how this side was frozen.
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
        return C.inverse() * T * C
    return C * T * C.inverse()


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


# ---------------------------------------------------------------------------
# presentation builders

def semidirect_presentation(phis, add_central_Z=False):
    """F_k x| F_m for automorphisms phi_1..phi_m of F_k, optionally times Z.

    Generators x_1..x_k, y_1..y_m (and z); relators
    y_j x_i y_j^-1 = phi_j(x_i), plus z central when requested.
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
    P = Presentation(names, relators)
    if add_central_Z:
        P = direct_product_with_Z(P)
    return P


def monodromy_presentation(phis, add_central_Z=False):
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
    P = Presentation(names, relators)
    if add_central_Z:
        P = direct_product_with_Z(P)
    return P


def horizontal_arrangement_group(tau):
    """Group of the horizontal plane arrangement with permutation tau:
    the free group on n-1 generators extended by Z acting as the square
    of the combed braid."""
    xi = xi_from_permutation(tau)
    phi = artin_action(xi ** 2)
    return semidirect_presentation([phi])


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
_NON_FANO_STRANDS = 6
_DELETED_B3_STRANDS = 4


def _non_fano_braids():
    A = pure_generator
    F = full_twist
    conj = conjugate_braid
    k = _NON_FANO_STRANDS
    return [
        F([3, 4, 5], k),
        conj(F([1, 2, 5], k), A(3, 5, k) * A(4, 5, k)),
        conj(A(1, 4, k), A(3, 4, k)),
        F([1, 3, 6], k),
        conj(F([2, 4, 6], k), A(3, 4, k) * A(3, 6, k)),
    ]


def _deleted_b3_braids():
    A = pure_generator
    conj = conjugate_braid
    k = _DELETED_B3_STRANDS
    return [
        A(2, 3, k),
        conj(A(1, 3, k), A(2, 3, k)) * A(2, 4, k),
        conj(A(1, 4, k), A(2, 4, k)),
    ]


def build_fixture(name):
    """Construct a named arrangement-group presentation from braid data."""
    if name == "braid_arrangement":
        return pure_braid_presentation(4)
    if name == "non_fano":
        phis = [artin_action(b) for b in _non_fano_braids()]
        return monodromy_presentation(phis, add_central_Z=True)
    if name == "deleted_b3":
        phis = [artin_action(b) for b in _deleted_b3_braids()]
        return semidirect_presentation(phis, add_central_Z=True)
    if name.startswith("horizontal:"):
        tau = [int(c) for c in name.split(":", 1)[1]]
        return horizontal_arrangement_group(tau)
    raise ValueError(f"unknown fixture {name!r}")


def _frozen_path(name):
    from importlib.resources import files
    fname = name.replace("horizontal:", "a") + ".pres"
    return files("hallinv") / "fixtures" / fname


# fixture family -> the shape its parameter takes
_FIXTURE_SHAPES = {
    "free": "free:n",
    "product": "product:n1,n2,...",
    "surface": "surface:g",
    "rp": "rp:n",
    "horizontal": "horizontal:<a permutation of 1..n, as digits>",
}


def fixture(name):
    """A named presentation: the frozen arrangement fixtures (regenerated
    from braid data only by the regression tests, so golden values do not
    ride on the braid code), a horizontal:<perm> built on the fly, or a
    standard family like free:3, product:2,2, surface:2, rp:4.  A family
    parameter that does not parse is a ValueError naming the shape."""
    from .presentations import (free_group, nonorientable_surface_group,
                                orientable_surface_group, parse_presentation,
                                product_of_free_groups)
    if ":" in name:
        family, _, arg = name.partition(":")
        if family not in _FIXTURE_SHAPES:
            raise ValueError(f"unknown fixture {name!r}")
        try:
            ns = [int(x) for x in (arg if family == "horizontal"
                                   else arg.split(","))]
        except ValueError:
            ns = []
        if not ns or len(ns) > 1 and family in ("free", "surface", "rp"):
            raise ValueError(f"{name}: expected {_FIXTURE_SHAPES[family]}")
        if family == "free":
            return free_group(ns[0])
        if family == "product":
            return product_of_free_groups(ns)
        if family == "surface":
            return orientable_surface_group(ns[0])
        if family == "rp":
            return nonorientable_surface_group(ns[0])
        path = _frozen_path(name)
        if path.is_file():
            return parse_presentation(path.read_text())
        return build_fixture(name)
    path = _frozen_path(name)
    if not path.is_file():
        raise ValueError(f"unknown fixture {name!r}")
    return parse_presentation(path.read_text())


FROZEN_FIXTURES = ("braid_arrangement", "non_fano", "deleted_b3",
                   "horizontal:123", "horizontal:1234", "horizontal:2134",
                   "horizontal:12345", "horizontal:21345",
                   "horizontal:21435", "horizontal:31425",
                   "horizontal:123456")
