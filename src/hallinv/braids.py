"""Named fixtures, and the braid machinery that builds horizontal ones.

A named arrangement fixture (braid_arrangement, non_fano, deleted_b3 and
the tabulated horizontal:<perm>) is read from its frozen presentation
file.  The builders from braid monodromy (Cohen and Suciu, "The braid
monodromy of plane algebraic curves and hyperplane arrangements",
Comment. Math. Helv. 72, 1997) live in tests/reference.py, where the
regression tests regenerate every frozen file from them.

A horizontal:<perm> with no frozen file is built here, as the free group
on n-1 generators extended by Z acting through the square of the combed
braid, a product of band generators A_{i,j}.  Braid words act on free
groups through the Artin representation.  The elementary generator on
strands i, i+1 maps x_i to x_i x_{i+1} x_i^{-1} and x_{i+1} to x_i, and
a braid word acts by composing its letters with the leftmost letter
applied first; both choices are validated empirically by the
characteristic-variety golden values of the arrangement groups (see
tests), which is the only calibration available since the conventions
differ across the literature.
"""

from __future__ import annotations

from .linalg import smith_normal_form
from .presentations import Presentation, Word


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

    def __pow__(self, n):
        letters = self.letters if n >= 0 else \
            tuple((i, -s) for i, s in reversed(self.letters))
        return BraidWord(self.strands, letters * abs(n))

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and other.strands == self.strands
                and other.letters == self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {list(self.letters)})"


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

    def __eq__(self, other):
        return (isinstance(other, FreeAutomorphism)
                and other.rank == self.rank and other.images == self.images)

    def __repr__(self):
        return f"FreeAutomorphism({self.rank}, {list(self.images)})"


def _abelianized_determinant_unit(rank, images):
    """True when the abelianized image matrix is unimodular (a necessary
    condition for the images to generate)."""
    form = smith_normal_form([{j: w.exponent_sum(j) for j in range(rank)}
                              for w in images], rank)
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


def artin_action(b):
    """The free-group automorphism of a braid word.

    The leftmost letter acts first, so under classical function
    composition artin(uv) = artin(v) o artin(u) (a right action of the
    braid group, as in the classical Artin representation).  The opposite
    elementary action is the rejected alternate, which the tests build to
    show that the golden values select this one.  The letters' actions
    are composed on the image words, and the result is checked once.
    """
    k = b.strands
    images = [Word.generator(j) for j in range(k)]
    for i, s in b.letters:
        phi = _elementary_images(i, k, s > 0)
        images = [w.substitute(phi) for w in images]
    return FreeAutomorphism(k, images)


# ---------------------------------------------------------------------------
# pure-braid generators

def pure_generator(i, j, k):
    """The band generator A_{i,j}: strand j passes in front of the strands
    between i and j, twists fully with strand i, and returns."""
    if not 1 <= i < j <= k:
        raise ValueError("need 1 <= i < j <= number of strands")
    letters = [(t, 1) for t in range(j - 1, i, -1)]
    letters += [(i, 1), (i, 1)]
    letters += [(t, -1) for t in range(i + 1, j)]
    return BraidWord(k, letters)


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

def semidirect_presentation(phis):
    """F_k x| F_m for automorphisms phi_1..phi_m of F_k.

    Generators x_1..x_k, y_1..y_m; relators y_j x_i y_j^-1 = phi_j(x_i).
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
    return Presentation(names, relators)


def horizontal_arrangement_group(tau):
    """Group of the horizontal plane arrangement with permutation tau:
    the free group on n-1 generators extended by Z acting as the square
    of the combed braid."""
    xi = xi_from_permutation(tau)
    phi = artin_action(xi ** 2)
    return semidirect_presentation([phi])


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
    """A named presentation: a frozen arrangement fixture, read from its
    file (the tests regenerate the files from braid monodromy, so golden
    values do not ride on the braid code), a horizontal:<perm> with no
    frozen file built on the fly from its braid, or a standard family like
    free:3, product:2,2, surface:2, rp:4.  A family parameter that does
    not parse is a ValueError naming the shape."""
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
        return horizontal_arrangement_group(ns)
    path = _frozen_path(name)
    if not path.is_file():
        raise ValueError(f"unknown fixture {name!r}")
    return parse_presentation(path.read_text())
