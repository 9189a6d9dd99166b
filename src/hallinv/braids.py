"""Named fixtures, and the one function that builds horizontal ones.

A named arrangement fixture (braid_arrangement, non_fano, deleted_b3 and
the tabulated horizontal:<perm>) is read from its frozen presentation
file.  The builders from braid monodromy (Cohen and Suciu, "The braid
monodromy of plane algebraic curves and hyperplane arrangements",
Comment. Math. Helv. 72, 1997), with the braid-group toolkit they share
(braid words, free automorphisms, the Artin action), live in
tests/reference.py, where the regression tests regenerate every frozen
file from them and check the builder here on every permutation.

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

from .errors import InvariantViolation
from .presentations import Presentation, Word


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


def horizontal_arrangement_group(tau):
    """Group of the horizontal plane arrangement with permutation tau,
    the sequence (tau_1, ..., tau_n): F_{n-1} x| Z, the generator y of Z
    acting by the Artin action phi of xi^2, where the combed braid xi on
    n-1 strands is the product over j of the band generators

        A_{i,j} = sigma_{j-1} ... sigma_{i+1} sigma_i^2
                  sigma_{i+1}^-1 ... sigma_{j-1}^-1

    for the pairs i < j <= n-1 that the inverse permutation inverts.
    The letters of xi^2 act leftmost first.  Relators are
    y x_i y^-1 phi(x_i)^-1.  xi^2 is a pure braid, so each phi(x_i)
    abelianizes to x_i; InvariantViolation is raised otherwise."""
    n = len(tau)
    if sorted(tau) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    if n < 2:
        raise ValueError("need at least two planes")
    k = n - 1
    position = [0] * (n + 1)
    for idx, value in enumerate(tau):
        position[value] = idx
    letters = []
    for j in range(2, n):
        for i in range(1, j):
            if position[i] > position[j]:
                letters += [(t, True) for t in range(j - 1, i, -1)]
                letters += [(i, True), (i, True)]
                letters += [(t, False) for t in range(i + 1, j)]
    images = [Word.generator(g) for g in range(k)]
    for i, forward in letters * 2:
        phi = _elementary_images(i, k, forward)
        images = [w.substitute(phi) for w in images]
    for g, w in enumerate(images):
        if any(w.exponent_sum(h) != (h == g) for h in range(k)):
            raise InvariantViolation(
                f"the image of x{g + 1} under a pure braid does not "
                f"abelianize to x{g + 1}")
    y = Word.generator(k)
    return Presentation(
        [f"x{g}" for g in range(1, n)] + ["y1"],
        [y * Word.generator(g) * y.inverse() * w.inverse()
         for g, w in enumerate(images)])


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
