import random

import pytest

from hallinv.presentations import (
    ParseError, Presentation, Word, commutator, free_group,
    nonorientable_surface_group, orientable_surface_group,
    parse_presentation, product_of_free_groups, render_presentation,
)
from reference import direct_product_with_Z, letters


def W(*sylls):
    return Word(sylls)


def test_free_reduction():
    x, y = Word.generator(0), Word.generator(1)
    assert (x * y) * y.inverse() == x
    assert (x * y * x.inverse()).inverse() == x * y.inverse() * x.inverse()
    u = x * y ** 3 * x.inverse()
    assert (u * u.inverse()).is_identity()


def test_word_multiply_associative_random():
    rng = random.Random(3)
    def rand_word():
        return Word([(rng.randrange(3), rng.choice([-2, -1, 1, 2]))
                     for _ in range(rng.randrange(6))])
    for _ in range(200):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert (u * v) * w == u * (v * w)
        # reduction is idempotent
        assert Word(u.syllables) == u
        assert (u * v).inverse() == v.inverse() * u.inverse()
        # products, powers and substitutions reduce as the checked
        # constructor does
        assert u * v == Word(u.syllables + v.syllables)
        n = rng.choice([-3, -1, 2])
        assert u ** n == Word(u.syllables * n if n > 0 else
                              [(g, -e) for g, e in
                               reversed(u.syllables)] * -n)
        images = [v, w, u * w]
        assert u.substitute(images) == Word(
            [s for g, e in letters(u) for s in
             (images[g].syllables if e > 0 else
              [(h, -f) for h, f in reversed(images[g].syllables)])])


def test_parse_commutator():
    P = parse_presentation("gens: x, y; rels: [x,y]")
    assert P.generators == ("x", "y")
    assert P.relators == (W((0, 1), (1, 1), (0, -1), (1, -1)),)


def test_parse_free_group():
    P = parse_presentation("gens: x, y; rels:")
    assert P.generators == ("x", "y")
    assert P.relators == ()


def test_parse_range_sugar_and_powers():
    P = parse_presentation("gens: x1..x4; rels: x1^2*x2^2*x3^2*x4^2")
    assert P == nonorientable_surface_group(4)


def test_parse_nested_and_negative():
    P = parse_presentation("gens: a, b\nrels: (a*b)^-2, [a*b, b]")
    assert P.relators[0] == (W((0, 1), (1, 1)) ** -2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("rels: x")
    with pytest.raises(ParseError):
        parse_presentation("gens: x; rels: y")  # undeclared generator
    with pytest.raises(ParseError):
        parse_presentation("gens: ; rels:")
    with pytest.raises(ParseError):
        parse_presentation("gens: x; rels: x^")
    # columns count from the start of the line
    for text, line, col in (("gens: x, y\nrels: x*?", 2, 9),
                            ("gens: x, y\nrels: [x,y], [x, z]", 2, 18),
                            ("gens: x\nrels: x)", 2, 8),
                            ("gens: x, 1y\nrels:", 1, 10),
                            ("gens: x, y\nrels: [x,y]^2", 2, 12),
                            ("gens: x, y\nrels: (x, y", 2, 9)):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (line, col), text
    # empty relators are skipped
    assert parse_presentation("gens: x, y\nrels: x,, y,").relators == \
        (W((0, 1)), W((1, 1)))


def test_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 5)
        rels = []
        for _ in range(rng.randrange(4)):
            w = Word([(rng.randrange(n), rng.choice([-3, -1, 1, 2]))
                      for _ in range(rng.randint(1, 6))])
            if not w.is_identity():
                rels.append(w)
        P = Presentation([f"g{i}" for i in range(n)], rels)
        assert parse_presentation(render_presentation(P)) == P


def test_standard_families():
    F3 = free_group(3)
    assert F3.num_generators == 3 and F3.relators == ()

    S2 = orientable_surface_group(2)
    assert S2.num_generators == 4
    assert S2.relators == (commutator(W((0, 1)), W((1, 1)))
                           * commutator(W((2, 1)), W((3, 1))),)

    P = product_of_free_groups([2, 1])
    assert P.num_generators == 3
    assert P.relators == (commutator(W((0, 1)), W((2, 1))),
                          commutator(W((1, 1)), W((2, 1))))

    PZ = direct_product_with_Z(free_group(2))
    assert PZ.num_generators == 3
    assert len(PZ.relators) == 2

    with pytest.raises(ValueError):
        free_group(0)
    with pytest.raises(ValueError):
        orientable_surface_group(-1)
