"""Finitely presented groups: reduced words, a text format, standard families.

Words are stored as syllables (generator index, nonzero exponent) and are
always freely reduced; relators are *not* cyclically reduced, since Fox
derivatives are taken of the literal free word.

Text format (whitespace insignificant, ';' may replace the newline):

    gens: x1..x4
    rels: x1^2*x2^2*x3^2*x4^2, [x1,x2]

    list   := word (',' word)*     (the rels: line; empty words skipped)
    word   := factor ('*' factor)*
    factor := atom | atom '^' int | '[' word ',' word ']'
    atom   := name | '(' word ')'
"""

from __future__ import annotations

import re
from itertools import chain


class Word:
    """A freely reduced word in a free group, as (generator, exponent) syllables."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        reduced = []
        for g, e in syllables:
            g = int(g)
            e = int(e)
            if e == 0:
                continue
            if g < 0:
                raise ValueError("generator indices are 0-based and nonnegative")
            if reduced and reduced[-1][0] == g:
                e += reduced.pop()[1]
                if e == 0:
                    continue
            reduced.append((g, e))
        self.syllables = tuple(reduced)

    @classmethod
    def _reduced(cls, syllables):
        """The Word of syllables taken from Words, which are already
        checked, so only their free reduction is left to do."""
        reduced = []
        for s in syllables:
            if reduced and reduced[-1][0] == s[0]:
                e = reduced.pop()[1] + s[1]
                if e:
                    reduced.append((s[0], e))
            else:
                reduced.append(s)
        w = cls.__new__(cls)
        w.syllables = tuple(reduced)
        return w

    @classmethod
    def generator(cls, g):
        return cls(((g, 1),))

    def __mul__(self, other):
        return Word._reduced(self.syllables + other.syllables)

    def inverse(self):
        return Word._reduced(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n):
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        return Word._reduced(base.syllables * abs(n))

    def is_identity(self):
        return not self.syllables

    def exponent_sum(self, g):
        return sum(e for h, e in self.syllables if h == g)

    def max_generator(self):
        return max((g for g, _ in self.syllables), default=-1)

    def support(self):
        return {g for g, _ in self.syllables}

    def substitute(self, images):
        """Apply the endomorphism sending generator g to images[g]."""
        out = []
        for g, e in self.syllables:
            image = images[g].syllables
            if e < 0:
                image = tuple((h, -f) for h, f in reversed(image))
            out.extend(image * abs(e))
        return Word._reduced(out)

    def __eq__(self, other):
        return isinstance(other, Word) and other.syllables == self.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({list(self.syllables)})"


def commutator(u, v):
    return u * v * u.inverse() * v.inverse()


class Presentation:
    """Generator names plus freely reduced relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators=()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        relators = tuple(relators)
        for r in relators:
            if r.max_generator() >= len(generators):
                raise ValueError("relator uses an undeclared generator")
        self.generators = generators
        self.relators = relators

    @property
    def num_generators(self):
        return len(self.generators)

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and other.generators == self.generators
                and other.relators == self.relators)

    def __repr__(self):
        return f"<Presentation on {self.generators}, {len(self.relators)} relators>"


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|-?\d+|[][()^*,]|\S")


class _Tokens:
    """The tokens of text, which starts at column col of its line."""

    def __init__(self, text, line, col):
        self.items = []
        for m in _TOKEN_RE.finditer(text):
            self.items.append((m.group(0), line, col + m.start()))
        self.pos = 0
        self.line = line
        self.end_col = col + len(text)

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def next(self):
        if self.pos >= len(self.items):
            raise ParseError("unexpected end of input", self.line, self.end_col)
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, line, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", line, col)

    def error(self, message):
        if self.pos < len(self.items):
            _, line, col = self.items[self.pos]
        else:
            line, col = self.line, self.end_col
        raise ParseError(message, line, col)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_RANGE_RE = re.compile(r"([A-Za-z_]+)(\d+)\.\.([A-Za-z_]+)?(\d+)$")


def _parse_gen_list(text, line, col):
    """The generator names of text, which starts at column col of its
    line; an error points at the start of its piece."""
    names = []
    for found in re.finditer(r"[^,\s][^,]*", text):
        piece, at = found.group().rstrip(), col + found.start()
        m = _RANGE_RE.match(piece)
        if m:
            prefix, lo, prefix2, hi = m.groups()
            if prefix2 is not None and prefix2 != prefix:
                raise ParseError(f"mismatched range prefixes in {piece!r}",
                                 line, at)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ParseError(f"empty range {piece!r}", line, at)
            names.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        elif _NAME_RE.match(piece):
            names.append(piece)
        else:
            raise ParseError(f"bad generator name {piece!r}", line, at)
    return names


def _parse_word(tokens, gen_index):
    factors = [_parse_factor(tokens, gen_index)]
    while tokens.peek() == "*":
        tokens.next()
        factors.append(_parse_factor(tokens, gen_index))
    return Word._reduced(chain.from_iterable(f.syllables for f in factors))


def _parse_factor(tokens, gen_index):
    tok = tokens.peek()
    if tok == "[":
        tokens.next()
        u = _parse_word(tokens, gen_index)
        tokens.expect(",")
        v = _parse_word(tokens, gen_index)
        tokens.expect("]")
        return commutator(u, v)
    atom = _parse_atom(tokens, gen_index)
    if tokens.peek() == "^":
        tokens.next()
        tok, line, col = tokens.next()
        try:
            e = int(tok)
        except ValueError:
            raise ParseError(f"expected an integer exponent, found {tok!r}",
                             line, col) from None
        return atom ** e
    return atom


def _parse_atom(tokens, gen_index):
    tok, line, col = tokens.next()
    if tok == "(":
        w = _parse_word(tokens, gen_index)
        tokens.expect(")")
        return w
    if _NAME_RE.match(tok):
        if tok not in gen_index:
            raise ParseError(f"undeclared generator {tok!r}", line, col)
        return Word.generator(gen_index[tok])
    raise ParseError(f"expected a generator or '(', found {tok!r}", line, col)


def parse_presentation(text):
    """Parse the two-line `gens:` / `rels:` format described above."""
    lines = []
    for lineno, raw in enumerate(text.replace(";", "\n").splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            # the column, counted from 1, just past the 5-character keyword
            col = len(raw) - len(raw.lstrip()) + 6
            lines.append((lineno, stripped, col))
    if not lines or not lines[0][1].startswith("gens:"):
        raise ParseError("input must start with 'gens:'", 1, 1)
    gen_line, gen_text, gen_col = lines[0]
    names = _parse_gen_list(gen_text[len("gens:"):], gen_line, gen_col)
    if not names:
        raise ParseError("empty generator list", gen_line, 1)
    if len(lines) < 2 or not lines[1][1].startswith("rels:"):
        raise ParseError("missing 'rels:' line", lines[0][0] + 1, 1)
    if len(lines) > 2:
        raise ParseError("unexpected extra line", lines[2][0], 1)
    gen_index = {n: i for i, n in enumerate(names)}
    rel_line, rel_text, rel_col = lines[1]
    tokens = _Tokens(rel_text[len("rels:"):], rel_line, rel_col)
    relators = []
    while tokens.peek() is not None:
        if tokens.peek() == ",":
            tokens.next()
            continue
        relators.append(_parse_word(tokens, gen_index))
        if tokens.peek() not in (None, ","):
            tokens.error(f"trailing input {tokens.peek()!r}")
    return Presentation(names, relators)


def render_word(w, names):
    parts = []
    for g, e in w.syllables:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)


def render_presentation(P):
    """Inverse of parse_presentation (on presentations without empty relators)."""
    gens = ", ".join(P.generators)
    rels = ", ".join(render_word(r, P.generators) for r in P.relators)
    return f"gens: {gens}\nrels: {rels}\n"


# ---------------------------------------------------------------------------
# standard families

def _numbered(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def free_group(n):
    if n < 1:
        raise ValueError("rank must be positive")
    return Presentation(_numbered("x", n))


def product_of_free_groups(ranks):
    """Direct product F_{n_1} x ... x F_{n_k}, with commuting-generator
    relators between distinct factors."""
    ranks = list(ranks)
    if not ranks or any(n < 1 for n in ranks):
        raise ValueError("ranks must be positive")
    prefixes = "xyzuvw"
    if len(ranks) > len(prefixes):
        raise ValueError("too many factors")
    names = []
    blocks = []
    for b, n in enumerate(ranks):
        block = list(range(len(names), len(names) + n))
        names.extend(_numbered(prefixes[b], n))
        blocks.append(block)
    relators = []
    for b1 in range(len(blocks)):
        for b2 in range(b1 + 1, len(blocks)):
            for i in blocks[b1]:
                for j in blocks[b2]:
                    relators.append(commutator(Word.generator(i), Word.generator(j)))
    return Presentation(names, relators)


def orientable_surface_group(g):
    """Genus-g closed orientable surface: one product-of-commutators relator."""
    if g < 1:
        raise ValueError("genus must be positive")
    rel = Word()
    for i in range(g):
        rel = rel * commutator(Word.generator(2 * i), Word.generator(2 * i + 1))
    return Presentation(_numbered("x", 2 * g), [rel])


def nonorientable_surface_group(n):
    """Connected sum of n projective planes: relator x1^2 ... xn^2."""
    if n < 1:
        raise ValueError("genus must be positive")
    rel = Word()
    for i in range(n):
        rel = rel * Word.generator(i) ** 2
    return Presentation(_numbered("x", n), [rel])
