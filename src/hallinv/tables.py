"""Machine-checkable regeneration of the two summary tables: Hall
invariants of standard groups against small targets, and of the horizontal
plane-arrangement groups against the three classifying targets."""

from __future__ import annotations

from .braids import fixture
from .charvar import Group
from .hall import AbelianGroupSpec, delta_abelian, delta_mpqs

TABLE1_ROWS = (
    ("F2", "free:2"), ("F3", "free:3"), ("F4", "free:4"),
    ("F2xF1", "product:2,1"), ("F2xF2", "product:2,2"),
    ("F3xF1", "product:3,1"), ("F3xF2", "product:3,2"),
    ("T2#2", "surface:2"), ("T2#3", "surface:3"), ("T2#4", "surface:4"),
    ("RP2#2", "rp:2"), ("RP2#3", "rp:3"), ("RP2#4", "rp:4"),
    ("RP2#5", "rp:5"),
)

# label, kind, parameters: abelian targets carry cyclic factors, metabelian
# ones the pair (p, q)
TABLE1_COLUMNS = (
    ("Z2", "ab", (2,)), ("Z3", "ab", (3,)), ("Z2^2", "ab", (2, 2)),
    ("Z4", "ab", (4,)), ("Z2+Z4", "ab", (2, 4)), ("Z8", "ab", (8,)),
    ("S3", "mpq", (2, 3)), ("A4", "mpq", (3, 2)), ("M37", "mpq", (3, 7)),
)

TABLE2_ROWS = (
    ("A(123)", "horizontal:123"),
    ("A(1234)", "horizontal:1234"),
    ("A(2134)", "horizontal:2134"),
    ("A(12345)", "horizontal:12345"),
    ("A(21345)", "horizontal:21345"),
    ("A(21435)", "horizontal:21435"),
    ("A(31425)", "horizontal:31425"),
    ("A(123456)", "horizontal:123456"),
)

TABLE2_COLUMNS = (("S3", "mpq", (2, 3)), ("A4", "mpq", (3, 2)),
                  ("M37", "mpq", (3, 7)))


def delta_of(G, kind, params):
    """One Hall invariant of G (a presentation or a charvar.Group) with
    its provenance tag."""
    G = Group.of(G)
    if kind == "ab":
        value = delta_abelian(G.abel,
                              AbelianGroupSpec.from_cyclic_factors(params))
        return value, "abelian-partition-formula"
    if kind == "mpq":
        return delta_mpqs(G, *params), "metabelian-torsion-count"
    raise ValueError(f"unknown target kind {kind!r}")


def _table(rows, columns, row_filter=None, jobs=1):
    labels = [label for label, _ in rows]
    unknown = [label for label in row_filter or () if label not in labels]
    if unknown:
        raise ValueError(f"unknown row {', '.join(unknown)}; the rows are "
                         f"{', '.join(labels)}")
    out = []
    for label, fixture_name in rows:
        if row_filter is not None and label not in row_filter:
            continue
        G = Group(fixture(fixture_name), jobs=jobs)
        cells = []
        for col_label, kind, params in columns:
            value, method = delta_of(G, kind, params)
            cells.append({"column": col_label, "value": value,
                          "method": method})
        out.append({"row": label, "fixture": fixture_name, "cells": cells})
    return out


def table1(rows=None, jobs=1):
    return _table(TABLE1_ROWS, TABLE1_COLUMNS, rows, jobs)


def table2(rows=None, jobs=1):
    return _table(TABLE2_ROWS, TABLE2_COLUMNS, rows, jobs)


def values_grid(table):
    """{row label: {column label: value}} view of a table."""
    return {entry["row"]: {cell["column"]: cell["value"]
                           for cell in entry["cells"]}
            for entry in table}


def render_table(table):
    if not table:
        return "(empty table)"
    columns = [cell["column"] for cell in table[0]["cells"]]
    header = ["group"] + columns
    body = [[entry["row"]] + [str(cell["value"]) for cell in entry["cells"]]
            for entry in table]
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
    return "\n".join(lines)
