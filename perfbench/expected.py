"""Answers the benchmark checks against.

Published values come from the source paper's tables and named
invariants; the few values marked "recorded" were computed by the library
when the benchmark was defined and pin its behaviour.  The large recorded
set for the queries pool lives in recorded_queries.json (see record.py).
"""

# Hall invariants of standard groups: columns Z2, Z3, Z2^2, Z4, Z2+Z4, Z8,
# S3, A4, M37 (published table)
TABLE1_COLUMNS = ("Z2", "Z3", "Z2^2", "Z4", "Z2+Z4", "Z8", "S3", "A4", "M37")
TABLE1_EXPECTED = {
    "F2":    [3, 4, 1, 6, 3, 12, 3, 4, 8],
    "F3":    [7, 13, 7, 28, 42, 112, 28, 65, 208],
    "F4":    [15, 40, 35, 120, 420, 960, 195, 840, 4560],
    "F2xF1": [7, 13, 7, 28, 42, 112, 3, 4, 8],
    "F2xF2": [15, 40, 35, 120, 420, 960, 6, 8, 16],
    "F3xF1": [15, 40, 35, 120, 420, 960, 28, 65, 208],
    "F3xF2": [31, 121, 155, 496, 3720, 7936, 31, 69, 216],
    "T2#2":  [15, 40, 35, 120, 420, 960, 60, 200, 640],
    "T2#3":  [63, 364, 651, 2016, 31248, 64512, 2520, 30940, 291200],
    "T2#4":  [255, 3280, 10795, 32640, 2072640, 4177920,
              92820, 4477200, 128628480],
    "RP2#2": [3, 1, 1, 2, 1, 2, 1, 0, 0],
    "RP2#3": [7, 4, 7, 12, 18, 24, 10, 4, 8],
    "RP2#4": [15, 13, 35, 56, 196, 224, 69, 65, 208],
    "RP2#5": [31, 40, 155, 240, 1800, 1920, 430, 840, 4560],
}

# horizontal arrangements against S3, A4, M37 (published table)
TABLE2_COLUMNS = ("S3", "A4", "M37")
TABLE2_EXPECTED = {
    "A(2134)": [25, 38, 72],
    "A(21345)": [168, 435, 1184],
    "A(21435)": [150, 273, 632],
    "A(31425)": [139, 191, 290],
    "A(123456)": [1240, 10285, 96800],
}

# delta against the metabelian targets, by (group, target)
EXPECTED_DELTA = {
    # pure braid group P4: delta = 5(p^2 - 1)/s
    ("braid_arrangement", "S3"): 15,
    ("braid_arrangement", "A4"): 20,
    ("braid_arrangement", "M37"): 40,
    ("deleted_b3", "S3"): 63,
    ("deleted_b3", "A4"): 110,
    # non-Fano: delta_{D_2q} = q + 25 at q = 3
    ("non_fano", "S3"): 28,
    ("non_fano", "A4"): 36,  # recorded
}
for _row, _values in TABLE2_EXPECTED.items():  # "A(2134)": horizontal:2134
    for _col, _value in zip(TABLE2_COLUMNS, _values):
        EXPECTED_DELTA["horizontal:" + _row[2:-1], _col] = _value

# Betti distributions {depth: count} by (group, p, q)
EXPECTED_BETA = {
    # deleted B3: beta_3 = (44, 13), and (45, 13) in characteristic 2
    ("deleted_b3", 3, 0): {0: 3223, 1: 44, 2: 13},
    ("deleted_b3", 3, 2): {0: 3222, 1: 45, 2: 13},
    ("deleted_b3", 3, 5): {0: 3223, 1: 44, 2: 13},
    ("deleted_b3", 3, 7): {0: 3223, 1: 44, 2: 13},
    ("non_fano", 3, 0): {0: 1057, 1: 36},  # recorded
    ("non_fano", 3, 2): {0: 1057, 1: 36},  # recorded
    # braid arrangement: beta_p = (5(p + 1))
    ("braid_arrangement", 5, 0): {0: 3876, 1: 30},
    ("braid_arrangement", 5, 2): {0: 3876, 1: 30},
}

# index-4 subgroups of A(21435) by Hall's recursion (recorded)
EXPECTED_A4_HALL = {"horizontal:21435": 21271}
