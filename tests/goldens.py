"""Frozen reference data for the test suite.

Two worked instances anchor the goldens: `ref234`, a six-row generator
matrix on the (2, 3, 4) split, and `cyc1577`, a cyclic generator triple on
block lengths (15, 7, 7). Values marked "claimed" are taken verbatim from
the published worked examples these instances come from; where a claimed
value is provably wrong, the discrepancy is documented next to it and the
suite carries a deliberately failing test pinning the claim as written.
"""

# --------------------------------------------------------------------------
# ref234: generators, our reduction, and the published claims

REF234_SPLIT = (2, 3, 4)

REF234_ROWS = (
    ((1, 1), (2, 0, 2), (4, 0, 4, 4)),
    ((0, 1), (3, 2, 1), (6, 2, 6, 4)),
    ((1, 1), (2, 2, 0), (4, 4, 0, 4)),
    ((1, 0), (1, 3, 2), (5, 7, 2, 6)),
    ((1, 1), (2, 2, 0), (2, 4, 6, 2)),
    ((1, 0), (0, 0, 2), (4, 4, 0, 4)),
)

# (k0; k1, k2; k3, k4, k5) = (2; 1, 1; 1, 1, 0), cardinality 2^10. The
# worked example prints "4096 codewords" next to the same type tuple; the
# size formula and the duality identity both force 1024, so 1024 is the
# golden and the 4096 print is treated as an arithmetic slip.
REF234_TYPE = (2, 3, 4, 2, 1, 1, 1, 1, 0)
REF234_CARDINALITY = 1024

# Our reduction of REF234_ROWS (identity column permutation).
REF234_STANDARD_ROWS = (
    ((1, 0), (0, 0, 2), (0, 0, 0, 4)),
    ((0, 1), (0, 0, 2), (0, 0, 4, 4)),
    ((0, 0), (1, 0, 3), (0, 0, 6, 4)),
    ((0, 0), (0, 2, 2), (0, 0, 0, 4)),
    ((0, 0), (0, 1, 3), (1, 1, 2, 0)),
    ((0, 0), (0, 0, 0), (0, 2, 2, 2)),
)

# The reduction printed alongside the generators. NOT row-equivalent to
# REF234_ROWS: rows 3, 4, 5 (0-indexed) lie outside span(REF234_ROWS), the
# two spans share only 256 of their 1024 words, and no within-block column
# permutation repairs the gap (all 2!*3!*4! = 288 were swept). The claimed
# type matches ours; the claimed row space does not.
REF234_CLAIMED_REDUCTION = (
    ((1, 0), (0, 0, 2), (0, 0, 0, 4)),
    ((0, 1), (0, 0, 2), (0, 0, 4, 4)),
    ((0, 0), (1, 0, 3), (0, 0, 6, 4)),
    ((0, 0), (0, 2, 0), (0, 0, 4, 0)),
    ((0, 0), (0, 1, 1), (1, 1, 2, 0)),
    ((0, 0), (0, 0, 0), (0, 2, 6, 6)),
)
REF234_CLAIMED_ROWS_OUTSIDE_SPAN = (3, 4, 5)
REF234_CLAIMED_SPAN_OVERLAP = 256

# Parity-check matrix published for the code generated by the CLAIMED
# reduction (its span is the claimed code's annihilator; the pairing was
# re-verified here).
REF234_CLAIMED_PARITY_ROWS = (
    ((1, 1), (1, 0, 1), (6, 0, 0, 0)),
    ((0, 0), (0, 2, 0), (4, 0, 0, 0)),
    ((0, 1), (1, 3, 0), (3, 5, 1, 0)),
    ((1, 1), (2, 0, 0), (3, 5, 0, 1)),
    ((0, 0), (0, 0, 0), (4, 4, 0, 0)),
)
REF234_DUAL_TYPE = (2, 3, 4, 0, 1, 1, 2, 0, 1)
REF234_DUAL_CARDINALITY = 1024

# Exact minimum Gray-image distance of span(REF234_ROWS), frozen from two
# independent routes (library exact mode and a hand-table enumeration).
REF234_MIN_DISTANCE = 3

# --------------------------------------------------------------------------
# cyc1577: generator triple on lengths (15, 7, 7)

CYC1577_LENGTHS = (15, 7, 7)

CYC1577_POLYS = {
    "f": (1, 1, 0, 1, 0, 1),
    "l1": (1, 0, 0, 1, 1),
    "l2": (1, 0, 0, 1, 1),
    "g1": (1, 2, 3, 1, 1),
    "a1": (3, 1, 2, 1),
    "g2": (3, 1),
    "p": (1, 5, 7, 2, 1),
    "q": (7, 1),
    "r": (1,),
}

# Cofactor goldens. f_cofactor, g1_cofactor, p_cofactor, q_cofactor are the
# published companion polynomials (re-verified by exact multiplication);
# the rest are the exact chain quotients.
CYC1577_COFACTORS = {
    "f_cofactor": (1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1),
    "g1_cofactor": (3, 2, 3, 1),
    "g1_over_a1": (3, 1),
    "p_cofactor": (7, 5, 6, 1),
    "q_cofactor": (1, 1, 1, 1, 1, 1, 1),
    "p_over_q": (7, 2, 3, 1),
    "q_over_r": (7, 1),
    "k": (3, 1, 1, 0, 1),
}

# The published quotient claim for k. It fails its own defining identity
# k * (g1 + 2a1) = ((x^theta - 1)/r) * g2: the true ambient quotient is
# unique (the divisor is unit-leading) and equals (1 + x) * g1_cofactor =
# 3 + x + x^2 + x^4. The claimed 1 + x instead solves k * (g1 + 2a1) =
# g1 * g2. A deliberately failing test pins the claim as written.
CYC1577_CLAIMED_K = (1, 1)

CYC1577_GROUP_SIZES = {"S1": 10, "S2": 3, "S3": 3, "S6": 1, "S4": 3, "S5": 1}
CYC1577_LOG2_SIZE = 33

# Gray image parameters [length, dimension, distance].
CYC1577_GRAY_PARAMS = (57, 33, 4)

# The 21-row spanning matrix, row for row (matches the published matrix).
CYC1577_MATRIX_ROWS = (
    ((1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (3, 0, 3, 3, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 3, 0, 3, 3, 1, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 3, 0, 3, 3, 1), (0, 0, 0, 0, 0, 0, 0)),
    ((1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (3, 1, 0, 0, 0, 0, 0), (3, 7, 7, 2, 1, 0, 0)),
    ((0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 3, 1, 0, 0, 0, 0), (0, 3, 7, 7, 2, 1, 0)),
    ((0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 3, 1, 0, 0, 0), (0, 0, 3, 7, 7, 2, 1)),
    ((1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0), (2, 2, 2, 2, 2, 2, 2), (0, 0, 0, 0, 0, 0, 0)),
    ((1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0), (1, 2, 3, 1, 1, 0, 0), (6, 0, 6, 6, 2, 0, 0)),
    ((0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 1, 2, 3, 1, 1, 0), (0, 6, 0, 6, 6, 2, 0)),
    ((0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 2, 3, 1, 1), (0, 0, 6, 0, 6, 6, 2)),
    ((1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (4, 4, 4, 4, 4, 4, 4)),
)

# --------------------------------------------------------------------------
# noncanon: all six validation conditions hold, yet the span is four times
# the count formula (the S5 row has additive order 4 because 2 * h_q * g2
# does not vanish mod (4, x^beta - 1)). Regression anchor for the boundary
# between validate_generators (documented conditions) and cyclic_size, which
# must notice the violated canonicity condition and count the span instead
# of applying the formula.

NONCANON_LENGTHS = (7, 3, 3)
NONCANON_POLYS = {
    "f": (1, 0, 1, 1),
    "g1": (3, 0, 0, 1),
    "a1": (3, 0, 0, 1),
    "g2": (2, 3, 3),
    "p": (7, 0, 0, 1),
    "q": (7, 0, 0, 1),
    "r": (7, 1),
}
NONCANON_FORMULA_SIZE = 64
NONCANON_SPAN_SIZE = 256

# --------------------------------------------------------------------------
# sha256 of the concatenated `additive standard-form --json` and
# `additive dual --json` reports on the inputs of test_cli._pinned_inputs:
# 24 seeded sampled matrices (some with duplicated or unit-scaled rows) and
# the spanning matrix of cyc1577.gen. Recorded with the row-by-row
# elimination that standard_form used before it was vectorized.

STANDARD_FORM_JSON_SHA256 = "a10e5a1573433b651d504d216ba90f89581f3d595df986e80e07e63eaa9cdbfe"
DUAL_JSON_SHA256 = "9a397bd0725632e302aa61eaed9323b2cff9c123d66c4a8c119b63987fccfe73"

# --------------------------------------------------------------------------
# Gray tables, re-frozen by hand from the defining map (do not derive these
# from the library; they are the check against it).

GRAY_PHI1 = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
GRAY_PHI2 = {
    0: (0, 0, 0, 0),
    1: (0, 0, 0, 1),
    2: (0, 0, 1, 1),
    3: (0, 1, 1, 1),
    4: (1, 1, 1, 1),
    5: (1, 1, 1, 0),
    6: (1, 1, 0, 0),
    7: (1, 0, 0, 0),
}
