"""Generator matrices: standard form, types, duals, membership, text I/O."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import mixedcode as mc
import goldens
import oracles

DATA = Path(__file__).parent / "data"


def ref234():
    return mc.load_matrix(DATA / "ref234.mtx")


def rows_to_matrix(split, triples):
    s = mc.AlphabetSplit(*split)
    return mc.MixedMatrix(s, [mc.MixedVector(s, *t) for t in triples])


def row_triples(M):
    return {(r.u, r.v, r.w) for r in M.rows}


# --------------------------------------------------------------------------
# standard form

def test_standard_form_type_and_cardinality():
    blocks, perm = mc.standard_form(ref234())
    t = blocks.code_type
    assert (t.alpha, t.beta, t.theta) == goldens.REF234_SPLIT
    assert t.k == goldens.REF234_TYPE[3:]
    assert mc.cardinality(t) == goldens.REF234_CARDINALITY
    assert str(t) == "(2,3,4; 2; 1,1; 1,1,0)"
    assert perm.is_identity()
    assert row_triples(blocks.matrix()) == {
        (u, v, w) for u, v, w in goldens.REF234_STANDARD_ROWS
    }


def test_standard_form_preserves_span():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    inv = perm.inverse()
    original = [inv.apply_to_vector(r) for r in blocks.matrix().rows]
    lhs = oracles.span_words(tuple(G.split), [(r.u, r.v, r.w) for r in G.rows])
    rhs = oracles.span_words(tuple(G.split), [(r.u, r.v, r.w) for r in original])
    assert lhs == rhs
    assert len(lhs) == goldens.REF234_CARDINALITY


def test_standard_form_tracks_column_permutations():
    M = mc.parse_matrix("2 1 1\n0 1 | 0 | 0")
    blocks, perm = mc.standard_form(M)
    assert not perm.is_identity()
    assert perm.z2 == (1, 0)
    x = M.rows[0]
    assert perm.inverse().apply_to_vector(perm.apply_to_vector(x)) == x
    assert mc.is_member(x, blocks, perm)


def test_type_invariant_under_row_shuffles_and_unit_scaling():
    G = ref234()
    base = mc.standard_form(G)[0].code_type
    rng = random.Random(1)
    for _ in range(5):
        rows = list(G.rows)
        rng.shuffle(rows)
        unit = rng.choice((3, 5, 7))
        rows[0] = mc.scalar_mul(unit, rows[0])
        shuffled = mc.MixedMatrix(G.split, rows)
        assert mc.standard_form(shuffled)[0].code_type == base


def test_row_count_matches_type():
    blocks, _ = mc.standard_form(ref234())
    assert len(blocks.matrix().rows) == sum(blocks.code_type.k)


# --------------------------------------------------------------------------
# types and duality

def valid_types(max_exponent=8):
    for t in oracles.type_tuples(max_exponent):
        yield mc.CodeType(*t)


def test_dual_type_golden():
    t = mc.CodeType(*goldens.REF234_TYPE)
    assert mc.dual_type(t) == mc.CodeType(*goldens.REF234_DUAL_TYPE)
    assert mc.cardinality(mc.dual_type(t)) == goldens.REF234_DUAL_CARDINALITY


def test_dual_type_involution_and_cardinality_identity():
    for t in valid_types():
        d = mc.dual_type(t)
        assert mc.dual_type(d) == t
        exponent = t.alpha + 2 * t.beta + 3 * t.theta
        assert mc.cardinality(t) * mc.cardinality(d) == 1 << exponent


def test_dual_matrix_is_orthogonal_to_generators():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    H = perm.inverse().apply(mc.dual_matrix(blocks))
    assert mc.verify_orthogonality(G, H)
    assert mc.first_violation(G, H) is None


def test_first_violation_reports_the_earliest_pair():
    G = ref234()
    assert not mc.verify_orthogonality(G, G)
    assert mc.first_violation(G, G) == (0, 1, 4)


def test_dual_matrix_matches_brute_force_on_small_split():
    split = (2, 2, 1)
    rng = random.Random(5)
    for _ in range(5):
        _, triples = oracles.sample_matrix(rng, max_exponent=9)
        # resample rows onto the fixed split so the brute sweep stays tiny
        rows = [
            (
                tuple(rng.randrange(2) for _ in range(split[0])),
                tuple(rng.randrange(4) for _ in range(split[1])),
                tuple(rng.randrange(8) for _ in range(split[2])),
            )
            for _ in triples
        ]
        G = rows_to_matrix(split, rows)
        blocks, perm = mc.standard_form(G)
        H = perm.inverse().apply(mc.dual_matrix(blocks))
        constructed = oracles.span_words(split, [(r.u, r.v, r.w) for r in H.rows])
        assert constructed == oracles.brute_dual(split, rows)


# --------------------------------------------------------------------------
# membership

def test_generator_rows_are_members():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    for row in G.rows:
        assert mc.is_member(row, blocks, perm)
        assert mc.is_member(row, blocks)


def test_reduce_rows_is_zero_exactly_on_the_span():
    rng = random.Random(13)
    for _ in range(30):
        split, rows = oracles.sample_matrix(rng, max_exponent=8)
        span = oracles.span_words(split, rows)
        ambient = list(itertools.product(*(range(m) for m in oracles.mods_for(split))))
        blocks, perm = mc.standard_form(rows_to_matrix(split, rows))
        residuals = mc.reduce_rows(np.array(ambient, dtype=np.uint8)[:, perm.source_index()], blocks)
        assert [not r.any() for r in residuals] == [w in span for w in ambient]


def test_is_member_rejects_a_foreign_split():
    blocks, _ = mc.standard_form(ref234())
    other = mc.AlphabetSplit(2, 3, 3)
    with pytest.raises(mc.SplitMismatchError):
        mc.is_member(mc.MixedVector.zero(other), blocks)


def test_matrix_from_array_checks_ranges_and_matches_rows():
    s = mc.AlphabetSplit(1, 1, 1)
    for bad in ([[2, 0, 0]], [[0, 4, 0]], [[0, 0, 8]], [[0, -1, 0]]):
        with pytest.raises(ValueError, match="out of range"):
            mc.MixedMatrix.from_array(s, np.array(bad))
    G = ref234()
    again = mc.MixedMatrix.from_array(G.split, np.array([r.entries() for r in G.rows]))
    assert again == G and hash(again) == hash(G)
    assert again.rows == G.rows and len(again) == len(G.rows)
    assert not again.array.flags.writeable


def test_claimed_reduction_rows_fall_outside_the_span():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    claimed = rows_to_matrix(goldens.REF234_SPLIT, goldens.REF234_CLAIMED_REDUCTION)
    outside = tuple(
        i for i, row in enumerate(claimed.rows) if not mc.is_member(row, blocks, perm)
    )
    assert outside == goldens.REF234_CLAIMED_ROWS_OUTSIDE_SPAN


def test_claimed_reduction_span_overlap():
    ours = oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_ROWS)
    claimed = oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_CLAIMED_REDUCTION)
    assert len(ours) == len(claimed) == goldens.REF234_CARDINALITY
    assert len(ours & claimed) == goldens.REF234_CLAIMED_SPAN_OVERLAP


# --------------------------------------------------------------------------
# text I/O

def test_matrix_round_trip():
    G = ref234()
    again = mc.parse_matrix(mc.format_matrix(G))
    assert again.split == G.split and list(again.rows) == list(G.rows)


def test_matrix_parse_errors():
    with pytest.raises(mc.ParseError, match="line 1"):
        mc.parse_matrix("2 3\n")
    with pytest.raises(mc.ParseError, match="line 2.*out of range"):
        mc.parse_matrix("1 1 1\n1 | 5 | 0")
    with pytest.raises(mc.ParseError):
        mc.parse_matrix("1 1 1\n1 | 0\n")


def test_comments_and_blank_lines_are_ignored():
    M = mc.parse_matrix("# heading\n1 1 1\n\n# row note\n1 | 2 | 3\n")
    assert len(M.rows) == 1
    assert M.rows[0].entries() == (1, 2, 3)
