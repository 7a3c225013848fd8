"""Element-level arithmetic: splits, vectors, the pairing, and the Gray maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedcode as mc
import goldens
import oracles


def vec(split, u=(), v=(), w=()):
    return mc.MixedVector(mc.AlphabetSplit(*split), u, v, w)


small_splits = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)
).filter(lambda t: sum(t) > 0)


@st.composite
def vectors(draw, count=1):
    alpha, beta, theta = draw(small_splits)
    split = mc.AlphabetSplit(alpha, beta, theta)
    out = []
    for _ in range(count):
        out.append(mc.MixedVector(
            split,
            [draw(st.integers(0, 1)) for _ in range(alpha)],
            [draw(st.integers(0, 3)) for _ in range(beta)],
            [draw(st.integers(0, 7)) for _ in range(theta)],
        ))
    return out if count > 1 else out[0]


# --------------------------------------------------------------------------
# splits and vectors

def test_split_validation():
    with pytest.raises(ValueError):
        mc.AlphabetSplit(-1, 0, 1)
    with pytest.raises(ValueError):
        mc.AlphabetSplit(0, 0, 0)
    s = mc.AlphabetSplit(2, 3, 4)
    assert s.ambient_exponent == 2 + 6 + 12
    assert s.gray_length == 2 + 6 + 16
    assert tuple(s) == (2, 3, 4)
    assert str(s) == "(2, 3, 4)"


def test_zero_length_blocks_are_legal():
    assert vec((0, 0, 2), w=(3, 7)).entries() == (3, 7)
    assert vec((3, 0, 0), u=(1, 0, 1)).entries() == (1, 0, 1)


def test_vector_rejects_out_of_range_and_bad_length():
    with pytest.raises(ValueError):
        vec((1, 1, 1), (2,), (0,), (0,))
    with pytest.raises(ValueError):
        vec((1, 1, 1), (0,), (4,), (0,))
    with pytest.raises(ValueError):
        vec((1, 1, 1), (0,), (0,), (8,))
    with pytest.raises(ValueError):
        vec((2, 1, 1), (0,), (0,), (0,))


def test_reduced_and_zero():
    s = mc.AlphabetSplit(1, 1, 1)
    x = mc.MixedVector.reduced(s, (5,), (-1,), (13,))
    assert x.entries() == (1, 3, 5)
    z = mc.MixedVector.zero(s)
    assert z.is_zero() and not x.is_zero()


def test_vector_is_immutable_and_hashable():
    x = vec((1, 1, 1), (1,), (2,), (3,))
    with pytest.raises(AttributeError):
        x.u = (0,)
    assert x == vec((1, 1, 1), (1,), (2,), (3,))
    assert len({x, vec((1, 1, 1), (1,), (2,), (3,))}) == 1


def test_add_and_scalar_operators():
    x = vec((1, 1, 1), (1,), (3,), (6,))
    y = vec((1, 1, 1), (1,), (2,), (5,))
    assert (x + y).entries() == (0, 1, 3)
    assert (3 * x).entries() == (1, 1, 2)
    assert (8 * x).is_zero() and (9 * x) == x


def test_split_mismatch_raises():
    x = vec((1, 1, 1), (1,), (0,), (0,))
    y = vec((1, 1, 2), (1,), (0,), (0, 0))
    with pytest.raises(mc.SplitMismatchError):
        mc.add(x, y)
    with pytest.raises(mc.SplitMismatchError):
        mc.inner_product(x, y)


@given(vectors(count=2), st.integers(-8, 15))
def test_action_distributes_over_addition(pair, d):
    x, y = pair
    assert mc.scalar_mul(d, mc.add(x, y)) == mc.add(mc.scalar_mul(d, x), mc.scalar_mul(d, y))


@given(vectors(count=2), st.integers(0, 7))
def test_pairing_symmetry_and_action_compatibility(pair, d):
    x, y = pair
    assert mc.inner_product(x, y) == mc.inner_product(y, x)
    assert mc.inner_product(mc.scalar_mul(d, x), y) == d * mc.inner_product(x, y) % 8


@given(vectors())
def test_inner_product_matches_oracle(x):
    split = tuple(x.split)
    assert mc.inner_product(x, x) == oracles.dot(split, x.entries(), x.entries())


# --------------------------------------------------------------------------
# Gray maps

def test_gray_tables_match_frozen_values():
    for v, bits in goldens.GRAY_PHI1.items():
        assert mc.gray_phi1(v) == bits
    for w, bits in goldens.GRAY_PHI2.items():
        assert mc.gray_phi2(w) == bits


def test_lee_weight_identities():
    for v in range(4):
        assert mc.hamming_weight(mc.gray_phi1(v)) == min(v, 4 - v)
    for w in range(8):
        assert mc.hamming_weight(mc.gray_phi2(w)) == min(w, 8 - w)


def test_gray_stepping_one_bit_per_increment():
    for v in range(4):
        diff = [a ^ b for a, b in zip(mc.gray_phi1(v), mc.gray_phi1((v + 1) % 4))]
        assert sum(diff) == 1
    for w in range(8):
        diff = [a ^ b for a, b in zip(mc.gray_phi2(w), mc.gray_phi2((w + 1) % 8))]
        assert sum(diff) == 1


def test_gray_map_concatenates_blocks():
    x = vec((1, 1, 1), (1,), (2,), (5,))
    assert mc.gray_map(x) == (1, 1, 1, 1, 1, 1, 0)
    assert mc.hamming_weight(mc.gray_map(x)) == 6


def test_gray_map_matches_oracle_exhaustively():
    split = (2, 1, 1)
    s = mc.AlphabetSplit(*split)
    for flat in itertools.product(*(range(m) for m in oracles.mods_for(split))):
        x = mc.MixedVector(s, flat[:2], flat[2:3], flat[3:])
        assert mc.gray_map(x) == oracles.gray(split, flat)


def test_gray_map_injective_on_small_ambient():
    split = mc.AlphabetSplit(2, 1, 1)
    mods = oracles.mods_for(tuple(split))
    images = {
        mc.gray_map(mc.MixedVector(split, flat[:2], flat[2:3], flat[3:]))
        for flat in itertools.product(*(range(m) for m in mods))
    }
    assert len(images) == 1 << split.ambient_exponent


def test_hamming_weight():
    assert mc.hamming_weight((0, 0, 0, 0)) == 0
    assert mc.hamming_weight((1, 1, 1, 1)) == 4


# --------------------------------------------------------------------------
# text form

def test_parse_format_round_trip():
    s = mc.AlphabetSplit(2, 3, 4)
    text = "1 0 | 0 0 2 | 0 0 0 4"
    x = mc.parse_vector(text, s)
    assert mc.format_vector(x) == text
    assert mc.parse_vector(mc.format_vector(x), s) == x


@given(vectors(count=3))
def test_row_formatting_matches_the_single_word_forms(words):
    entries = np.array([w.entries() for w in words], dtype=np.uint8).reshape(3, -1)
    assert mc.format_rows(words[0].split, entries) == [mc.format_vector(w) for w in words]
    bits = np.array([mc.gray_map(w) for w in words], dtype=np.uint8)
    assert mc.format_bits(bits) == ["".join(map(str, mc.gray_map(w))) for w in words]


def test_parse_vector_errors_carry_line_numbers():
    s = mc.AlphabetSplit(1, 1, 1)
    with pytest.raises(mc.ParseError, match="line 4"):
        mc.parse_vector("1 | 2", s, line=4)
    with pytest.raises(mc.ParseError, match="out of range"):
        mc.parse_vector("1 | 9 | 0", s)
    with pytest.raises(mc.ParseError, match="not an integer"):
        mc.parse_vector("1 | x | 0", s)
    with pytest.raises(mc.ParseError, match="expected 1"):
        mc.parse_vector("1 1 | 0 | 0", s)
