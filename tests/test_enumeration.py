"""Exhaustive enumeration, brute-force duals, Gray images, and distances."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import mixedcode as mc
from mixedcode import enumeration
import goldens
import oracles

DATA = Path(__file__).parent / "data"


def ref234():
    return mc.load_matrix(DATA / "ref234.mtx")


def as_triples(C):
    return {(c.u, c.v, c.w) for c in C}


# --------------------------------------------------------------------------
# enumeration and closure

def test_enumeration_agrees_with_closure_and_oracle():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    C = mc.enumerate_codewords(blocks)
    D = mc.closure_from_rows(G)
    assert len(C) == len(D) == goldens.REF234_CARDINALITY
    mapped = {perm.inverse().apply_to_vector(c) for c in C}
    assert mapped == set(D)
    assert as_triples(D) == {
        (w[:2], w[2:5], w[5:]) for w in oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_ROWS)
    }


def test_enumeration_count_matches_type_on_random_inputs():
    rng = random.Random(11)
    for _ in range(15):
        split, triples = oracles.sample_matrix(rng, max_exponent=10)
        s = mc.AlphabetSplit(*split)
        G = mc.MixedMatrix(s, [mc.MixedVector(s, *t) for t in triples])
        blocks, _ = mc.standard_form(G)
        C = mc.enumerate_codewords(blocks)
        assert len(C) == mc.cardinality(blocks.code_type)
        assert len(C) == len(mc.closure_from_rows(G))


def test_codeword_set_api():
    G = ref234()
    C = mc.closure_from_rows(G)
    assert G.rows[0] in C
    assert mc.MixedVector.zero(G.split) in C
    assert len(list(iter(C))) == len(C)
    again = mc.CodewordSet.from_vectors(G.split, list(C))
    assert again == C


@pytest.mark.parametrize("split", [(3, 4, 5), (0, 0, 21), (64, 0, 0), (1, 0, 21), (65, 0, 0), (0, 33, 0), (5, 10, 20)], ids=lambda s: "-".join(map(str, s)))
def test_unique_rows_matches_lexicographic_row_sort(split):
    # Exponents 26 to 64 dedupe on packed keys; 65 and above on row bytes.
    s = mc.AlphabetSplit(*split)
    mods = np.array([2] * s.alpha + [4] * s.beta + [8] * s.theta)
    rng = np.random.default_rng(sum(split))
    sparse = rng.integers(0, mods, size=(300, mods.size)) * (rng.random((300, mods.size)) < 0.2)
    arr = sparse.astype(np.uint8)
    arr = np.vstack([arr, arr[rng.integers(0, 300, size=200)]])
    expected = np.unique(arr, axis=0)
    assert len(expected) < len(arr)
    assert np.array_equal(enumeration._unique_rows(s, arr), expected)


def test_codeword_set_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="out of range"):
        mc.CodewordSet(mc.AlphabetSplit(2, 0, 0), np.array([[2, 0], [1, 0]]))


def test_subgroup_check_and_witness():
    G = ref234()
    assert mc.check_subgroup(mc.closure_from_rows(G))
    listing = mc.CodewordSet.from_vectors(G.split, list(G.rows))
    assert not mc.check_subgroup(listing)
    assert mc.subgroup_witness(listing)


def test_budget_refusals_carry_required_size():
    G = ref234()
    tiny = mc.EnumerationBudget(max_codewords=100, max_ambient=16)
    with pytest.raises(mc.BudgetError) as info:
        mc.closure_from_rows(G, tiny)
    assert info.value.required > 100
    blocks, _ = mc.standard_form(G)
    with pytest.raises(mc.BudgetError) as info:
        mc.enumerate_codewords(blocks, tiny)
    assert info.value.required == goldens.REF234_CARDINALITY
    with pytest.raises(mc.BudgetError):
        mc.brute_force_dual(mc.closure_from_rows(G), mc.EnumerationBudget(max_ambient=100))


# --------------------------------------------------------------------------
# duals

def test_brute_force_dual_matches_oracle_and_identity():
    rng = random.Random(23)
    for _ in range(8):
        split, triples = oracles.sample_matrix(rng, max_exponent=10)
        s = mc.AlphabetSplit(*split)
        G = mc.MixedMatrix(s, [mc.MixedVector(s, *t) for t in triples])
        C = mc.closure_from_rows(G)
        D = mc.brute_force_dual(C)
        assert len(C) * len(D) == 1 << s.ambient_exponent
        assert {c.entries() for c in D} == {
            oracles.flatten(((w[:split[0]], w[split[0]:split[0] + split[1]], w[split[0] + split[1]:])))
            for w in oracles.brute_dual(split, triples)
        }


def test_ref234_dual_span_equals_brute_force():
    G = ref234()
    blocks, perm = mc.standard_form(G)
    H = perm.inverse().apply(mc.dual_matrix(blocks))
    D = mc.brute_force_dual(mc.closure_from_rows(G))
    assert mc.closure_from_rows(H) == D
    assert len(D) == goldens.REF234_DUAL_CARDINALITY


# --------------------------------------------------------------------------
# Gray images and distance

def test_gray_image_preserves_cardinality():
    G = ref234()
    C = mc.closure_from_rows(G)
    image = mc.gray_image(C)
    assert len(image) == len(C)


def test_gray_rows_match_oracle():
    G = ref234()
    C = mc.closure_from_rows(G)
    bits = mc.gray_rows(G.split, C.array)
    split = tuple(G.split)
    for row, word in zip(bits, C):
        assert tuple(int(b) for b in row) == oracles.gray(split, word.entries())


def test_exact_distance_golden():
    result = mc.min_gray_distance(ref234())
    assert result.exact
    assert result.value == goldens.REF234_MIN_DISTANCE


def test_trivial_code_has_undefined_distance():
    result = mc.min_gray_distance(mc.parse_matrix("1 1 1\n0 | 0 | 0"))
    assert result.value is None and result.exact


def test_exact_distance_refuses_before_building_the_gray_image(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the set was scanned before the refusal")

    identity = ["| | " + " ".join("1" if j == i else "0" for j in range(5)) for i in range(5)]
    G = mc.parse_matrix("0 0 5\n" + "\n".join(identity))
    C = mc.enumerate_codewords(mc.standard_form(G)[0])
    monkeypatch.setattr(enumeration, "gray_rows", unreachable)
    monkeypatch.setattr(enumeration, "subgroup_witness", unreachable)
    with pytest.raises(mc.BudgetError) as info:
        mc.min_gray_distance(C)
    assert info.value.required == (1 << 15) ** 2


def test_search_mode_bounds_and_is_deterministic():
    G = ref234()
    first = mc.min_gray_distance(G, mode="search", seed=0)
    again = mc.min_gray_distance(G, mode="search", seed=0)
    assert not first.exact
    assert first.value == again.value
    assert first.value >= goldens.REF234_MIN_DISTANCE


def test_auto_mode_falls_back_to_search_under_budget():
    G = ref234()
    squeezed = mc.EnumerationBudget(max_codewords=100)
    result = mc.min_gray_distance(G, budget=squeezed)
    assert not result.exact
    assert result.value >= goldens.REF234_MIN_DISTANCE


# --------------------------------------------------------------------------
# differential checks against plain-Python scans over sets of tuples

def triple(split, w):
    a, b, _ = split
    return w[:a], w[a:a + b], w[a + b:]


def reference_witness(split, rows):
    """First subgroup violation of a canonically ordered list of flat
    tuples, found by the scan order subgroup_witness documents."""
    mods = oracles.mods_for(split)
    present = set(rows)

    def show(w):
        return mc.format_vector(mc.MixedVector(mc.AlphabetSplit(*split), *triple(split, w)))

    if not rows:
        return "empty set: the zero word is missing"
    if any(rows[0]):
        return "the zero word is missing"
    for d in range(2, 8):
        for x in rows:
            if tuple(d * e % m for e, m in zip(x, mods)) not in present:
                return f"{d} * ({show(x)}) is not in the set"
    for x in rows:
        for y in rows:
            if tuple((e + f) % m for e, f, m in zip(x, y, mods)) not in present:
                return f"({show(x)}) + ({show(y)}) is not in the set"
    return None


@pytest.mark.parametrize("split", [(2, 2, 1), (3, 1, 2), (1, 0, 21), (0, 0, 22), (3, 4, 20)], ids=lambda s: "-".join(map(str, s)))
def test_subgroup_scan_and_membership_match_a_set_of_tuples(split):
    # (1, 0, 21) fills all 64 bits of a packed key; the last two exceed
    # 64 bits and are keyed by row bytes.
    rng = random.Random(sum(split) * 7)
    s = mc.AlphabetSplit(*split)
    mods = oracles.mods_for(split)
    verdicts = set()
    for trial in range(12):
        closure = None
        while closure is None or len(closure) > 256:
            gens = [tuple(rng.randrange(m) if rng.random() < 0.3 else 0 for m in mods) for _ in range(rng.randrange(1, 4))]
            closure = sorted(oracles.span_words(split, [triple(split, g) for g in gens]))
        rows = list(closure)
        if trial % 3 == 1 and len(rows) > 1:
            for _ in range(rng.randrange(1, 3)):
                rows.pop(rng.randrange(len(rows)))
        elif trial % 3 == 2:
            rows = rows[1:]
        C = mc.CodewordSet(s, np.array(rows, dtype=np.uint8).reshape(len(rows), len(mods)))
        expected = reference_witness(split, rows)
        verdicts.add(expected is None)
        assert mc.subgroup_witness(C) == expected
        assert mc.check_subgroup(C) == (expected is None)
        present = set(rows)
        for w in closure + [tuple(rng.randrange(m) for m in mods) for _ in range(20)]:
            assert (mc.MixedVector(s, *triple(split, w)) in C) == (w in present)
    assert verdicts == {True, False}


def pairwise_minimum(image):
    """Least Hamming distance over pairs of distinct rows, or None."""
    dists = [int((image[i + 1:] != image[i]).sum(axis=1).min()) for i in range(len(image) - 1)]
    return min(dists) if dists else None


def test_min_gray_distance_matches_pairwise_hamming_minimum():
    rng = random.Random(31)
    nonlinear = 0
    for _ in range(25):
        split, triples = oracles.sample_matrix(rng, max_exponent=8)
        words = sorted(oracles.span_words(split, triples))
        image = np.array([oracles.gray(split, w) for w in words], dtype=np.uint8).reshape(len(words), -1)
        image_set = {tuple(row) for row in image}
        nonlinear += any(tuple(x ^ y) not in image_set for x in image for y in image)
        s = mc.AlphabetSplit(*split)
        G = mc.MixedMatrix(s, [mc.MixedVector(s, *t) for t in triples])
        C = mc.CodewordSet(s, np.array(words, dtype=np.uint8).reshape(len(words), -1))
        expected = pairwise_minimum(image)
        assert mc.min_gray_distance(G).value == expected
        assert mc.min_gray_distance(C).value == expected
        # Without its first and last words the set is no subgroup.
        partial = mc.CodewordSet(s, np.array(words[1:-1], dtype=np.uint8).reshape(-1, len(words[0])))
        assert mc.min_gray_distance(partial).value == pairwise_minimum(image[1:-1])
    assert nonlinear >= 3


def test_subgroup_witness_names_a_violation_past_the_first_chunk():
    # S = C u (f + C) u (e + C) with C = {00} x Z4 x Z8^3 (2048 words) and
    # e, f the two Z2 unit words: closed under scalars, and every sum is in S
    # except f + e, which first appears at row 2048 (x = f, y = e), beyond
    # the first chunk of pairwise sums.
    split = mc.AlphabetSplit(2, 1, 3)
    tail = np.array(list(itertools.product(range(4), *[range(8)] * 3)), dtype=np.uint8)
    cosets = [np.hstack([np.tile(np.array(head, dtype=np.uint8), (len(tail), 1)), tail]) for head in ((0, 0), (0, 1), (1, 0))]
    S = mc.CodewordSet(split, np.vstack(cosets))
    assert len(S) == 3 * 2048
    assert mc.subgroup_witness(S) == "(0 1 | 0 | 0 0 0) + (1 0 | 0 | 0 0 0) is not in the set"
