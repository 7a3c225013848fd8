"""Acceptance battery: one test per contract item, each stamped [PASS] or
[FAIL] with its runtime (run pytest with -s to see the lines).

Two sub-tests pin published figures that the arithmetic provably contradicts
(the reference reduction's row space, and the quotient claim for k). They are
implemented faithfully and left to fail; the golden data in `goldens` records
the verified values and the evidence next to each claim.
"""

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import mixedcode as mc
import goldens
import oracles

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(label, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    stamp = f"{label} ({elapsed:.2f}s, limit {limit:g}s)"
    if elapsed >= limit:
        print(f"\n[FAIL] {stamp}")
        pytest.fail(f"{label}: runtime {elapsed:.2f}s exceeded {limit:g}s")
    print(f"\n[PASS] {stamp}")


def triples_matrix(split, triples):
    s = mc.AlphabetSplit(*split)
    return mc.MixedMatrix(s, [mc.MixedVector(s, *t) for t in triples])


def entries_set(C):
    return {c.entries() for c in C}


def exact_gram(left, right, weights):
    """All-pairs inner products via a float matmul; exact here because every
    term is far below 2**53."""
    lf = (left * weights).astype(np.float64)
    return ((lf @ right.T.astype(np.float64)).astype(np.int64)) % 8


# --------------------------------------------------------------------------
# criterion 1: standard form of the reference generator matrix

def test_criterion_1_standard_form():
    with criterion("criterion 1: reference standard form and count", 1.0):
        G = mc.load_matrix(DATA / "ref234.mtx")
        blocks, _ = mc.standard_form(G)
        t = blocks.code_type
        assert (t.alpha, t.beta, t.theta) + t.k == goldens.REF234_TYPE
        assert mc.cardinality(t) == goldens.REF234_CARDINALITY
        C = mc.enumerate_codewords(blocks)
        assert len(C) == goldens.REF234_CARDINALITY


def test_criterion_1_set_equality_with_published_reduction():
    """Expected to fail: the published reduction is not row-equivalent to the
    generators it is printed beside (three of its rows fall outside their
    span, and the two spans share only 256 of 1024 words; no within-block
    column permutation closes the gap). Kept red deliberately."""
    with criterion("criterion 1 (set-equality clause): published reduction spans the same code", 1.0):
        ours = oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_ROWS)
        published = oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_CLAIMED_REDUCTION)
        # compare via a bool: the raw 1024-word set diff is unreadable and
        # expensive for pytest to render
        spans_equal = ours == published
        assert spans_equal, (
            f"spans are not equal: {len(ours & published)} shared words, "
            f"{len(ours - published)} only in ours, {len(published - ours)} only published"
        )


# --------------------------------------------------------------------------
# criterion 2: dual of the published reduction

def test_criterion_2_dual_code():
    with criterion("criterion 2: dual code matches the published parity rows", 5.0):
        G = triples_matrix(goldens.REF234_SPLIT, goldens.REF234_CLAIMED_REDUCTION)
        blocks, perm = mc.standard_form(G)
        dt = mc.dual_type(blocks.code_type)
        assert (dt.alpha, dt.beta, dt.theta) + dt.k == goldens.REF234_DUAL_TYPE
        H = perm.inverse().apply(mc.dual_matrix(blocks))
        D = mc.closure_from_rows(H)
        assert len(D) == goldens.REF234_DUAL_CARDINALITY
        published = oracles.span_words(goldens.REF234_SPLIT, goldens.REF234_CLAIMED_PARITY_ROWS)
        assert entries_set(D) == published
        C = mc.closure_from_rows(G)
        weights = np.array([4, 4, 2, 2, 2, 1, 1, 1, 1], dtype=np.int64)
        gram = exact_gram(C.array.astype(np.int64), D.array.astype(np.int64), weights)
        assert gram.shape == (1024, 1024) and not gram.any()


# --------------------------------------------------------------------------
# criterion 3: duality identity on random matrices

def test_criterion_3_duality_identity():
    with criterion("criterion 3: duality identity on 100 random matrices", 60.0):
        rng = random.Random(0)
        for _ in range(100):
            split, triples = oracles.sample_matrix(rng, max_exponent=16)
            G = triples_matrix(split, triples)
            C = mc.closure_from_rows(G)
            D = mc.brute_force_dual(C)
            assert len(C) * len(D) == 1 << G.split.ambient_exponent
            blocks, perm = mc.standard_form(G)
            H = perm.inverse().apply(mc.dual_matrix(blocks))
            assert mc.closure_from_rows(H) == D
            assert entries_set(D) == oracles.brute_dual(split, triples)


# --------------------------------------------------------------------------
# criterion 4: Gray tables

def test_criterion_4_gray_tables():
    with criterion("criterion 4: Gray tables, Lee weights, one-bit stepping", 1.0):
        for v, bits in goldens.GRAY_PHI1.items():
            assert mc.gray_phi1(v) == bits
        for w, bits in goldens.GRAY_PHI2.items():
            assert mc.gray_phi2(w) == bits
        for w in range(8):
            assert mc.hamming_weight(mc.gray_phi2(w)) == min(w, 8 - w)
        for v in range(4):
            step = sum(a ^ b for a, b in zip(mc.gray_phi1(v), mc.gray_phi1((v + 1) % 4)))
            assert step == 1
        for w in range(8):
            step = sum(a ^ b for a, b in zip(mc.gray_phi2(w), mc.gray_phi2((w + 1) % 8)))
            assert step == 1


# --------------------------------------------------------------------------
# criterion 5: the cyclic pipeline on the reference generators

def test_criterion_5_cyclic_pipeline():
    with criterion("criterion 5: cyclic pipeline on the (15,7,7) generators", 10.0):
        g = mc.load_generators(DATA / "cyc1577.gen")
        report = mc.validate_generators(g)
        assert report.ok
        co = mc.derive_cofactors(g)
        assert co.p_cofactor == goldens.CYC1577_COFACTORS["p_cofactor"]
        assert co.q_cofactor == goldens.CYC1577_COFACTORS["q_cofactor"]
        assert co.g1_cofactor == goldens.CYC1577_COFACTORS["g1_cofactor"]
        assert co.k == goldens.CYC1577_COFACTORS["k"]
        sset = mc.spanning_set(g)
        got = [(r.u, r.v, r.w) for r in sset.matrix.rows]
        assert got == list(goldens.CYC1577_MATRIX_ROWS)
        assert mc.cyclic_size(g) == 1 << goldens.CYC1577_LOG2_SIZE
        assert g.split.gray_length == goldens.CYC1577_GRAY_PARAMS[0]
        sweep = mc.min_gray_distance(sset.matrix, mode="search", seed=0)
        assert not sweep.exact
        assert sweep.value == goldens.CYC1577_GRAY_PARAMS[2]


def test_criterion_5_published_quotient_claim():
    """Expected to fail: the published value 1 + x does not satisfy the
    quotient's defining identity (the divisor is unit-leading, so the
    quotient is unique, and it is 3 + x + x^2 + x^4). Kept red deliberately."""
    with criterion("criterion 5 (quotient clause): published k value", 1.0):
        g = mc.load_generators(DATA / "cyc1577.gen")
        assert mc.compute_k(g) == goldens.CYC1577_CLAIMED_K


# --------------------------------------------------------------------------
# criterion 6: size formula and minimality on sampled generators

def test_criterion_6_size_and_minimality():
    with criterion("criterion 6: size, minimality, shift closure on 20 sampled generator triples", 300.0):
        rng = random.Random(20240814)
        for _ in range(20):
            g = oracles.sample_generators(rng, max_log_size=18)
            assert mc.validate_generators(g).ok
            sset = mc.spanning_set(g)
            C = mc.closure_from_rows(sset.matrix)
            assert len(C) == mc.cyclic_size(g)
            rows = list(sset.matrix.rows)
            for i, row in enumerate(rows):
                rest = mc.MixedMatrix(g.split, rows[:i] + rows[i + 1:])
                blocks, perm = mc.standard_form(rest)
                assert not mc.is_member(row, blocks, perm), f"row {i} is redundant"
            assert mc.check_cyclic_closure(sset.matrix)


# --------------------------------------------------------------------------
# criterion 7: duals of cyclic codes are cyclic

def test_criterion_7_dual_cyclicity():
    with criterion("criterion 7: brute-force duals of 10 small cyclic codes are shift-closed", 60.0):
        rng = random.Random(7)
        seen = set()
        while len(seen) < 10:
            g = oracles.sample_generators(rng, max_log_size=10, lengths=(3,))
            key = mc.format_generators(g)
            if key in seen:
                continue
            seen.add(key)
            C = mc.closure_from_rows(mc.spanning_set(g).matrix)
            D = mc.brute_force_dual(C)
            assert len(C) * len(D) == 1 << g.split.ambient_exponent
            a, b = g.split.alpha, g.split.beta
            rows = [
                mc.MixedVector(
                    g.split,
                    tuple(int(x) for x in r[:a]),
                    tuple(int(x) for x in r[a:a + b]),
                    tuple(int(x) for x in r[a + b:]),
                )
                for r in D.array
            ]
            assert mc.check_cyclic_closure(mc.MixedMatrix(g.split, rows))


# --------------------------------------------------------------------------
# criterion 8: the property suite

ACTION_SPLITS = ((2, 2, 2), (0, 0, 4), (12, 0, 0), (4, 1, 2))


def ambient_array(split):
    mods = oracles.mods_for(split)
    return np.array(list(itertools.product(*(range(m) for m in mods))), dtype=np.int64)


def check_action_compatibility():
    for split in ACTION_SPLITS:
        alpha, beta, _ = split
        amb = ambient_array(split)
        weights = np.array((4,) * alpha + (2,) * beta + (1,) * split[2], dtype=np.int64)
        gram = exact_gram(amb, amb, weights)
        for d in range(8):
            acted = np.concatenate(
                [
                    d * amb[:, :alpha] % 2,
                    d * amb[:, alpha:alpha + beta] % 4,
                    d * amb[:, alpha + beta:] % 8,
                ],
                axis=1,
            )
            assert np.array_equal(exact_gram(acted, amb, weights), d * gram % 8)


def all_vectors(split):
    s = mc.AlphabetSplit(*split)
    for flat in ambient_array(split):
        yield mc.MixedVector(
            s,
            tuple(int(x) for x in flat[:split[0]]),
            tuple(int(x) for x in flat[split[0]:split[0] + split[1]]),
            tuple(int(x) for x in flat[split[0] + split[1]:]),
        )


def check_star_well_definedness():
    for v in all_vectors((1, 3, 1)):
        t = mc.from_vector(v)
        for d in range(8):
            assert mc.star_mul(d, t) == mc.star_mul(d + 8, t)
    vectors = list(all_vectors((1, 1, 1)))
    for x, y in itertools.product(vectors, repeat=2):
        total = mc.from_vector(mc.add(x, y))
        for d in (1, 3, 6):
            lhs = mc.to_vector(mc.star_mul(d, total))
            rhs = mc.add(
                mc.to_vector(mc.star_mul(d, mc.from_vector(x))),
                mc.to_vector(mc.star_mul(d, mc.from_vector(y))),
            )
            assert lhs == rhs


def check_shift_commutation():
    for split in ((1, 3, 1), (3, 3, 1)):
        for v in all_vectors(split):
            t = mc.from_vector(v)
            def times_x(poly):
                coeffs = [0] * poly.length
                coeffs[1 % poly.length] = 1
                return mc.ResiduePoly(poly.exponent, poly.length, tuple(coeffs)).mul(poly)
            shifted = mc.PolyTriple(times_x(t.u), times_x(t.v), times_x(t.w))
            assert mc.to_vector(shifted) == mc.cyclic_shift(v)


def check_dual_type_involution():
    for raw in oracles.type_tuples(12):
        t = mc.CodeType(*raw)
        d = mc.dual_type(t)
        assert mc.dual_type(d) == t
        assert mc.cardinality(t) * mc.cardinality(d) == 1 << (t.alpha + 2 * t.beta + 3 * t.theta)


def check_span_preservation():
    for v in all_vectors((1, 1, 1)):
        G = mc.MixedMatrix(v.split, [v])
        blocks, perm = mc.standard_form(G)
        inv = perm.inverse()
        back = [inv.apply_to_vector(r) for r in blocks.matrix().rows]
        lhs = oracles.span_words((1, 1, 1), [(r.u, r.v, r.w) for r in G.rows])
        rhs = oracles.span_words((1, 1, 1), [(r.u, r.v, r.w) for r in back])
        assert lhs == rhs
    rng = random.Random(8)
    for _ in range(30):
        split, triples = oracles.sample_matrix(rng, max_exponent=12)
        G = triples_matrix(split, triples)
        blocks, perm = mc.standard_form(G)
        C = mc.enumerate_codewords(blocks)
        mapped = {perm.inverse().apply_to_vector(c) for c in C}
        assert mapped == set(mc.closure_from_rows(G))


def test_criterion_8_property_suite():
    with criterion("criterion 8: exhaustive property suite on small ambients", 60.0):
        check_action_compatibility()
        check_star_well_definedness()
        check_shift_commutation()
        check_dual_type_involution()
        check_span_preservation()


# --------------------------------------------------------------------------
# optional: exhaustive distance of the (15,7,7) reference code

@pytest.mark.slow
def test_exhaustive_distance_of_reference_cyclic_code():
    """Sweep all 2^33 codewords for the true minimum Gray distance.

    The ten binary-only rows span a GF(2) subspace B of the Z2 block, so a
    codeword is (non-binary combination) + b with b in B. Precomputing the
    distance from every 15-bit pattern to B collapses the sweep to the 2^23
    combinations of the eleven remaining rows; Z4/Z8 blocks contribute their
    Lee weights independently of b.
    """
    g = mc.load_generators(DATA / "cyc1577.gen")
    rows = mc.spanning_set(g).matrix.rows
    alpha, beta, theta = g.split
    binary = [r for r in rows if not any(r.v) and not any(r.w)]
    others = [r for r in rows if any(r.v) or any(r.w)]
    assert len(binary) == 10 and len(others) == 11

    B = {0}
    for r in binary:
        mask = sum(bit << i for i, bit in enumerate(r.u))
        B |= {word ^ mask for word in B}
    B = np.fromiter(B, dtype=np.int64)
    assert B.size == 1 << 10
    popcount = np.array([bin(i).count("1") for i in range(1 << alpha)], dtype=np.uint8)
    coset_min = np.full(1 << alpha, alpha + 1, dtype=np.uint8)
    patterns = np.arange(1 << alpha, dtype=np.int64)
    for b in B:
        np.minimum(coset_min, popcount[patterns ^ b], out=coset_min)
    best = int(popcount[B[B != 0]].min())  # pure-binary codewords

    def row_order(r):
        order = 1
        for e in r.u:
            order = max(order, 2 if e else 1)
        for e in r.v:
            order = max(order, 4 // np.gcd(4, e) if e else 1)
        for e in r.w:
            order = max(order, 8 // np.gcd(8, e) if e else 1)
        return order

    orders = [row_order(r) for r in others]
    total = int(np.prod(orders))
    assert total == 1 << 23
    gens = np.array([r.entries() for r in others], dtype=np.int64)
    mods = np.array((2,) * alpha + (4,) * beta + (8,) * theta, dtype=np.int64)
    lee4 = np.array([0, 1, 2, 1], dtype=np.int64)
    lee8 = np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=np.int64)
    powers = 1 << np.arange(alpha, dtype=np.int64)

    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = np.zeros((idx.size, gens.shape[1]), dtype=np.int64)
        rem = idx.copy()
        for order, row in zip(orders, gens):
            words += (rem % order)[:, None] * row[None, :]
            rem //= order
        words %= mods
        weight = coset_min[words[:, :alpha] @ powers].astype(np.int64)
        weight += lee4[words[:, alpha:alpha + beta]].sum(axis=1)
        weight += lee8[words[:, alpha + beta:]].sum(axis=1)
        if start == 0:
            weight[0] = alpha + 1  # the all-zero combination is not a codeword candidate
        best = min(best, int(weight.min()))

    assert best == goldens.CYC1577_GRAY_PARAMS[2]
