"""Cyclic codes from generator polynomials: residue arithmetic, validation,
cofactors, the spanning matrix, sizes, and shift closure."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mixedcode as mc
import goldens
import oracles

DATA = Path(__file__).parent / "data"


def cyc1577():
    return mc.load_generators(DATA / "cyc1577.gen")


def small():
    return mc.load_generators(DATA / "small.gen")


# --------------------------------------------------------------------------
# residue polynomials

def test_residue_poly_validation():
    p = mc.ResiduePoly(2, 3, (1, 2, 3))
    assert str(p) == "1 + 2x + 3x^2"
    with pytest.raises(ValueError):
        mc.ResiduePoly(2, 3, (1, 2))
    with pytest.raises(ValueError):
        mc.ResiduePoly(2, 3, (1, 2, 4))


@given(
    st.sampled_from((2, 4, 8)),
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    st.lists(st.integers(0, 7), min_size=1, max_size=4),
)
def test_poly_divmod_reconstructs_and_matches_oracle(modulus, num, den):
    num = [c % modulus for c in num]
    den = [c % modulus for c in den]
    if not oracles.trim(den) or oracles.trim(den)[-1] % 2 == 0:
        return
    quot, rem = mc.poly_divmod(num, den, modulus)
    assert (list(quot), list(rem)) == oracles.pdivmod(num, den, modulus)
    back = oracles.padd(oracles.pmul(list(quot), den, modulus), list(rem), modulus)
    assert back == oracles.trim(num)


def test_division_by_non_unit_leading_divisor_is_refused():
    with pytest.raises(mc.IndeterminateDivisionError):
        mc.poly_divmod((1, 1), (2, 2), 4)


def test_poly_divides():
    assert mc.poly_divides((1, 1), (1, 2, 1), 4)
    assert not mc.poly_divides((1, 1), (3, 0, 0, 1), 4)
    assert not mc.poly_divides((1, 1, 1), (1, 1), 4)


# --------------------------------------------------------------------------
# the module structure

def all_triples(split):
    s = mc.AlphabetSplit(*split)
    mods = oracles.mods_for(split)
    for flat in itertools.product(*(range(m) for m in mods)):
        yield mc.MixedVector(
            s, flat[:split[0]], flat[split[0]:split[0] + split[1]], flat[split[0] + split[1]:]
        )


def test_star_mul_well_defined_and_matches_the_vector_action():
    for v in all_triples((1, 3, 1)):
        t = mc.from_vector(v)
        for d in range(16):
            left = mc.to_vector(mc.star_mul(d, t))
            assert left == mc.to_vector(mc.star_mul(d % 8, t))
            assert left == mc.scalar_mul(d, v)


def test_star_mul_distributes_over_addition():
    triples = list(all_triples((1, 1, 1)))
    for x, y in itertools.product(triples, repeat=2):
        total = mc.from_vector(mc.add(x, y))
        for d in (0, 1, 3, 5, 7):
            lhs = mc.to_vector(mc.star_mul(d, total))
            rhs = mc.add(
                mc.to_vector(mc.star_mul(d, mc.from_vector(x))),
                mc.to_vector(mc.star_mul(d, mc.from_vector(y))),
            )
            assert lhs == rhs


def x_times(t):
    def xp(poly):
        coeffs = [0] * poly.length
        coeffs[1 % poly.length] = 1
        return mc.ResiduePoly(poly.exponent, poly.length, tuple(coeffs)).mul(poly)
    return mc.PolyTriple(xp(t.u), xp(t.v), xp(t.w))


def test_multiplication_by_x_is_the_cyclic_shift():
    for v in all_triples((3, 3, 1)):
        assert mc.to_vector(x_times(mc.from_vector(v))) == mc.cyclic_shift(v)


def test_triple_vector_round_trip():
    for v in all_triples((1, 3, 1)):
        assert mc.to_vector(mc.from_vector(v)) == v


# --------------------------------------------------------------------------
# generator files and validation

def test_generator_round_trip_and_defaults():
    g = cyc1577()
    assert mc.parse_generators(mc.format_generators(g)) == g
    # Omitted chain polynomials canonicalize to x^n - 1, the monic
    # representative of zero in the quotient, so the divisibility chain
    # stays well-posed; omitted offsets stay genuinely zero.
    sparse = mc.parse_generators("alpha=3 beta=3 theta=3\nf = 1 1\n")
    assert sparse.g1 == (3, 0, 0, 1) and sparse.r == (7, 0, 0, 1)
    assert sparse.l1 == () and sparse.g2 == ()


def test_generator_parse_errors():
    with pytest.raises(mc.ParseError, match="odd"):
        mc.parse_generators("alpha=4 beta=3 theta=3\nf = 1 1\n")
    with pytest.raises(mc.ParseError, match="unknown polynomial"):
        mc.parse_generators("alpha=3 beta=3 theta=3\nzz = 1\n")
    with pytest.raises(mc.ParseError, match="not an integer"):
        mc.parse_generators("alpha=3 beta=3 theta=3\nf = 1 x\n")


def test_validation_passes_on_the_reference_instance():
    report = mc.validate_generators(cyc1577())
    assert report.ok
    assert len(report.checks) == 6
    assert all(c.passed for c in report.checks)


def test_validation_names_the_failing_condition():
    bad = mc.load_generators(DATA / "cyc1577_bad.gen")
    report = mc.validate_generators(bad)
    assert not report.ok
    first = report.failures[0]
    assert first.index == 5
    assert "2 + 2x + 2x^3" in first.detail


def test_degenerate_single_generator_code():
    g = mc.parse_generators("alpha=3 beta=3 theta=3\nf = 1 1\n")
    assert mc.validate_generators(g).ok
    sset = mc.spanning_set(g)
    assert mc.cyclic_size(g) == 4
    assert len(mc.closure_from_rows(sset.matrix)) == 4


def test_normalization_reduces_offsets_without_changing_the_code():
    base = small()
    variant = mc.CyclicGenerators(
        base.split, f=base.f, l1=(1, 1), l2=base.l2, g1=base.g1, a1=base.a1,
        g2=(1, 1), p=base.p, q=base.q, r=base.r,
    )
    assert mc.validate_generators(variant).ok
    assert mc.normalize_generators(variant) == base
    C0 = mc.closure_from_rows(mc.spanning_set(base).matrix)
    C1 = mc.closure_from_rows(mc.spanning_set(variant).matrix)
    assert C0 == C1


# --------------------------------------------------------------------------
# cofactors and the spanning matrix

def test_cofactor_goldens():
    co = mc.derive_cofactors(cyc1577())
    for name, expected in goldens.CYC1577_COFACTORS.items():
        assert getattr(co, name) == expected, name
    assert mc.compute_k(cyc1577()) == goldens.CYC1577_COFACTORS["k"]


def test_cofactor_identities_replay():
    g = cyc1577()
    co = mc.derive_cofactors(g)
    alpha, beta, theta = g.split
    assert oracles.pmul(list(g.f), list(co.f_cofactor), 2) == oracles.trim(oracles.xn1(alpha, 2))
    assert oracles.pmul(list(g.g1), list(co.g1_cofactor), 4) == oracles.trim(oracles.xn1(beta, 4))
    assert oracles.pmul(list(g.a1), list(co.g1_over_a1), 4) == list(g.g1)
    assert oracles.pmul(list(g.p), list(co.p_cofactor), 8) == oracles.trim(oracles.xn1(theta, 8))
    assert oracles.pmul(list(g.q), list(co.q_cofactor), 8) == oracles.trim(oracles.xn1(theta, 8))
    assert oracles.pmul(list(g.q), list(co.p_over_q), 8) == list(g.p)
    assert oracles.pmul(list(g.r), list(co.q_over_r), 8) == list(g.q)


def test_k_satisfies_its_defining_identity():
    g = cyc1577()
    k = list(mc.compute_k(g))
    rho = oracles.pdivmod(oracles.xn1(g.split.theta, 8), list(g.r), 8)[0]
    lhs = oracles.pmul(k, oracles.padd(list(g.g1), [2 * c for c in g.a1], 4), 4)
    rhs = oracles.pmul([c % 4 for c in rho], list(g.g2), 4)
    assert oracles.fold_mod2(oracles.padd(lhs, [(-c) % 4 for c in rhs], 4), g.split.beta) == [] or lhs == rhs
    assert lhs == rhs


def test_spanning_matrix_matches_golden_rows():
    sset = mc.spanning_set(cyc1577())
    assert sset.group_sizes == goldens.CYC1577_GROUP_SIZES
    got = [(r.u, r.v, r.w) for r in sset.matrix.rows]
    assert got == list(goldens.CYC1577_MATRIX_ROWS)


def test_cyclic_size_goldens():
    assert mc.cyclic_size(cyc1577()) == 1 << goldens.CYC1577_LOG2_SIZE
    g = small()
    assert mc.cyclic_size(g) == len(mc.closure_from_rows(mc.spanning_set(g).matrix))


# --------------------------------------------------------------------------
# shift closure

def test_spanning_matrix_is_shift_closed():
    sset = mc.spanning_set(cyc1577())
    assert mc.check_cyclic_closure(sset.matrix)
    assert mc.cyclic_closure_witness(sset.matrix) is None


def test_non_cyclic_row_is_detected():
    M = mc.parse_matrix("3 1 1\n1 0 0 | 0 | 0")
    assert not mc.check_cyclic_closure(M)
    assert mc.cyclic_closure_witness(M) == 0


def _sampled_rows(seed, count):
    """Seeded sampled matrices; every fourth is closed under the shift by
    construction, holding every shift of its rows."""
    rng = random.Random(seed)
    for i in range(count):
        split, rows = oracles.sample_matrix(rng, max_exponent=9)
        if i % 4 == 0:
            orbit = []
            for row in rows:
                w = oracles.flatten(row)
                while w not in orbit:
                    orbit.append(w)
                    w = oracles.block_shift(split, w)
            a, b, _ = split
            rows = [(w[:a], w[a:a + b], w[a + b:]) for w in orbit]
        yield i, split, rows


def _matrix(split, rows):
    s = mc.AlphabetSplit(*split)
    return mc.MixedMatrix(s, [mc.MixedVector(s, *r) for r in rows])


def test_closure_witness_is_the_first_row_whose_shift_leaves_the_span():
    open_count = 0
    for sample, split, rows in _sampled_rows(17, 40):
        span = oracles.span_words(split, rows)
        expected = next(
            (i for i, r in enumerate(rows) if oracles.block_shift(split, oracles.flatten(r)) not in span),
            None,
        )
        assert expected is None or sample % 4
        open_count += expected is not None
        assert mc.cyclic_closure_witness(_matrix(split, rows)) == expected
    assert open_count >= 20


def test_shift_rows_is_the_cyclic_shift_of_each_row():
    for _, split, rows in _sampled_rows(19, 20):
        M = _matrix(split, rows)
        shifted = mc.shift_rows(M.split, M.array)
        assert [tuple(r) for r in shifted.tolist()] == [mc.cyclic_shift(r).entries() for r in M.rows]


# --------------------------------------------------------------------------
# the canonicity boundary

def test_formula_and_span_disagree_off_canonical_form():
    """All six conditions can hold while an S5 row has additive order 4;
    the cofactor-degree formula then undershoots the true span, so
    cyclic_size must not use it there."""
    g = mc.load_generators(DATA / "noncanon.gen")
    assert tuple(g.split) == goldens.NONCANON_LENGTHS
    assert mc.validate_generators(g).ok
    co = mc.derive_cofactors(g)
    formula_log2 = (
        oracles.pdeg(list(co.f_cofactor)) + 2 * oracles.pdeg(list(co.g1_cofactor))
        + 3 * oracles.pdeg(list(co.p_cofactor)) + 2 * oracles.pdeg(list(co.p_over_q))
        + oracles.pdeg(list(co.q_over_r)) + oracles.pdeg(list(co.g1_over_a1))
    )
    assert 1 << formula_log2 == goldens.NONCANON_FORMULA_SIZE
    assert mc.cyclic_size(g) == goldens.NONCANON_SPAN_SIZE
    C = mc.closure_from_rows(mc.spanning_set(g).matrix)
    assert len(C) == goldens.NONCANON_SPAN_SIZE
    hq = oracles.pdivmod(oracles.xn1(g.split.theta, 8), list(g.q), 8)[0]
    folded = oracles.fold_mod2(
        oracles.pmul([c % 2 for c in hq], [c % 2 for c in g.g2], 2), g.split.beta
    )
    assert folded, "the canonicity requirement is violated by construction"
