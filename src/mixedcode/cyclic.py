"""Cyclic codes over the mixed alphabet, built from generator polynomials.

Words correspond to coefficient triples in
Z2[x]/(x^alpha - 1) x Z4[x]/(x^beta - 1) x Z8[x]/(x^theta - 1),
and the simultaneous right rotation of the three blocks is multiplication
by x. A cyclic code is generated, as a module over Z8[x], by three triples

    (f, 0, 0),  (l1, g1 + 2*a1, 0),  (l2, g2, p + 2*q + 4*r)

whose nine polynomials must satisfy divisor-chain and compatibility
conditions; validate_generators checks them and reports witnesses. The
spanning-set construction turns a valid triple into an explicit generator
matrix whose row count gives the code size in closed form.

Block lengths must be odd. A zero (or omitted) chain divisor among
f, g1, a1, p, q, r stands for x^n - 1 of its block, the zero element of the
residue ring; l1, l2, g2 are honest zeros. Polynomials are coefficient
lists in ascending degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mixedcode.core import AlphabetSplit, MixedVector, ParseError
from mixedcode.matrices import MixedMatrix, cardinality, reduce_rows, standard_form

GENERATOR_KEYS = ("f", "l1", "l2", "g1", "a1", "g2", "p", "q", "r")


class IndeterminateDivisionError(ValueError):
    """Polynomial division needs a unit (odd) leading coefficient."""


class ConditionError(ValueError):
    """A generator-condition prerequisite does not hold."""


# ---------------------------------------------------------------------------
# ambient polynomial helpers (plain coefficient lists, ascending degree)

def poly_trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p) -> int:
    """Degree, with -1 standing in for the zero polynomial."""
    p = poly_trim(p)
    return len(p) - 1


def poly_add(a, b, modulus: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c % modulus
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % modulus
    return poly_trim(out)


def poly_sub(a, b, modulus: int) -> list:
    return poly_add(a, [-c for c in b], modulus)


def poly_scale(c: int, a, modulus: int) -> list:
    return poly_trim([c * x % modulus for x in a])


def poly_mul(a, b, modulus: int) -> list:
    a = poly_trim(a)
    b = poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % modulus
    return poly_trim(out)


def poly_divmod(num, den, modulus: int):
    """Quotient and remainder in Z_modulus[x]; den must be unit-leading."""
    num = poly_trim([c % modulus for c in num])
    den = poly_trim([c % modulus for c in den])
    if not den:
        raise IndeterminateDivisionError("division by the zero polynomial")
    lc = den[-1]
    if lc % 2 == 0:
        raise IndeterminateDivisionError(
            f"leading coefficient {lc} is not a unit mod {modulus}"
        )
    inv = pow(lc, -1, modulus)
    dq = len(den) - 1
    rem = list(num)
    quot = [0] * max(len(rem) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            coef = c * inv % modulus
            quot[i - dq] = coef
            for j, d in enumerate(den):
                rem[i - dq + j] = (rem[i - dq + j] - coef * d) % modulus
    return poly_trim(quot), poly_trim(rem[:dq])


def poly_divides(a, b, modulus: int) -> bool:
    """True iff a divides b in Z_modulus[x] (a unit-leading, or both zero)."""
    if not poly_trim(a):
        return not poly_trim(b)
    _, rem = poly_divmod(b, a, modulus)
    return not rem


def xn_minus_1(n: int, modulus: int) -> list:
    return [modulus - 1] + [0] * (n - 1) + [1]


def poly_str(p) -> str:
    p = poly_trim(p)
    if not p:
        return "0"
    terms = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# residue-ring polynomials and triples

_EXP_MOD = {1: 2, 2: 4, 3: 8}


@dataclass(frozen=True)
class ResiduePoly:
    """A polynomial of Z_{2^exponent}[x]/(x^length - 1), stored as a full
    length-n coefficient tuple."""

    exponent: int
    length: int
    coeffs: tuple

    def __post_init__(self):
        if self.exponent not in _EXP_MOD:
            raise ValueError(f"exponent must be 1, 2, or 3, got {self.exponent}")
        if self.length < 1:
            raise ValueError("length must be positive")
        if len(self.coeffs) != self.length:
            raise ValueError(f"expected {self.length} coefficients, got {len(self.coeffs)}")
        m = _EXP_MOD[self.exponent]
        if any(not 0 <= c < m for c in self.coeffs):
            raise ValueError(f"coefficients must lie in [0, {m})")

    @classmethod
    def from_coeffs(cls, coeffs, exponent: int, length: int) -> "ResiduePoly":
        """Fold an ambient coefficient list mod x^length - 1 and reduce."""
        m = _EXP_MOD[exponent]
        folded = [0] * length
        for i, c in enumerate(coeffs):
            folded[i % length] = (folded[i % length] + c) % m
        return cls(exponent, length, tuple(folded))

    @property
    def modulus(self) -> int:
        return _EXP_MOD[self.exponent]

    def degree(self) -> int:
        for i in range(self.length - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def add(self, other: "ResiduePoly") -> "ResiduePoly":
        self._match(other)
        m = self.modulus
        return ResiduePoly(
            self.exponent, self.length,
            tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)),
        )

    def mul(self, other: "ResiduePoly") -> "ResiduePoly":
        self._match(other)
        return ResiduePoly.from_coeffs(
            poly_mul(list(self.coeffs), list(other.coeffs), self.modulus),
            self.exponent, self.length,
        )

    def _match(self, other: "ResiduePoly") -> None:
        if self.exponent != other.exponent or self.length != other.length:
            raise ValueError(
                f"ring mismatch: Z{self.modulus}[x]/(x^{self.length}-1) vs "
                f"Z{other.modulus}[x]/(x^{other.length}-1)"
            )

    def __str__(self):
        return poly_str(list(self.coeffs))


@dataclass(frozen=True)
class PolyTriple:
    """One codeword as a polynomial triple."""

    u: ResiduePoly
    v: ResiduePoly
    w: ResiduePoly

    def __post_init__(self):
        if (self.u.exponent, self.v.exponent, self.w.exponent) != (1, 2, 3):
            raise ValueError("triple components must lie over Z2, Z4, Z8 in order")

    @property
    def split(self) -> AlphabetSplit:
        return AlphabetSplit(self.u.length, self.v.length, self.w.length)

    @classmethod
    def from_lists(cls, split: AlphabetSplit, u, v, w) -> "PolyTriple":
        return cls(
            ResiduePoly.from_coeffs(u, 1, split.alpha),
            ResiduePoly.from_coeffs(v, 2, split.beta),
            ResiduePoly.from_coeffs(w, 3, split.theta),
        )

    def add(self, other: "PolyTriple") -> "PolyTriple":
        return PolyTriple(self.u.add(other.u), self.v.add(other.v), self.w.add(other.w))


def star_mul(d, t: PolyTriple) -> PolyTriple:
    """Action of an ambient Z8[x] polynomial: componentwise product mod
    (2, x^alpha - 1), (4, x^beta - 1), (8, x^theta - 1)."""
    dl = [int(d)] if isinstance(d, int) else list(d)
    dl = [c % 8 for c in dl]
    split = t.split
    return PolyTriple(
        ResiduePoly.from_coeffs(poly_mul(dl, list(t.u.coeffs), 2), 1, split.alpha),
        ResiduePoly.from_coeffs(poly_mul(dl, list(t.v.coeffs), 4), 2, split.beta),
        ResiduePoly.from_coeffs(poly_mul(dl, list(t.w.coeffs), 8), 3, split.theta),
    )


def to_vector(t: PolyTriple) -> MixedVector:
    """Coefficient i of each component becomes coordinate i of its block."""
    return MixedVector(t.split, t.u.coeffs, t.v.coeffs, t.w.coeffs)


def from_vector(x: MixedVector) -> PolyTriple:
    return PolyTriple(
        ResiduePoly(1, x.split.alpha, x.u),
        ResiduePoly(2, x.split.beta, x.v),
        ResiduePoly(3, x.split.theta, x.w),
    )


def cyclic_shift(x: MixedVector) -> MixedVector:
    """Rotate each block right by one position, independently."""

    def rot(block):
        return block[-1:] + block[:-1]

    return MixedVector(x.split, rot(x.u), rot(x.v), rot(x.w))


def shift_rows(split: AlphabetSplit, arr: np.ndarray) -> np.ndarray:
    """cyclic_shift of every row of an (m, alpha + beta + theta) array."""
    a, b, c = split
    source = np.concatenate([np.roll(np.arange(n), 1) + start for n, start in ((a, 0), (b, a), (c, a + b))])
    return arr[:, source]


# ---------------------------------------------------------------------------
# generators

class CyclicGenerators:
    """The nine generator polynomials of a cyclic code over one split.

    Coefficients are reduced eagerly into their rings; chain divisors given
    as zero are replaced by x^n - 1 of their block.
    """

    __slots__ = ("split", "f", "l1", "l2", "g1", "a1", "g2", "p", "q", "r")

    def __init__(self, split: AlphabetSplit, f=(), l1=(), l2=(), g1=(), a1=(), g2=(), p=(), q=(), r=()):
        for name, n in (("alpha", split.alpha), ("beta", split.beta), ("theta", split.theta)):
            if n < 1 or n % 2 == 0:
                raise ValueError(f"{name} must be odd and positive, got {n}")
        object.__setattr__(self, "split", split)

        def prep(coeffs, modulus, chain_length=None):
            out = poly_trim([int(c) % modulus for c in coeffs])
            if not out and chain_length is not None:
                out = xn_minus_1(chain_length, modulus)
            return tuple(out)

        object.__setattr__(self, "f", prep(f, 2, split.alpha))
        object.__setattr__(self, "l1", prep(l1, 2))
        object.__setattr__(self, "l2", prep(l2, 2))
        object.__setattr__(self, "g1", prep(g1, 4, split.beta))
        object.__setattr__(self, "a1", prep(a1, 4, split.beta))
        object.__setattr__(self, "g2", prep(g2, 4))
        object.__setattr__(self, "p", prep(p, 8, split.theta))
        object.__setattr__(self, "q", prep(q, 8, split.theta))
        object.__setattr__(self, "r", prep(r, 8, split.theta))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicGenerators is immutable")

    def __eq__(self, other):
        return isinstance(other, CyclicGenerators) and all(
            getattr(self, k) == getattr(other, k) for k in ("split",) + GENERATOR_KEYS
        )

    def __hash__(self):
        return hash(tuple(getattr(self, k) for k in ("split",) + GENERATOR_KEYS))

    def __repr__(self):
        parts = ", ".join(f"{k}={poly_str(list(getattr(self, k)))}" for k in GENERATOR_KEYS)
        return f"CyclicGenerators(split={self.split}, {parts})"

    @property
    def g1_plus_2a1(self) -> tuple:
        return tuple(poly_add(list(self.g1), poly_scale(2, list(self.a1), 4), 4))

    @property
    def p_plus_2q_4r(self) -> tuple:
        s = poly_add(list(self.p), poly_scale(2, list(self.q), 8), 8)
        return tuple(poly_add(s, poly_scale(4, list(self.r), 8), 8))

    def triples(self):
        """The three module generators as polynomial triples."""
        split = self.split
        gen1 = PolyTriple.from_lists(split, self.f, (), ())
        gen2 = PolyTriple.from_lists(split, self.l1, self.g1_plus_2a1, ())
        gen3 = PolyTriple.from_lists(split, self.l2, self.g2, self.p_plus_2q_4r)
        return gen1, gen2, gen3


def _require_unit_leading(g: CyclicGenerators) -> None:
    for name, modulus in (("f", 2), ("g1", 4), ("a1", 4), ("p", 8), ("q", 8), ("r", 8)):
        poly = list(getattr(g, name))
        if poly and poly[-1] % 2 == 0:
            raise IndeterminateDivisionError(
                f"{name} has non-unit leading coefficient {poly[-1]} mod {modulus}"
            )


@dataclass(frozen=True)
class ConditionCheck:
    index: int
    label: str
    passed: bool
    detail: str = ""

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"condition {self.index}: {self.label}: {mark}{suffix}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def validate_generators(g: CyclicGenerators) -> ValidationReport:
    """Check the six divisor-chain and compatibility conditions.

    Returns per-condition pass/fail with the failing remainder as witness.
    Raises IndeterminateDivisionError if a chain divisor is not unit-leading.
    """
    _require_unit_leading(g)
    alpha, beta, theta = g.split
    f, l1, l2 = list(g.f), list(g.l1), list(g.l2)
    g1, a1, g2 = list(g.g1), list(g.a1), list(g.g2)
    p, q, r = list(g.p), list(g.q), list(g.r)
    mix = list(g.g1_plus_2a1)
    checks = []

    def chain(index, label, pairs, modulus):
        for small, big, small_name, big_name in pairs:
            if not poly_divides(small, big, modulus):
                _, rem = poly_divmod(big, small, modulus)
                checks.append(ConditionCheck(
                    index, label, False,
                    f"{small_name} does not divide {big_name}: remainder {poly_str(rem)}",
                ))
                return False
        checks.append(ConditionCheck(index, label, True))
        return True

    chain(1, "f | x^alpha - 1 over Z2", [(f, xn_minus_1(alpha, 2), "f", "x^alpha - 1")], 2)
    ok2 = chain(2, "a1 | g1 | x^beta - 1 over Z4", [
        (a1, g1, "a1", "g1"),
        (g1, xn_minus_1(beta, 4), "g1", "x^beta - 1"),
    ], 4)
    ok3 = chain(3, "r | q | p | x^theta - 1 over Z8", [
        (r, q, "r", "q"),
        (q, p, "q", "p"),
        (p, xn_minus_1(theta, 8), "p", "x^theta - 1"),
    ], 8)

    if ok2:
        a1_cofactor, _ = poly_divmod(xn_minus_1(beta, 4), a1, 4)
        lhs = poly_mul([c % 2 for c in a1_cofactor], l1, 2)
        if poly_divides(f, lhs, 2):
            checks.append(ConditionCheck(4, "f | ((x^beta - 1)/a1) * l1 over Z2", True))
        else:
            _, rem = poly_divmod(lhs, f, 2)
            checks.append(ConditionCheck(
                4, "f | ((x^beta - 1)/a1) * l1 over Z2", False,
                f"remainder {poly_str(rem)}",
            ))
    else:
        checks.append(ConditionCheck(
            4, "f | ((x^beta - 1)/a1) * l1 over Z2", False,
            "not evaluated: condition 2 must hold first",
        ))

    k = None
    if ok3:
        r_cofactor, _ = poly_divmod(xn_minus_1(theta, 8), r, 8)
        rho4 = [c % 4 for c in r_cofactor]
        quot, rem = poly_divmod(poly_mul(rho4, g2, 4), mix, 4)
        if rem:
            checks.append(ConditionCheck(
                5, "g1 + 2a1 | ((x^theta - 1)/r) * g2 over Z4", False,
                f"remainder {poly_str(rem)}",
            ))
        else:
            checks.append(ConditionCheck(5, "g1 + 2a1 | ((x^theta - 1)/r) * g2 over Z4", True))
            k = quot
    else:
        checks.append(ConditionCheck(
            5, "g1 + 2a1 | ((x^theta - 1)/r) * g2 over Z4", False,
            "not evaluated: condition 3 must hold first",
        ))

    if k is not None:
        r_cofactor, _ = poly_divmod(xn_minus_1(theta, 8), r, 8)
        rho2 = [c % 2 for c in r_cofactor]
        lhs = poly_add(poly_mul([c % 2 for c in k], l1, 2), poly_mul(rho2, l2, 2), 2)
        if poly_divides(f, lhs, 2):
            checks.append(ConditionCheck(6, "f | k*l1 + ((x^theta - 1)/r)*l2 over Z2", True))
        else:
            _, rem = poly_divmod(lhs, f, 2)
            checks.append(ConditionCheck(
                6, "f | k*l1 + ((x^theta - 1)/r)*l2 over Z2", False,
                f"remainder {poly_str(rem)}",
            ))
    else:
        checks.append(ConditionCheck(
            6, "f | k*l1 + ((x^theta - 1)/r)*l2 over Z2", False,
            "not evaluated: condition 5 must hold first",
        ))

    return ValidationReport(tuple(checks))


def compute_k(g: CyclicGenerators) -> tuple:
    """The ambient Z4[x] quotient k with k*(g1+2a1) = ((x^theta-1)/r)*g2.

    The quotient is exact precisely when the compatibility condition between
    the Z4 chain and g2 holds; otherwise a ConditionError carries the
    remainder.
    """
    _require_unit_leading(g)
    r_cofactor, rem = poly_divmod(xn_minus_1(g.split.theta, 8), list(g.r), 8)
    if rem:
        raise ConditionError(f"r does not divide x^theta - 1: remainder {poly_str(rem)}")
    rho4 = [c % 4 for c in r_cofactor]
    quot, rem = poly_divmod(poly_mul(rho4, list(g.g2), 4), list(g.g1_plus_2a1), 4)
    if rem:
        raise ConditionError(
            f"g1 + 2a1 does not divide ((x^theta - 1)/r)*g2: remainder {poly_str(rem)}"
        )
    return tuple(quot)


@dataclass(frozen=True)
class DerivedCofactors:
    """Exact quotients tying the generators to x^n - 1; their degrees fix
    the size of the code."""

    f_cofactor: tuple    # (x^alpha - 1) / f over Z2
    g1_cofactor: tuple   # (x^beta - 1) / g1 over Z4
    g1_over_a1: tuple    # g1 / a1 over Z4
    p_cofactor: tuple    # (x^theta - 1) / p over Z8
    q_cofactor: tuple    # (x^theta - 1) / q over Z8
    p_over_q: tuple      # p / q over Z8
    q_over_r: tuple      # q / r over Z8
    k: tuple             # ambient Z4 quotient from compute_k


def derive_cofactors(g: CyclicGenerators) -> DerivedCofactors:
    """Compute all quotients, replaying each defining identity afterwards."""
    _require_unit_leading(g)
    alpha, beta, theta = g.split

    def exact(num, den, modulus, what):
        quot, rem = poly_divmod(num, den, modulus)
        if rem:
            raise ConditionError(f"{what} is not exact: remainder {poly_str(rem)}")
        return quot

    f_co = exact(xn_minus_1(alpha, 2), list(g.f), 2, "(x^alpha - 1)/f")
    g1_co = exact(xn_minus_1(beta, 4), list(g.g1), 4, "(x^beta - 1)/g1")
    b = exact(list(g.g1), list(g.a1), 4, "g1/a1")
    p_co = exact(xn_minus_1(theta, 8), list(g.p), 8, "(x^theta - 1)/p")
    q_co = exact(xn_minus_1(theta, 8), list(g.q), 8, "(x^theta - 1)/q")
    p_over_q = exact(list(g.p), list(g.q), 8, "p/q")
    q_over_r = exact(list(g.q), list(g.r), 8, "q/r")
    k = compute_k(g)

    replays = (
        (poly_mul(list(g.f), f_co, 2), xn_minus_1(alpha, 2), 2, "f * cofactor"),
        (poly_mul(list(g.g1), g1_co, 4), xn_minus_1(beta, 4), 4, "g1 * cofactor"),
        (poly_mul(list(g.a1), b, 4), list(g.g1), 4, "a1 * (g1/a1)"),
        (poly_mul(list(g.p), p_co, 8), xn_minus_1(theta, 8), 8, "p * cofactor"),
        (poly_mul(list(g.q), q_co, 8), xn_minus_1(theta, 8), 8, "q * cofactor"),
        (poly_mul(list(g.q), p_over_q, 8), list(g.p), 8, "q * (p/q)"),
        (poly_mul(list(g.r), q_over_r, 8), list(g.q), 8, "r * (q/r)"),
    )
    for got, want, modulus, what in replays:
        if poly_sub(got, want, modulus):
            raise RuntimeError(f"cofactor identity replay failed for {what}")

    return DerivedCofactors(
        tuple(f_co), tuple(g1_co), tuple(b),
        tuple(p_co), tuple(q_co), tuple(p_over_q), tuple(q_over_r),
        tuple(k),
    )


def _require_valid(g: CyclicGenerators) -> None:
    report = validate_generators(g)
    if not report.ok:
        first = report.failures[0]
        raise ConditionError(f"invalid generators: {first}")


def normalize_generators(g: CyclicGenerators) -> CyclicGenerators:
    """Reduce the offset polynomials without changing the generated code.

    g2 is reduced mod g1 + 2a1 (subtracting a multiple of the second
    generator triple, which also shifts l2 by the matching multiple of l1);
    l1 and l2 are then reduced mod f (subtracting multiples of the first).
    """
    if not poly_trim(list(g.f)) or not poly_trim(list(g.g1)):
        raise ValueError("normalization needs nonzero f and g1")
    mix = list(g.g1_plus_2a1)
    t, g2 = poly_divmod(list(g.g2), mix, 4)
    l2 = poly_sub(list(g.l2), poly_mul([c % 2 for c in t], list(g.l1), 2), 2)
    _, l1 = poly_divmod(list(g.l1), list(g.f), 2)
    _, l2 = poly_divmod(l2, list(g.f), 2)
    return CyclicGenerators(
        g.split, f=g.f, l1=l1, l2=l2, g1=g.g1, a1=g.a1, g2=g2, p=g.p, q=g.q, r=g.r,
    )


@dataclass(frozen=True)
class SpanningSet:
    """Six shift-families of codewords forming a minimal generating set."""

    groups: tuple  # ((name, (PolyTriple, ...)), ...) in output row order
    matrix: MixedMatrix

    @property
    def group_sizes(self) -> dict:
        return {name: len(rows) for name, rows in self.groups}


def spanning_set(g: CyclicGenerators) -> SpanningSet:
    """Expand valid generators into an explicit generator matrix.

    Row groups, in output order:
      S1: x^i * (f, 0, 0)                  for i < deg((x^alpha-1)/f)
      S2: x^i * (l1, g1+2a1, 0)            for i < deg((x^beta-1)/g1)
      S3: x^i * (l2, g2, p+2q+4r)          for i < deg((x^theta-1)/p)
      S6: x^i * g1cofactor * second gen    for i < deg(g1/a1)
      S4: x^i * pcofactor * third gen      for i < deg(p/q)
      S5: x^i * qcofactor * third gen      for i < deg(q/r)
    The row count's weighted sum gives cyclic_size.
    """
    _require_valid(g)
    co = derive_cofactors(g)
    gen1, gen2, gen3 = g.triples()

    def shifts(mult, gen, count):
        rows = []
        current = star_mul(mult, gen)
        for _ in range(max(count, 0)):
            rows.append(current)
            current = star_mul([0, 1], current)
        return tuple(rows)

    groups = (
        ("S1", shifts([1], gen1, poly_deg(list(co.f_cofactor)))),
        ("S2", shifts([1], gen2, poly_deg(list(co.g1_cofactor)))),
        ("S3", shifts([1], gen3, poly_deg(list(co.p_cofactor)))),
        ("S6", shifts(list(co.g1_cofactor), gen2, poly_deg(list(co.g1_over_a1)))),
        ("S4", shifts(list(co.p_cofactor), gen3, poly_deg(list(co.p_over_q)))),
        ("S5", shifts(list(co.q_cofactor), gen3, poly_deg(list(co.q_over_r)))),
    )
    rows = [to_vector(t) for _, group in groups for t in group]
    return SpanningSet(groups, MixedMatrix(g.split, rows))


def cyclic_size(g: CyclicGenerators) -> int:
    """Code size, in closed form from the cofactor degrees when it holds.

    The formula assumes the generators are in canonical form: beyond the six
    validated conditions, every spanning row must have the additive order the
    construction assigns it, which pins down to the requirement that
    x^beta - 1 divides q_cofactor * g2 mod 2. Generators violating that
    (possible while still passing validation) span a strictly larger code
    than the formula counts, so for them the size is read from the type of
    the standard form of the spanning rows instead.
    """
    _require_valid(g)
    co = derive_cofactors(g)
    if not ResiduePoly.from_coeffs(poly_mul(list(co.q_cofactor), list(g.g2), 2), 1, g.split.beta).is_zero():
        return cardinality(standard_form(spanning_set(g).matrix)[0].code_type)
    exponent = (
        poly_deg(list(co.f_cofactor))
        + 2 * poly_deg(list(co.g1_cofactor))
        + 3 * poly_deg(list(co.p_cofactor))
        + 2 * poly_deg(list(co.p_over_q))
        + poly_deg(list(co.q_over_r))
        + poly_deg(list(co.g1_over_a1))
    )
    return 1 << exponent


def cyclic_closure_witness(M: MixedMatrix):
    """Index of the first row whose shift leaves the generated code, or None.

    Shift-closure of the generators is enough: the shift is additive and
    commutes with the scalar action, so shift-stable generators span a
    shift-stable code.
    """
    if not len(M):
        return None
    blocks, perm = standard_form(M)
    residuals = reduce_rows(shift_rows(M.split, M.array)[:, perm.source_index()], blocks)
    outside = np.flatnonzero(residuals.any(axis=1))
    return int(outside[0]) if outside.size else None


def check_cyclic_closure(M: MixedMatrix) -> bool:
    return cyclic_closure_witness(M) is None


# ---------------------------------------------------------------------------
# generator file format

def parse_generators(text: str) -> CyclicGenerators:
    """Parse the `alpha=.. beta=.. theta=..` header plus `key = c0 c1 ...`
    lines (ascending coefficients); omitted keys default to zero."""
    split = None
    polys = {}
    mods = {"f": 2, "l1": 2, "l2": 2, "g1": 4, "a1": 4, "g2": 4, "p": 8, "q": 8, "r": 8}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if split is None:
            fields = {}
            for token in line.split():
                if "=" not in token:
                    raise ParseError(f"header token {token!r} is not name=value", lineno)
                name, _, value = token.partition("=")
                try:
                    fields[name] = int(value)
                except ValueError:
                    raise ParseError(f"header value {value!r} is not an integer", lineno) from None
            missing = {"alpha", "beta", "theta"} - set(fields)
            if missing:
                raise ParseError(f"header missing {', '.join(sorted(missing))}", lineno)
            extra = set(fields) - {"alpha", "beta", "theta"}
            if extra:
                raise ParseError(f"unknown header field {sorted(extra)[0]!r}", lineno)
            try:
                split = AlphabetSplit(fields["alpha"], fields["beta"], fields["theta"])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        if "=" not in line:
            raise ParseError("expected `key = coefficients`", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in mods:
            raise ParseError(f"unknown polynomial {key!r} (expected one of {', '.join(GENERATOR_KEYS)})", lineno)
        if key in polys:
            raise ParseError(f"duplicate polynomial {key!r}", lineno)
        coeffs = []
        for tok in value.split():
            try:
                c = int(tok)
            except ValueError:
                raise ParseError(f"coefficient {tok!r} is not an integer", lineno) from None
            if not 0 <= c < mods[key]:
                raise ParseError(f"coefficient {c} out of range [0, {mods[key]}) for {key}", lineno)
            coeffs.append(c)
        polys[key] = coeffs
    if split is None:
        raise ParseError("empty generator file: missing `alpha= beta= theta=` header")
    try:
        return CyclicGenerators(split, **polys)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_generators(g: CyclicGenerators) -> str:
    a, b, t = g.split
    lines = [f"alpha={a} beta={b} theta={t}"]
    for key in GENERATOR_KEYS:
        coeffs = getattr(g, key)
        if coeffs:
            lines.append(f"{key} = " + " ".join(str(c) for c in coeffs))
    return "\n".join(lines) + "\n"


def load_generators(path) -> CyclicGenerators:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generators(fh.read())
