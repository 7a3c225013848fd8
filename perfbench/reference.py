"""Reference computations that the benchmark checks the program's outputs against.

Nothing here imports mixedcode. Each answer is recomputed from the
definitions, with numpy or with the polynomial routines of tests/oracles.py,
so a fault in the program cannot agree with itself.

A word over the split (alpha, beta, theta) is a row of alpha Z2 entries, beta
Z4 entries and theta Z8 entries. Arrays of words have one word per row.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

# 2-adic valuation of a residue mod 8; 3 stands for zero.
_VALUATION = np.array([3, 0, 1, 0, 2, 0, 1, 0], dtype=np.int64)
_PHI1 = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
_PHI2 = np.array(
    [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1],
     [1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
    dtype=np.uint8,
)
_LEE4 = np.array([0, 1, 2, 1], dtype=np.int64)
_LEE8 = np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=np.int64)


def moduli(split) -> np.ndarray:
    a, b, c = split
    return np.array([2] * a + [4] * b + [8] * c, dtype=np.int64)


def ambient_exponent(split) -> int:
    a, b, c = split
    return a + 2 * b + 3 * c


def log_span(split, rows) -> int:
    """log2 of the size of the additive group that the rows generate.

    The rows embed in (Z8)^n (a Z2 entry x as 4x, a Z4 entry as 2x). The
    entry of least 2-adic valuation v splits off a cyclic factor of order
    2^(3 - v): every other row is cleared in its column, and the pivot row
    and column are dropped.
    """
    n = sum(split)
    A = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    A = A * (8 // moduli(split)) % 8
    total = 0
    while A.size:
        val = _VALUATION[A]
        r, c = np.unravel_index(np.argmin(val), val.shape)
        v = int(val[r, c])
        if v == 3:
            break
        pivot = A[r] * (int(A[r, c]) >> v) % 8  # odd units are self-inverse mod 8
        rest = np.delete(A, r, axis=0)
        rest = (rest - np.outer(rest[:, c] >> v, pivot)) % 8
        A = np.delete(rest, c, axis=1)
        total += 3 - v
    return total


def rank(split, rows) -> int:
    """log2(|C| / |2C|): the number of rows in a minimal generating set."""
    rows = np.asarray(rows, dtype=np.int64)
    return log_span(split, rows) - log_span(split, 2 * rows % moduli(split))


def keys(split, words) -> np.ndarray:
    """One uint64 per word, 1/2/3 bits per Z2/Z4/Z8 entry, first entry most
    significant, so numeric order is the lexicographic order of the words."""
    widths = np.array([1] * split[0] + [2] * split[1] + [3] * split[2], dtype=np.uint64)
    if int(widths.sum()) > 64:
        raise ValueError("words too wide to pack into 64 bits")
    shifts = np.concatenate([np.cumsum(widths[::-1])[::-1][1:], np.zeros(1, dtype=np.uint64)])
    return (np.asarray(words).astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def _order(split, row) -> int:
    mods = moduli(split)
    return max([1] + [int(m) // math.gcd(int(x), int(m)) for x, m in zip(row, mods)])


def span_words(split, rows) -> np.ndarray:
    """Every word of the span, sorted lexicographically (uint8 rows)."""
    mods = moduli(split)
    words = np.zeros((1, len(mods)), dtype=np.int64)
    for row in np.asarray(rows, dtype=np.int64):
        multiples = np.array([k * row % mods for k in range(_order(split, row))])
        words = ((words[:, None, :] + multiples[None, :, :]) % mods).reshape(-1, len(mods))
        _, first = np.unique(keys(split, words), return_index=True)
        words = words[first]
    return words.astype(np.uint8)


def is_subset(split, words, of) -> bool:
    """True when every word of `words` is among the sorted keys `of`."""
    k = keys(split, words)
    pos = np.minimum(np.searchsorted(of, k), len(of) - 1)
    return bool(np.all(of[pos] == k))


def pairing(split, X, Y) -> np.ndarray:
    """All products <x, y> = 4(Z2 dot) + 2(Z4 dot) + (Z8 dot) mod 8."""
    weights = 8 // moduli(split)
    X = np.asarray(X, dtype=np.int64).reshape(-1, sum(split))
    Y = np.asarray(Y, dtype=np.int64).reshape(-1, sum(split))
    return (X * weights) @ Y.T % 8


def kernel_size(split, rows) -> int:
    """Number of ambient words that pair to 0 with every row, by sweeping
    the whole ambient group one coordinate at a time: the products of all
    words are the sums of each coordinate's contributions."""
    weighted = np.asarray(rows, dtype=np.int64) * (8 // moduli(split))
    products = np.zeros((1, weighted.shape[0]), dtype=np.uint8)
    for column, m in zip(weighted.T, moduli(split)):
        contrib = (np.arange(m)[:, None] * column[None, :] % 8).astype(np.uint8)
        products = ((products[:, None, :] + contrib[None, :, :]) % 8).reshape(-1, weighted.shape[0])
    return int(np.count_nonzero(~np.any(products, axis=1)))


def shift(split, words) -> np.ndarray:
    """Rotate each block one place to the right."""
    a, b, _ = split
    words = np.asarray(words)
    blocks = (words[:, :a], words[:, a:a + b], words[:, a + b:])
    return np.concatenate([np.roll(x, 1, axis=1) for x in blocks], axis=1)


def gray(split, words) -> np.ndarray:
    """Binary images: Z2 entries as is, Z4 entries by phi1, Z8 by phi2."""
    a, b, _ = split
    words = np.asarray(words, dtype=np.int64)
    n = words.shape[0]
    return np.concatenate(
        [words[:, :a].astype(np.uint8),
         _PHI1[words[:, a:a + b]].reshape(n, -1),
         _PHI2[words[:, a + b:]].reshape(n, -1)],
        axis=1,
    )


def lee(split, words) -> np.ndarray:
    a, b, _ = split
    words = np.asarray(words, dtype=np.int64)
    return (words[:, :a].sum(axis=1) + _LEE4[words[:, a:a + b]].sum(axis=1)
            + _LEE8[words[:, a + b:]].sum(axis=1))


def gray_is_linear(split, words) -> bool:
    """True when the Gray image of the words is closed under XOR."""
    bits = gray(split, words)
    weights = np.uint64(1) << np.arange(bits.shape[1], dtype=np.uint64)
    image = np.sort((bits.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64))
    for x in image:
        probe = image ^ x
        pos = np.minimum(np.searchsorted(image, probe), len(image) - 1)
        if not np.all(image[pos] == probe):
            return False
    return True


# ---------------------------------------------------------------------------
# cyclic codes: polynomials are coefficient lists in ascending degree


def binary_factors(n: int) -> list:
    """Irreducible factors of x^n - 1 over GF(2), n odd, by trial division."""
    rest = oracles.xn1(n, 2)
    found = []
    degree = 1
    while oracles.pdeg(rest) > 0:
        if 2 * degree > oracles.pdeg(rest):
            found.append(rest)
            break
        for middle in range(1 << (degree - 1)):
            cand = [1] + [(middle >> i) & 1 for i in range(degree - 1)] + [1]
            while True:
                quot, rem = oracles.pdivmod(rest, cand, 2)
                if rem:
                    break
                found.append(cand)
                rest = quot
        degree += 1
    return found


def _fold(poly, n: int, m: int) -> list:
    out = [0] * n
    for i, c in enumerate(poly):
        out[i % n] = (out[i % n] + c) % m
    return out


def _quot(num, den, m):
    quot, rem = oracles.pdivmod(num, den, m)
    return quot if not rem else None


def _chain(g) -> dict:
    """The generator set with empty chain divisors read as x^n - 1."""
    a, b, c = g["split"]
    lengths = {"f": (a, 2), "g1": (b, 4), "a1": (b, 4), "p": (c, 8), "q": (c, 8), "r": (c, 8)}
    out = dict(g)
    for key, (n, m) in lengths.items():
        if not oracles.trim(g.get(key, [])):
            out[key] = oracles.xn1(n, m)
    for key in ("l1", "l2", "g2"):
        out[key] = oracles.trim(g.get(key, []))
    return out


def conditions(g) -> list:
    """The six divisor-chain and compatibility conditions, as booleans."""
    g = _chain(g)
    a, b, c = g["split"]
    ok1 = _quot(oracles.xn1(a, 2), g["f"], 2) is not None
    ok2 = (_quot(g["g1"], g["a1"], 4) is not None
           and _quot(oracles.xn1(b, 4), g["g1"], 4) is not None)
    ok3 = (_quot(g["q"], g["r"], 8) is not None
           and _quot(g["p"], g["q"], 8) is not None
           and _quot(oracles.xn1(c, 8), g["p"], 8) is not None)
    ok4 = ok5 = ok6 = False
    if ok2:
        a1_co = [x % 2 for x in oracles.pdivmod(oracles.xn1(b, 4), g["a1"], 4)[0]]
        ok4 = _quot(oracles.pmul(a1_co, g["l1"], 2), g["f"], 2) is not None
    if ok3:
        rho = oracles.pdivmod(oracles.xn1(c, 8), g["r"], 8)[0]
        mix = oracles.padd(g["g1"], [2 * x for x in g["a1"]], 4)
        k = _quot(oracles.pmul([x % 4 for x in rho], g["g2"], 4), mix, 4)
        ok5 = k is not None
        if ok5:
            lhs = oracles.padd(oracles.pmul([x % 2 for x in k], g["l1"], 2),
                               oracles.pmul([x % 2 for x in rho], g["l2"], 2), 2)
            ok6 = _quot(lhs, g["f"], 2) is not None
    return [ok1, ok2, ok3, ok4, ok5, ok6]


def _triples(g) -> list:
    g = _chain(g)
    mix = oracles.padd(g["g1"], [2 * x for x in g["a1"]], 4)
    top = oracles.padd(oracles.padd(g["p"], [2 * x for x in g["q"]], 8), [4 * x for x in g["r"]], 8)
    return [(g["f"], [], []), (g["l1"], mix, []), (g["l2"], g["g2"], top)]


def _row(split, triple, mult=(1,)) -> np.ndarray:
    """The word of mult * triple, each block reduced in its own ring."""
    parts = []
    for poly, n, m in zip(triple, split, (2, 4, 8)):
        parts.extend(_fold(oracles.pmul([x % m for x in mult], poly, m), n, m))
    return np.array(parts, dtype=np.int64)


def module_rows(g) -> np.ndarray:
    """Every cyclic shift of the three generator triples. Their additive span
    is the cyclic code, since the Z8[x] action is shifts and sums."""
    split = g["split"]
    period = math.lcm(*split)
    rows = [_row(split, t) for t in _triples(g)]
    out = []
    for row in rows:
        for _ in range(period):
            out.append(row)
            row = shift(split, row[None, :])[0]
    return np.array(out, dtype=np.int64)


def _cofactors(g) -> dict:
    g = _chain(g)
    a, b, c = g["split"]
    return {
        "f": oracles.pdivmod(oracles.xn1(a, 2), g["f"], 2)[0],
        "g1": oracles.pdivmod(oracles.xn1(b, 4), g["g1"], 4)[0],
        "p": oracles.pdivmod(oracles.xn1(c, 8), g["p"], 8)[0],
        "q": oracles.pdivmod(oracles.xn1(c, 8), g["q"], 8)[0],
        "g1/a1": oracles.pdivmod(g["g1"], g["a1"], 4)[0],
        "p/q": oracles.pdivmod(g["p"], g["q"], 8)[0],
        "q/r": oracles.pdivmod(g["q"], g["r"], 8)[0],
    }


def formula_exponent(g) -> int:
    """The closed-form exponent of the code size from the cofactor degrees."""
    co = _cofactors(g)
    d = {key: oracles.pdeg(poly) for key, poly in co.items()}
    return d["f"] + 2 * d["g1"] + 3 * d["p"] + 2 * d["p/q"] + d["q/r"] + d["g1/a1"]


def spanning_rows(g) -> np.ndarray:
    """The six shift families of the minimal spanning set, in the order
    S1, S2, S3, S6, S4, S5."""
    split = g["split"]
    co = _cofactors(g)
    gen1, gen2, gen3 = _triples(g)
    families = (
        ((1,), gen1, co["f"]), ((1,), gen2, co["g1"]), ((1,), gen3, co["p"]),
        (co["g1"], gen2, co["g1/a1"]), (co["p"], gen3, co["p/q"]), (co["q"], gen3, co["q/r"]),
    )
    out = []
    for mult, triple, count_poly in families:
        row = _row(split, triple, mult)
        for _ in range(max(oracles.pdeg(count_poly), 0)):
            out.append(row)
            row = shift(split, row[None, :])[0]
    return np.array(out, dtype=np.int64).reshape(-1, sum(split))
