"""Exhaustive codeword generation and brute-force oracles.

Everything here is the slow, obviously-correct route: mixed-radix sweeps,
ambient kernel searches, and set-closure checks used to validate the
closed-form constructions. Codeword sets are stored as canonical (unique,
lexicographically sorted) uint8 row matrices so set equality is array
equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mixedcode.core import (
    PHI1,
    PHI2,
    AlphabetSplit,
    BudgetError,
    MixedVector,
    SplitMismatchError,
    format_rows,
    moduli_row,
)
from mixedcode.matrices import MixedMatrix, StandardFormBlocks, cardinality

DEFAULT_MAX_CODEWORDS = 1 << 24
DEFAULT_MAX_AMBIENT = 1 << 20
_PAIR_LIMIT = 1 << 26  # word pairs a CodewordSet distance may scan

_PHI1_ARR = np.array(PHI1, dtype=np.uint8)
_PHI2_ARR = np.array(PHI2, dtype=np.uint8)
_LEE4 = np.array([0, 1, 2, 1], dtype=np.uint8)
_LEE8 = np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=np.uint8)
_WEIGHT_CHUNK = 1 << 20  # rows per slice of the minimum-weight pass


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for the exhaustive routes."""

    max_codewords: int = DEFAULT_MAX_CODEWORDS
    max_ambient: int = DEFAULT_MAX_AMBIENT

    def __post_init__(self):
        if self.max_codewords < 1 or self.max_ambient < 1:
            raise ValueError("budgets must be positive")


def _row_entries(x: MixedVector) -> np.ndarray:
    return np.array(x.entries(), dtype=np.uint8)


def _keys(split: AlphabetSplit, arr: np.ndarray) -> np.ndarray:
    """One key per row: a uint64 packing 1/2/3 bits per Z2/Z4/Z8 coordinate
    with the first coordinate most significant when the row fits in 64 bits,
    else the row's bytes viewed as one np.void.

    Invariant: key order = lexicographic row order = canonical order, so
    sorting keys sorts rows the way CodewordSet stores them. Void keys
    compare bytewise, and every entry is below 8, so they order the same way.
    """
    if split.ambient_exponent <= 64:
        widths = np.array([1] * split.alpha + [2] * split.beta + [3] * split.theta, dtype=np.uint64)
        shifts = np.cumsum(widths[::-1])[::-1] - widths
        # Column by column, so no (m, width) uint64 copy of arr is made.
        keys = np.zeros(arr.shape[0], dtype=np.uint64)
        for column, shift in zip(arr.T, shifts):
            keys += column.astype(np.uint64) << shift
        return keys
    rows = np.ascontiguousarray(arr, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _unique_rows(split: AlphabetSplit, arr: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order, deduplicated on their keys."""
    if arr.shape[0] <= 1:
        return arr.copy()
    _, first = np.unique(_keys(split, arr), return_index=True)
    return arr[first]


class CodewordSet:
    """A set of mixed words over one split, canonically stored: distinct
    rows of a uint8 array in lexicographic order, which is also the order of
    their packed keys (see `_keys`), so the keys of `array` are sorted and
    membership is a binary search."""

    __slots__ = ("split", "array", "_keys")

    def __init__(self, split: AlphabetSplit, array: np.ndarray):
        array = np.asarray(array, dtype=np.uint8).reshape(-1, split.alpha + split.beta + split.theta)
        if np.any(array >= moduli_row(split)):
            # Packed keys give each entry only the bits of its modulus.
            raise ValueError(f"entries out of range for split {split}")
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "array", _unique_rows(split, array))
        object.__setattr__(self, "_keys", None)

    def __setattr__(self, name, value):
        raise AttributeError("CodewordSet is immutable")

    @classmethod
    def from_vectors(cls, split: AlphabetSplit, vectors) -> "CodewordSet":
        rows = [_row_entries(v) for v in vectors]
        arr = np.array(rows, dtype=np.uint8) if rows else np.empty((0, split.alpha + split.beta + split.theta), dtype=np.uint8)
        return cls(split, arr)

    def __len__(self):
        return self.array.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, CodewordSet)
            and self.split == other.split
            and self.array.shape == other.array.shape
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.split, self.array.tobytes()))

    def _contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of an (m, width) uint8 array, entries in
        range for the split, are in the set."""
        if self._keys is None:
            object.__setattr__(self, "_keys", _keys(self.split, self.array))
        probe = _keys(self.split, rows)
        if not self._keys.size:
            return np.zeros(probe.shape[0], dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, probe), self._keys.size - 1)
        return self._keys[pos] == probe

    def __contains__(self, x: MixedVector) -> bool:
        if x.split != self.split:
            return False
        return bool(self._contains_rows(_row_entries(x).reshape(1, -1))[0])

    def __iter__(self):
        a, b, _ = self.split
        for row in self.array:
            yield MixedVector(
                self.split,
                tuple(int(e) for e in row[:a]),
                tuple(int(e) for e in row[a:a + b]),
                tuple(int(e) for e in row[a + b:]),
            )


def enumerate_codewords(B: StandardFormBlocks, budget: EnumerationBudget | None = None) -> CodewordSet:
    """Materialize the full code of a template matrix.

    A mixed-radix sweep over the row classes with coefficient ranges
    2, 4, 2, 8, 4, 2; the template's independent pivots make every
    combination distinct, so the result has exactly cardinality(type) words.
    """
    budget = budget or EnumerationBudget()
    t = B.code_type
    size = cardinality(t)
    if size > budget.max_codewords:
        raise BudgetError("code too large to enumerate", size)
    split = B.split
    width = split.alpha + split.beta + split.theta
    mods = moduli_row(split)
    rows = np.hstack([B.U, B.V, B.W]).astype(np.int64)
    orders = [o for o, count in zip((2, 4, 2, 8, 4, 2), t.k) for _ in range(count)]
    words = np.zeros((1, width), dtype=np.uint8)
    for row, order in zip(rows, orders):
        mults = np.array([(c * row) % mods for c in range(order)], dtype=np.uint8)
        # entries stay below 8, so uint8 sums cannot wrap
        words = (words[:, None, :] + mults[None, :, :]) % mods
        words = words.reshape(-1, width)
    return CodewordSet(split, words)


def closure_from_rows(M: MixedMatrix, budget: EnumerationBudget | None = None) -> CodewordSet:
    """Span of arbitrary rows by iterated sum-and-dedupe.

    Independent of the template reduction; used as a cross-check oracle.
    """
    budget = budget or EnumerationBudget()
    split = M.split
    width = split.alpha + split.beta + split.theta
    mods = moduli_row(split)
    words = np.zeros((1, width), dtype=np.uint8)
    for row in M.array.astype(np.int64):
        # The additive order of a word: the largest order among its entries.
        order = int(np.max(mods // np.gcd(mods, row)))
        if order == 1:
            continue
        mults = np.array([(c * row) % mods for c in range(order)], dtype=np.uint8)
        # Expand in bounded slices so an over-budget span raises instead of
        # exhausting memory on a single giant candidate array.
        step = max(1, (1 << 21) // order)
        acc = None
        for start in range(0, words.shape[0], step):
            block = words[start:start + step]
            cand = ((block[:, None, :] + mults[None, :, :]) % mods).reshape(-1, width)
            acc = cand if acc is None else np.concatenate([acc, cand])
            acc = _unique_rows(split, acc)
            if acc.shape[0] > budget.max_codewords:
                raise BudgetError("span exceeds the codeword budget", acc.shape[0])
        words = acc
    return CodewordSet(split, words)


def check_subgroup(S: CodewordSet, budget: EnumerationBudget | None = None) -> bool:
    """True iff S contains 0 and is closed under addition and the scalar
    action."""
    return subgroup_witness(S, budget) is None


def subgroup_witness(S: CodewordSet, budget: EnumerationBudget | None = None):
    """None if S is a subgroup, else a message naming the first violation
    in scan order: missing zero word, scalar multiple d * x for d = 2..7 and
    x in order, or pairwise sum x + y with x, then y, in order."""
    budget = budget or EnumerationBudget()
    n = len(S)
    if n > budget.max_codewords:
        raise BudgetError("set too large for the subgroup check", n)
    split = S.split
    if n == 0:
        return "empty set: the zero word is missing"
    arr = S.array
    if np.any(arr[0]):  # canonical order puts the zero word first if present
        return "the zero word is missing"
    # Every modulus is a power of two; entries stay below 8, so uint8
    # products and sums cannot wrap before the mask reduces them.
    masks = moduli_row(split) - 1

    def show(row) -> str:
        return format_rows(split, row.reshape(1, -1))[0]

    for d in range(2, 8):
        missing = np.flatnonzero(~S._contains_rows((d * arr) & masks))
        if missing.size:
            return f"{d} * ({show(arr[missing[0]])}) is not in the set"
    # Addition commutes, so the first failing pair (x_i, x_j) in row-major
    # order has j >= i: a failure at j < i is the pair (x_j, x_i), met
    # earlier. Pairing each chunk of rows with the words from its own start
    # on therefore finds the same first pair with about half the sums.
    chunk = max(1, (1 << 22) // n)
    for start in range(0, n, chunk):
        sums = (arr[start:start + chunk, None, :] + arr[None, start:, :]) & masks
        missing = np.flatnonzero(~S._contains_rows(sums.reshape(-1, arr.shape[1])))
        if missing.size:
            i, j = divmod(int(missing[0]), n - start)
            return f"({show(arr[start + i])}) + ({show(arr[start + j])}) is not in the set"
    return None


def _ambient_array(split: AlphabetSplit) -> np.ndarray:
    """All ambient words, one per row, in lexicographic order."""
    mods = moduli_row(split).astype(np.int64)
    total = 1
    strides = np.zeros(len(mods), dtype=np.int64)
    for i in range(len(mods) - 1, -1, -1):
        strides[i] = total
        total *= int(mods[i])
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // strides[i]) % mods[i] for i in range(len(mods))]
    return np.stack(cols, axis=1).astype(np.uint8)


def brute_force_dual(C: CodewordSet, budget: EnumerationBudget | None = None) -> CodewordSet:
    """Annihilator {v in ambient : <v, c> = 0 for every c in C}.

    The pairing is evaluated against the elements of C, not a generating
    subset; this is the independent route used to validate the closed-form
    parity-check construction. A candidate is dropped at its first violated
    pairing, and the survivors are paired against every element.
    """
    budget = budget or EnumerationBudget()
    split = C.split
    ambient_size = 1 << split.ambient_exponent
    if ambient_size > budget.max_ambient:
        raise BudgetError("ambient too large for the kernel search", ambient_size)
    amb = _ambient_array(split)
    if len(C) == 0:
        return CodewordSet(split, amb)
    a, b, _ = split
    weights = np.array([4] * a + [2] * b + [1] * split.theta, dtype=np.int64)
    amb_w = amb.astype(np.int64) * weights
    cw = C.array.astype(np.int64)
    alive = np.arange(amb.shape[0])
    pos = 0
    while pos < cw.shape[0] and alive.size:
        chunk = max(1, (1 << 24) // int(alive.size))
        gram = (amb_w[alive] @ cw[pos:pos + chunk].T) % 8
        alive = alive[~np.any(gram, axis=1)]
        pos += chunk
    mask = np.zeros(amb.shape[0], dtype=bool)
    mask[alive] = True
    return CodewordSet(split, amb[mask])


def gray_rows(split: AlphabetSplit, arr: np.ndarray) -> np.ndarray:
    """Vectorized Gray map: uint8 word rows to uint8 bit rows."""
    a, b, _ = split
    n = arr.shape[0]
    parts = [arr[:, :a]]
    if b:
        parts.append(_PHI1_ARR[arr[:, a:a + b]].reshape(n, 2 * b))
    if split.theta:
        parts.append(_PHI2_ARR[arr[:, a + b:]].reshape(n, 4 * split.theta))
    return np.hstack(parts) if parts else np.empty((n, 0), dtype=np.uint8)


def gray_image(C: CodewordSet) -> frozenset:
    """The set of Gray images; same size as C since the map is injective."""
    bits = gray_rows(C.split, C.array)
    return frozenset(tuple(int(x) for x in row) for row in bits)


@dataclass(frozen=True)
class DistanceResult:
    """Minimum Gray distance, or a best-found upper bound when exact=False."""

    value: int | None
    exact: bool
    candidates: int

    def __str__(self):
        if self.value is None:
            return "undefined (no nonzero codewords)"
        kind = "exact" if self.exact else "upper bound"
        return f"{self.value} ({kind}, {self.candidates} candidates)"


def _lee_weights(arr_v: np.ndarray, arr_w: np.ndarray) -> np.ndarray:
    total = np.zeros(arr_v.shape[0], dtype=np.int64)
    if arr_v.shape[1]:
        total += _LEE4[arr_v].sum(axis=1, dtype=np.int64)
    if arr_w.shape[1]:
        total += _LEE8[arr_w].sum(axis=1, dtype=np.int64)
    return total


def _min_weight(C: CodewordSet) -> DistanceResult:
    """Minimum nonzero Gray weight of C: Hamming weight of the Z2 block plus
    Lee weight of the Z4 and Z8 blocks. Taken over slices of rows, so the
    pass adds memory for one slice, not for all of C."""
    a, b, _ = C.split
    best = None
    for start in range(0, len(C), _WEIGHT_CHUNK):
        part = C.array[start:start + _WEIGHT_CHUNK]
        weights = part[:, :a].sum(axis=1, dtype=np.int64) + _lee_weights(part[:, a:a + b], part[:, a + b:])
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = int(nonzero.min()) if best is None else min(best, int(nonzero.min()))
    return DistanceResult(best, True, len(C))


def _pairwise_distance(C: CodewordSet) -> DistanceResult:
    n = len(C)
    bits = gray_rows(C.split, C.array)
    best = None
    for i in range(n - 1):
        m = int((bits[i + 1:] != bits[i]).sum(axis=1).min())
        best = m if best is None else min(best, m)
    return DistanceResult(best, True, n * (n - 1) // 2)


def _binary_only_span(M: MixedMatrix, cap: int = 1 << 16) -> np.ndarray:
    """GF(2) span of the rows whose Z4 and Z8 blocks vanish (their only
    effect on a Gray image is XOR on the binary block)."""
    alpha = M.split.alpha
    U, rest = M.array[:, :alpha], M.array[:, alpha:]
    pure = np.flatnonzero(U.any(axis=1) & ~rest.any(axis=1)).tolist()
    span = np.zeros((1, alpha), dtype=np.uint8)
    for i in pure:
        row = U[i]
        span = _unique_rows(AlphabetSplit(alpha, 0, 0), np.vstack([span, (span + row) % 2]).astype(np.uint8))
        if span.shape[0] > cap:
            # Too many completions to minimize over; let the random sweep
            # handle these rows instead.
            return np.zeros((1, alpha), dtype=np.uint8), []
    return span, pure


def _search_distance(M: MixedMatrix, seed: int = 0, rounds: int = 4000) -> DistanceResult:
    """Best-found upper bound on the Gray distance of the span of M.

    Sweeps scalar multiples of single rows and of row pairs, plus seeded
    random sparse combinations; every candidate's binary block is minimized
    exactly over the span of the binary-only rows.
    """
    split = M.split
    rng = np.random.default_rng(seed)
    mods = moduli_row(split).astype(np.int64)
    rows = M.array.astype(np.int64)
    span, pure = _binary_only_span(M)
    mixed_idx = [i for i in range(rows.shape[0]) if i not in pure]

    candidates = [np.zeros((0, rows.shape[1]), dtype=np.int64)]
    for i in mixed_idx:
        for d in range(1, 8):
            candidates.append(((d * rows[i]) % mods).reshape(1, -1))
    for ai in range(len(mixed_idx)):
        for bi in range(ai + 1, len(mixed_idx)):
            i, j = mixed_idx[ai], mixed_idx[bi]
            combos = []
            for d1 in range(1, 8):
                for d2 in range(1, 8):
                    combos.append((d1 * rows[i] + d2 * rows[j]) % mods)
            candidates.append(np.array(combos, dtype=np.int64))
    if mixed_idx and rounds:
        size = min(4, len(mixed_idx))
        picks = np.array([rng.choice(len(mixed_idx), size=size, replace=False) for _ in range(rounds)])
        coefs = rng.integers(1, 8, size=(rounds, size))
        sampled = np.zeros((rounds, rows.shape[1]), dtype=np.int64)
        for c in range(size):
            sampled += coefs[:, c:c + 1] * rows[np.array(mixed_idx)[picks[:, c]]]
        candidates.append(sampled % mods)
    cand = _unique_rows(split, np.vstack(candidates).astype(np.uint8)).astype(np.int64)
    nonzero = cand[np.any(cand, axis=1)]

    best = None
    count = 0
    # Pure-binary words: nonzero span elements are codewords themselves.
    if span.shape[0] > 1:
        w = span.sum(axis=1, dtype=np.int64)
        w = w[w > 0]
        if w.size:
            best = int(w.min())
        count += span.shape[0] - 1
    if nonzero.shape[0]:
        a, b, _ = split
        lee = _lee_weights(nonzero[:, a:a + b], nonzero[:, a + b:])
        ubits = nonzero[:, :a].astype(np.uint8)
        chunk = max(1, (1 << 22) // max(span.shape[0], 1))
        mins = np.empty(nonzero.shape[0], dtype=np.int64)
        for start in range(0, nonzero.shape[0], chunk):
            part = ubits[start:start + chunk]
            dists = (part[:, None, :] ^ span[None, :, :]).sum(axis=2, dtype=np.int64)
            mins[start:start + chunk] = dists.min(axis=1)
        total = lee + mins
        # A zero total would mean the candidate itself lies in the binary span
        # (the zero codeword in disguise); ignore those.
        total = total[total > 0]
        if total.size:
            m = int(total.min())
            best = m if best is None else min(best, m)
        count += nonzero.shape[0] * span.shape[0]
    return DistanceResult(best, False, count)


def min_gray_distance(obj, budget: EnumerationBudget | None = None, mode: str = "auto", seed: int = 0) -> DistanceResult:
    """Minimum Hamming distance of the Gray image.

    obj may be a CodewordSet, StandardFormBlocks, or MixedMatrix. Exact mode
    enumerates and computes the true distance; search mode reports an upper
    bound from a bounded sweep. mode="auto" tries exact within budget and
    falls back to search.

    For a matrix or blocks, whose span C is a subgroup, the exact distance
    is the minimum nonzero Gray weight, scanned once over C: C - C = C, and the Gray maps PHI1 and PHI2
    carry Lee distance on Z4 and Z8 to Hamming distance, so the Gray distance
    of x and y is the Gray weight of x - y. A CodewordSet, subgroup or not,
    is swept pair by pair; above _PAIR_LIMIT pairs it is refused before
    anything is built.
    """
    budget = budget or EnumerationBudget()
    if mode not in ("auto", "exact", "search"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(obj, CodewordSet):
        if mode == "search":
            raise ValueError("search mode needs generator rows, not a codeword set")
        n = len(obj)
        if n > budget.max_codewords:
            raise BudgetError("codeword set exceeds the exact-mode budget; use search mode on the matrix", n)
        # A refused set always has nonzero words (n > 1), so no answer of
        # "undefined" is lost.
        if n * n > _PAIR_LIMIT:
            raise BudgetError(
                "exact distance needs an all-pairs sweep this large; use search mode",
                n * n,
            )
        return _pairwise_distance(obj)
    if isinstance(obj, StandardFormBlocks):
        blocks, matrix = obj, obj.matrix()
    elif isinstance(obj, MixedMatrix):
        from mixedcode.matrices import standard_form
        blocks, _ = standard_form(obj)
        matrix = obj
    else:
        raise TypeError(f"cannot measure distance of {type(obj).__name__}")
    size = cardinality(blocks.code_type)
    if mode == "exact" or (mode == "auto" and size <= budget.max_codewords):
        if size > budget.max_codewords:
            raise BudgetError("code too large for exact mode; use search mode", size)
        return _min_weight(enumerate_codewords(blocks, budget))
    return _search_distance(matrix, seed=seed)
