"""Generator matrices over the mixed alphabet and their normal forms.

A generator matrix is reduced, by row operations and within-block column
permutations, to a block upper triangular template whose six row classes
carry leading blocks I, I, 2I, I, 2I, 4I. Row classes are named k0..k5 after
the counts they contribute to the code's type:

    k0: order-2 rows pivoting in the Z2 block
    k1: order-4 rows pivoting on Z4 units
    k2: order-2 rows pivoting on Z4 entries of 2-adic valuation 1
    k3: order-8 rows pivoting on Z8 units
    k4: order-4 rows pivoting on Z8 entries of valuation 1
    k5: order-2 rows pivoting on Z8 entries of valuation 2

Column sections, per alphabet block, after the permutation:

    Z2: z2_id (k0 pivot columns), z2_rest
    Z4: z4_id (k1), z4_two (k2), z4_rest
    Z8: z8_id (k3), z8_two (k4), z8_four (k5), z8_rest

The parity-check construction assembles, for each non-pivot column section
and for each of the scaled-identity sections, a row group that annihilates
every generator row under the weighted mod-8 pairing; the result is checked
against the generator matrix pair by pair and the construction fails loudly
if any product is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mixedcode.core import (
    AlphabetSplit,
    MixedVector,
    ParseError,
    SplitMismatchError,
    format_rows,
    moduli_row,
    parse_vector,
)

SECTIONS = (
    "z2_id", "z2_rest",
    "z4_id", "z4_two", "z4_rest",
    "z8_id", "z8_two", "z8_four", "z8_rest",
)

# Template cell constraints: "I" scaled identity, "0" zero, an integer s
# meaning every entry divisible by s, or "free".
_TEMPLATE = {
    0: {"z2_id": "I", "z2_rest": "free", "z4_id": "0", "z4_two": "0", "z4_rest": 2,
        "z8_id": "0", "z8_two": "0", "z8_four": "0", "z8_rest": 4},
    1: {"z2_id": "0", "z2_rest": "free", "z4_id": "I", "z4_two": "free", "z4_rest": "free",
        "z8_id": "0", "z8_two": "0", "z8_four": 2, "z8_rest": 2},
    2: {"z2_id": "0", "z2_rest": "0", "z4_id": "0", "z4_two": "I", "z4_rest": 2,
        "z8_id": "0", "z8_two": "0", "z8_four": "0", "z8_rest": 4},
    3: {"z2_id": "0", "z2_rest": "free", "z4_id": "0", "z4_two": "free", "z4_rest": "free",
        "z8_id": "I", "z8_two": "free", "z8_four": "free", "z8_rest": "free"},
    4: {"z2_id": "0", "z2_rest": "free", "z4_id": "0", "z4_two": "0", "z4_rest": 2,
        "z8_id": "0", "z8_two": "I", "z8_four": 2, "z8_rest": 2},
    5: {"z2_id": "0", "z2_rest": "0", "z4_id": "0", "z4_two": "0", "z4_rest": "0",
        "z8_id": "0", "z8_two": "0", "z8_four": "I", "z8_rest": 4},
}

# Scale of the leading identity per row class.
_CLASS_SCALE = (1, 1, 2, 1, 2, 4)

# Pivot phases in processing order: (row class, block index, 2-adic valuation).
# Descending row order first, leftmost block second; see the counterexample
# in the tests for why Z8-first classification is wrong.
_PHASES = (
    (3, 2, 0),
    (1, 1, 0),
    (4, 2, 1),
    (0, 0, 0),
    (2, 1, 1),
    (5, 2, 2),
)

# The section holding each row class's scaled identity.
_PIVOT_SECTION = tuple(next(s for s, rule in _TEMPLATE[c].items() if rule == "I") for c in range(6))

# Reduction order for membership tests: each class's rows are zero at the
# pivot columns of every class later in this order, so greedy coefficient
# extraction is exact.
_REDUCE_ORDER = (3, 1, 4, 0, 2, 5)


class DualConstructionError(RuntimeError):
    """The assembled parity-check matrix failed the orthogonality check."""

    def __init__(self, row_g: int, row_h: int, product: int):
        super().__init__(
            f"parity-check construction mismatch: generator row {row_g} and "
            f"check row {row_h} pair to {product} instead of 0"
        )
        self.row_g = row_g
        self.row_h = row_h
        self.product = product


@dataclass(frozen=True)
class CodeType:
    """The 9-tuple (alpha,beta,theta; k0; k1,k2; k3,k4,k5) of a code."""

    alpha: int
    beta: int
    theta: int
    k0: int
    k1: int
    k2: int
    k3: int
    k4: int
    k5: int

    def __post_init__(self):
        ks = (self.k0, self.k1, self.k2, self.k3, self.k4, self.k5)
        if any(k < 0 for k in ks):
            raise ValueError("type counts must be nonnegative")
        if self.k0 > self.alpha:
            raise ValueError("k0 exceeds alpha")
        if self.k1 + self.k2 > self.beta:
            raise ValueError("k1 + k2 exceeds beta")
        if self.k3 + self.k4 + self.k5 > self.theta:
            raise ValueError("k3 + k4 + k5 exceeds theta")

    @property
    def split(self) -> AlphabetSplit:
        return AlphabetSplit(self.alpha, self.beta, self.theta)

    @property
    def k(self) -> tuple:
        return (self.k0, self.k1, self.k2, self.k3, self.k4, self.k5)

    def __str__(self):
        return (
            f"({self.alpha},{self.beta},{self.theta}; {self.k0}; "
            f"{self.k1},{self.k2}; {self.k3},{self.k4},{self.k5})"
        )


def cardinality(t: CodeType) -> int:
    """Number of codewords: 2^(k0 + 2k1 + k2 + 3k3 + 2k4 + k5)."""
    return 1 << (t.k0 + 2 * t.k1 + t.k2 + 3 * t.k3 + 2 * t.k4 + t.k5)


def dual_type(t: CodeType) -> CodeType:
    """Type of the annihilator code; an involution."""
    return CodeType(
        t.alpha, t.beta, t.theta,
        t.alpha - t.k0,
        t.beta - t.k1 - t.k2, t.k2,
        t.theta - t.k3 - t.k4 - t.k5, t.k5, t.k4,
    )


@dataclass(frozen=True)
class ColumnPermutation:
    """Per-block column permutations; entry j holds the source column of
    position j in the permuted frame. Columns never cross blocks."""

    z2: tuple
    z4: tuple
    z8: tuple

    @classmethod
    def identity(cls, split: AlphabetSplit) -> "ColumnPermutation":
        return cls(tuple(range(split.alpha)), tuple(range(split.beta)), tuple(range(split.theta)))

    def is_identity(self) -> bool:
        return all(p == tuple(range(len(p))) for p in (self.z2, self.z4, self.z8))

    def inverse(self) -> "ColumnPermutation":
        def inv(p):
            out = [0] * len(p)
            for new, old in enumerate(p):
                out[old] = new
            return tuple(out)
        return ColumnPermutation(inv(self.z2), inv(self.z4), inv(self.z8))

    def source_index(self) -> np.ndarray:
        """Source column of each position across the concatenated
        Z2 | Z4 | Z8 columns: `rows[:, idx]` permutes word rows, and
        `out[:, idx] = rows` undoes the permutation."""
        a, b = len(self.z2), len(self.z4)
        return np.concatenate([
            np.array(self.z2, dtype=np.intp),
            a + np.array(self.z4, dtype=np.intp),
            a + b + np.array(self.z8, dtype=np.intp),
        ])

    def apply_to_vector(self, x: MixedVector) -> MixedVector:
        return MixedVector(
            x.split,
            tuple(x.u[i] for i in self.z2),
            tuple(x.v[i] for i in self.z4),
            tuple(x.w[i] for i in self.z8),
        )

    def apply(self, m: "MixedMatrix") -> "MixedMatrix":
        return MixedMatrix.from_array(m.split, m.array[:, self.source_index()])


class MixedMatrix:
    """An ordered list of mixed words sharing a split; its rows generate a
    code under the Z8 scalar action.

    The words are held as one read-only uint8 array of shape
    (m, alpha + beta + theta), Z2 block first. `rows` gives them as
    MixedVectors, built on first use for a matrix made from an array.
    """

    __slots__ = ("split", "array", "_rows")

    def __init__(self, split: AlphabetSplit, rows):
        rows = tuple(rows)
        for r in rows:
            if r.split != split:
                raise SplitMismatchError(f"row split {r.split} does not match matrix split {split}")
        # Entries are checked residues below 8, so each block packs as bytes.
        packed = b"".join([bytes(r.u) + bytes(r.v) + bytes(r.w) for r in rows])
        arr = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), split.alpha + split.beta + split.theta)
        self._set(split, arr, rows)

    @classmethod
    def from_array(cls, split: AlphabetSplit, arr) -> "MixedMatrix":
        """A matrix whose rows are the rows of an (m, alpha + beta + theta)
        integer array; entries out of range for the split are rejected."""
        arr = np.asarray(arr)
        width = split.alpha + split.beta + split.theta
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"expected an array of {width} columns for split {split}, got shape {arr.shape}")
        if np.any((arr < 0) | (arr >= moduli_row(split))):
            raise ValueError(f"entries out of range for split {split}")
        m = object.__new__(cls)
        m._set(split, arr.astype(np.uint8), None)
        return m

    def _set(self, split: AlphabetSplit, arr: np.ndarray, rows) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("MixedMatrix is immutable")

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            a, b, _ = self.split
            rows = tuple(MixedVector(self.split, r[:a], r[a:a + b], r[a + b:]) for r in self.array.tolist())
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def __len__(self):
        return self.array.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, MixedMatrix)
            and self.split == other.split
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.split, self.array.tobytes()))

    def __repr__(self):
        return f"MixedMatrix(split={self.split}, rows={len(self)})"


class StandardFormBlocks:
    """A generator matrix in template form, addressed by row class and
    column section.

    Rows are ordered k0..k5; columns sit in the permuted frame recorded by
    the ColumnPermutation that standard_form returns alongside.
    """

    __slots__ = ("split", "code_type", "U", "V", "W")

    def __init__(self, code_type: CodeType, U, V, W):
        U = np.asarray(U, dtype=np.int64)
        V = np.asarray(V, dtype=np.int64)
        W = np.asarray(W, dtype=np.int64)
        split = code_type.split
        m = sum(code_type.k)
        U = U.reshape(m, split.alpha)
        V = V.reshape(m, split.beta)
        W = W.reshape(m, split.theta)
        _check_template(code_type, U, V, W)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "code_type", code_type)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)

    def __setattr__(self, name, value):
        raise AttributeError("StandardFormBlocks is immutable")

    def matrix(self) -> MixedMatrix:
        return MixedMatrix.from_array(self.split, np.hstack([self.U, self.V, self.W]))

    def row_slice(self, row_class: int) -> slice:
        start = sum(self.code_type.k[:row_class])
        return slice(start, start + self.code_type.k[row_class])

    def col_slice(self, section: str):
        """(block array, column slice) for a named section."""
        b, cols = _sections(self.code_type)[section]
        return (self.U, self.V, self.W)[b], cols

    def cell(self, row_class: int, section: str):
        """The stored submatrix for one template cell (scale included)."""
        arr, cols = self.col_slice(section)
        return arr[self.row_slice(row_class), cols]


@lru_cache(maxsize=64)
def _sections(t: CodeType) -> dict:
    """Section name -> (block index 0/1/2 for Z2/Z4/Z8, column slice) in
    the permuted frame of a type-t template. Cached per type, because
    `reduce_rows` reads it on every membership test; callers must not
    mutate it."""
    z4 = (0, t.k1, t.k1 + t.k2, t.beta)
    z8 = (0, t.k3, t.k3 + t.k4, t.k3 + t.k4 + t.k5, t.theta)
    return {
        "z2_id": (0, slice(0, t.k0)),
        "z2_rest": (0, slice(t.k0, t.alpha)),
        "z4_id": (1, slice(z4[0], z4[1])),
        "z4_two": (1, slice(z4[1], z4[2])),
        "z4_rest": (1, slice(z4[2], z4[3])),
        "z8_id": (2, slice(z8[0], z8[1])),
        "z8_two": (2, slice(z8[1], z8[2])),
        "z8_four": (2, slice(z8[2], z8[3])),
        "z8_rest": (2, slice(z8[3], z8[4])),
    }


def _check_template(t: CodeType, U, V, W) -> None:
    """Raise if (U, V, W) does not fit the block template for type t."""
    blocks = (U, V, W)
    sections = _sections(t)
    row_start = 0
    for cls in range(6):
        rows = slice(row_start, row_start + t.k[cls])
        row_start += t.k[cls]
        for section, rule in _TEMPLATE[cls].items():
            b, cols = sections[section]
            cell = blocks[b][rows, cols]
            if rule == "free" or cell.size == 0:
                continue
            if rule == "I":
                expect = _CLASS_SCALE[cls] * np.eye(t.k[cls], dtype=np.int64)
                if cell.shape != expect.shape or not np.array_equal(cell, expect):
                    raise ValueError(
                        f"template violation: row class k{cls} section {section} "
                        f"is not {_CLASS_SCALE[cls]}*I"
                    )
            elif rule == "0":
                if np.any(cell):
                    raise ValueError(
                        f"template violation: row class k{cls} section {section} is not zero"
                    )
            else:
                if np.any(cell % rule):
                    raise ValueError(
                        f"template violation: row class k{cls} section {section} "
                        f"has entries not divisible by {rule}"
                    )


def standard_form(G: MixedMatrix) -> tuple:
    """Reduce G to template form.

    Returns (StandardFormBlocks, ColumnPermutation). The blocks generate the
    same code as G after pushing G's columns through the permutation; rows
    that reduce to zero are dropped. Pivoting runs over the six classes in
    descending row order (8, 4, 4, 2, 2, 2) with the leftmost block winning
    ties, lowest column then lowest row inside a class; each pivot is scaled
    to 2^v by an odd unit and cleared from every other row, which also leaves
    canonical residues above earlier pivots.
    """
    split = G.split
    # uint8 arithmetic wraps mod 256, which every modulus divides, so masking
    # with modulus - 1 after each step gives the canonical residue.
    masks = moduli_row(split) - 1
    A = np.array(G.array)
    edges = np.cumsum((0,) + tuple(split)).tolist()
    free = np.ones(A.shape[0], dtype=bool)
    unpivoted = np.ones(A.shape[1], dtype=bool)
    pivots_by_class = [[] for _ in range(6)]

    for cls, b, val in _PHASES:
        lo, hi = edges[b], edges[b + 1]
        scale = 1 << val
        while True:
            # Entries 2^val times a unit, in free rows and unpivoted columns.
            mask = ((A[:, lo:hi] & (2 * scale - 1)) == scale) & free[:, None] & unpivoted[None, lo:hi]
            hit = mask.any(axis=0)
            if not hit.any():
                break
            c = int(np.argmax(hit))
            row = int(np.argmax(mask[:, c]))
            col = lo + c
            A[row] = A[row] * pow(int(A[row, col]) // scale, -1, 8) & masks
            coef = A[:, col] // scale
            coef[row] = 0
            others = np.flatnonzero(coef)
            A[others] = (A[others] - np.outer(coef[others], A[row])) & masks
            free[row] = False
            unpivoted[col] = False
            pivots_by_class[cls].append((row, c))

    if np.any(A[free]):
        raise RuntimeError("reduction left a nonzero unclassified row; this is a bug")

    def block_perm(b: int, classes) -> tuple:
        lead = [col for cls in classes for _, col in pivots_by_class[cls]]
        rest = np.flatnonzero(unpivoted[edges[b]:edges[b + 1]]).tolist()
        return tuple(lead + rest)

    perm = ColumnPermutation(
        block_perm(0, (0,)),
        block_perm(1, (1, 2)),
        block_perm(2, (3, 4, 5)),
    )
    row_order = np.array([row for rows in pivots_by_class for row, _ in rows], dtype=np.intp)
    U, V, W = np.split(A[row_order][:, perm.source_index()], edges[1:3], axis=1)
    t = CodeType(split.alpha, split.beta, split.theta, *(len(rows) for rows in pivots_by_class))
    return StandardFormBlocks(t, U, V, W), perm


def reduce_rows(arr: np.ndarray, B: StandardFormBlocks) -> np.ndarray:
    """Residuals of the rows of an (m, alpha + beta + theta) array after
    greedy reduction against the template rows, as a uint8 array.

    The rows must already live in the blocks' (permuted) frame. A residual
    row is zero exactly when its row lies in the generated code, because
    within the reduction order each pivot column is touched by no later row.
    """
    t = B.code_type
    masks = moduli_row(B.split) - 1  # exact on wrapping uint8, as in standard_form
    R = np.array(arr, dtype=np.uint8)
    template = np.hstack([B.U, B.V, B.W]).astype(np.uint8)
    offsets = np.cumsum((0,) + tuple(B.split)).tolist()
    sections = _sections(t)
    for cls in _REDUCE_ORDER:
        first = B.row_slice(cls).start
        b, cols = sections[_PIVOT_SECTION[cls]]
        for i in range(t.k[cls]):
            coef = R[:, offsets[b] + cols.start + i] // _CLASS_SCALE[cls]
            hit = np.flatnonzero(coef)
            R[hit] = (R[hit] - np.outer(coef[hit], template[first + i])) & masks
    return R


def is_member(x: MixedVector, B: StandardFormBlocks, perm: ColumnPermutation | None = None) -> bool:
    """Exact membership of x in the code generated by the template rows.

    Pass the permutation returned by standard_form when x is expressed in
    the original column order.
    """
    if x.split != B.split:
        raise SplitMismatchError(f"vector split {x.split} does not match {B.split}")
    row = np.array([x.entries()], dtype=np.uint8)
    if perm is not None:
        row = row[:, perm.source_index()]
    return not reduce_rows(row, B).any()


def _gram(G: MixedMatrix, H: MixedMatrix):
    """All pairwise weighted products, reduced mod 8."""
    if G.split != H.split:
        raise SplitMismatchError(f"cannot pair matrices of splits {G.split} and {H.split}")
    weights = np.repeat(np.array((4, 2, 1), dtype=np.int64), tuple(G.split))
    return (G.array * weights) @ H.array.T.astype(np.int64) % 8


def verify_orthogonality(G: MixedMatrix, H: MixedMatrix) -> bool:
    """True iff every row of G pairs to 0 with every row of H."""
    if not len(G) or not len(H):
        return True
    return not np.any(_gram(G, H))


def first_violation(G: MixedMatrix, H: MixedMatrix):
    """(i, j, product) for the first non-orthogonal row pair, or None."""
    if not len(G) or not len(H):
        return None
    gram = _gram(G, H)
    hits = np.argwhere(gram)
    if hits.size == 0:
        return None
    i, j = (int(v) for v in hits[0])
    return i, j, int(gram[i, j])


def dual_matrix(B: StandardFormBlocks) -> MixedMatrix:
    """Generator matrix of the annihilator code, in the blocks' frame.

    One row group per non-pivot column section plus one per scaled-identity
    section; sizes are alpha-k0, beta-k1-k2, k2, theta-k3-k4-k5, k5, k4,
    which matches dual_type. Every assembled row is checked against every
    template row and a DualConstructionError carries the first failing pair.
    """
    t = B.code_type
    na = t.alpha - t.k0
    nb = t.beta - t.k1 - t.k2
    nc = t.theta - t.k3 - t.k4 - t.k5

    c = B.cell
    k0z2 = c(0, "z2_rest")
    k0z4 = c(0, "z4_rest") // 2
    k0z8 = c(0, "z8_rest") // 4
    k1z2 = c(1, "z2_rest")
    k1z4p = c(1, "z4_two")
    k1z4 = c(1, "z4_rest")
    k1z8p = c(1, "z8_four") // 2
    k1z8 = c(1, "z8_rest") // 2
    k2z4 = c(2, "z4_rest") // 2
    k2z8 = c(2, "z8_rest") // 4
    k3z2 = c(3, "z2_rest")
    k3z4p = c(3, "z4_two")
    k3z4 = c(3, "z4_rest")
    k3z8a = c(3, "z8_two")
    k3z8b = c(3, "z8_four")
    k3z8 = c(3, "z8_rest")
    k4z2 = c(4, "z2_rest")
    k4z4 = c(4, "z4_rest") // 2
    k4z8b = c(4, "z8_four") // 2
    k4z8 = c(4, "z8_rest") // 2
    k5z8 = c(5, "z8_rest") // 4

    def eye(n, scale=1):
        return scale * np.eye(n, dtype=np.int64)

    def zeros(r, c_):
        return np.zeros((r, c_), dtype=np.int64)

    # Row group 1: completes the Z2 tail columns.
    h1_z2 = [k0z2.T, eye(na)]
    h1_z4 = [-2 * k1z2.T, zeros(na, t.k2), zeros(na, nb)]
    h1_z8 = [4 * k3z2.T + 2 * (k4z2.T @ k3z8a.T), -2 * k4z2.T, zeros(na, t.k5), zeros(na, nc)]

    # Row group 2: completes the Z4 tail columns.
    h2_z2 = [-k0z4.T, zeros(nb, na)]
    h2_z4 = [-(k1z4.T + k2z4.T @ k1z4p.T), k2z4.T, eye(nb)]
    h2_z8 = [
        -2 * (k2z4.T @ k3z4p.T) - 2 * k3z4.T + 2 * (k4z4.T @ k3z8a.T),
        -2 * k4z4.T,
        zeros(nb, t.k5),
        zeros(nb, nc),
    ]

    # Row group 3: order-2 rows against the 2I section of the Z4 block.
    h3_z2 = [zeros(t.k2, t.k0), zeros(t.k2, na)]
    h3_z4 = [-2 * k1z4p.T, eye(t.k2, 2), zeros(t.k2, nb)]
    h3_z8 = [-4 * k3z4p.T, zeros(t.k2, t.k4), zeros(t.k2, t.k5), zeros(t.k2, nc)]

    # Row group 4: completes the Z8 tail columns.
    h4_z2 = [-k0z8.T, zeros(nc, na)]
    h4_z4 = [
        -k1z8.T + k5z8.T @ k1z8p.T + k2z8.T @ k1z4p.T,
        -k2z8.T,
        zeros(nc, nb),
    ]
    h4_z8 = [
        -k3z8.T + k4z8.T @ k3z8a.T + k5z8.T @ k3z8b.T
        - k5z8.T @ k4z8b.T @ k3z8a.T + 2 * (k2z8.T @ k3z4p.T),
        -k4z8.T + k5z8.T @ k4z8b.T,
        -k5z8.T,
        eye(nc),
    ]

    # Row group 5: order-2 rows against the 4I section of the Z8 block.
    h5_z2 = [zeros(t.k5, t.k0), zeros(t.k5, na)]
    h5_z4 = [-2 * k1z8p.T, zeros(t.k5, t.k2), zeros(t.k5, nb)]
    h5_z8 = [
        -2 * k3z8b.T + 2 * (k4z8b.T @ k3z8a.T),
        -2 * k4z8b.T,
        eye(t.k5, 2),
        zeros(t.k5, nc),
    ]

    # Row group 6: order-4 rows against the 2I section of the Z8 block.
    h6_z2 = [zeros(t.k4, t.k0), zeros(t.k4, na)]
    h6_z4 = [zeros(t.k4, t.k1), zeros(t.k4, t.k2), zeros(t.k4, nb)]
    h6_z8 = [-4 * k3z8a.T, eye(t.k4, 4), zeros(t.k4, t.k5), zeros(t.k4, nc)]

    def stack(groups):
        return np.vstack([np.hstack(g) for g in groups])

    U = stack([h1_z2, h2_z2, h3_z2, h4_z2, h5_z2, h6_z2]) % 2
    V = stack([h1_z4, h2_z4, h3_z4, h4_z4, h5_z4, h6_z4]) % 4
    W = stack([h1_z8, h2_z8, h3_z8, h4_z8, h5_z8, h6_z8]) % 8

    H = MixedMatrix.from_array(B.split, np.hstack([U, V, W]))
    violation = first_violation(B.matrix(), H)
    if violation is not None:
        raise DualConstructionError(*violation)
    return H


def format_matrix(M: MixedMatrix) -> str:
    """Text form: `alpha beta theta` header, then one row per line."""
    lines = [f"{M.split.alpha} {M.split.beta} {M.split.theta}"]
    lines.extend(format_rows(M.split, M.array))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> MixedMatrix:
    """Parse the matrix file format; blank lines and # comments are skipped."""
    split = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if split is None:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError("header must be `alpha beta theta`", lineno)
            try:
                a, b, th = (int(tok) for tok in tokens)
            except ValueError:
                raise ParseError("header must contain three integers", lineno) from None
            try:
                split = AlphabetSplit(a, b, th)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        rows.append(parse_vector(line, split, line=lineno))
    if split is None:
        raise ParseError("empty matrix file: missing `alpha beta theta` header")
    return MixedMatrix(split, rows)


def load_matrix(path) -> MixedMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())
