"""Element and vector arithmetic for the mixed alphabet Z2 x Z4 x Z8.

A word lives in Z2^alpha x Z4^beta x Z8^theta; a scalar d in Z8 acts
blockwise as (d*u mod 2, d*v mod 4, d*w mod 8). The Gray maps send a Z4
entry to two bits and a Z8 entry to four, so a mixed word of split
(alpha, beta, theta) becomes a binary word of length alpha + 2*beta + 4*theta.
Everything here is immutable and pure; residues are kept canonical in
[0, modulus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MODULI = (2, 4, 8)

# Gray images of Z4 entries: consecutive values differ in one bit.
PHI1 = (
    (0, 0),
    (0, 1),
    (1, 1),
    (1, 0),
)

# Gray images of Z8 entries: the bit count climbs 0..4 and back down, so the
# Hamming weight of phi2(w) is min(w, 8 - w).
PHI2 = (
    (0, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 1),
    (0, 1, 1, 1),
    (1, 1, 1, 1),
    (1, 1, 1, 0),
    (1, 1, 0, 0),
    (1, 0, 0, 0),
)


class SplitMismatchError(ValueError):
    """Two vectors or matrices disagree on (alpha, beta, theta)."""


class ParseError(ValueError):
    """Malformed vector, matrix, or generator text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetError(RuntimeError):
    """A computation was refused because its size exceeds the budget."""

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required size {required})")
        self.required = required


@dataclass(frozen=True)
class AlphabetSplit:
    """Block lengths (alpha, beta, theta) of the mixed alphabet."""

    alpha: int
    beta: int
    theta: int

    def __post_init__(self):
        for name in ("alpha", "beta", "theta"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.alpha + self.beta + self.theta < 1:
            raise ValueError("alpha + beta + theta must be at least 1")

    @property
    def ambient_exponent(self) -> int:
        """log2 of the ambient group size 2^alpha * 4^beta * 8^theta."""
        return self.alpha + 2 * self.beta + 3 * self.theta

    @property
    def gray_length(self) -> int:
        return self.alpha + 2 * self.beta + 4 * self.theta

    def __iter__(self):
        return iter((self.alpha, self.beta, self.theta))

    def __str__(self):
        return f"({self.alpha}, {self.beta}, {self.theta})"


def moduli_row(split: AlphabetSplit) -> np.ndarray:
    """The modulus of each coordinate, Z2 block first, as one uint8 row."""
    return np.repeat(np.array(MODULI, dtype=np.uint8), tuple(split))


def _check_block(name: str, entries: Sequence[int], length: int, modulus: int) -> tuple:
    entries = tuple(int(e) for e in entries)
    if len(entries) != length:
        raise ValueError(f"{name} block has {len(entries)} entries, expected {length}")
    for e in entries:
        if not 0 <= e < modulus:
            raise ValueError(f"{name} entry {e} out of range for modulus {modulus}")
    return entries


class MixedVector:
    """One word of Z2^alpha x Z4^beta x Z8^theta with an explicit split."""

    __slots__ = ("split", "u", "v", "w")

    def __init__(self, split: AlphabetSplit, u: Sequence[int], v: Sequence[int], w: Sequence[int]):
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "u", _check_block("Z2", u, split.alpha, 2))
        object.__setattr__(self, "v", _check_block("Z4", v, split.beta, 4))
        object.__setattr__(self, "w", _check_block("Z8", w, split.theta, 8))

    def __setattr__(self, name, value):
        raise AttributeError("MixedVector is immutable")

    @classmethod
    def reduced(cls, split: AlphabetSplit, u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> "MixedVector":
        """Build a vector from arbitrary integers, reducing each block."""
        return cls(split, [x % 2 for x in u], [x % 4 for x in v], [x % 8 for x in w])

    @classmethod
    def zero(cls, split: AlphabetSplit) -> "MixedVector":
        return cls(split, (0,) * split.alpha, (0,) * split.beta, (0,) * split.theta)

    def is_zero(self) -> bool:
        return not any(self.u) and not any(self.v) and not any(self.w)

    def entries(self) -> tuple:
        """All coordinates, Z2 block first."""
        return self.u + self.v + self.w

    def __eq__(self, other):
        return (
            isinstance(other, MixedVector)
            and self.split == other.split
            and self.u == other.u
            and self.v == other.v
            and self.w == other.w
        )

    def __hash__(self):
        return hash((self.split, self.u, self.v, self.w))

    def __add__(self, other):
        return add(self, other)

    def __rmul__(self, d):
        return scalar_mul(d, self)

    def __repr__(self):
        return f"MixedVector({format_vector(self)!r})"


def add(x: MixedVector, y: MixedVector) -> MixedVector:
    """Blockwise sum mod 2 / mod 4 / mod 8."""
    if x.split != y.split:
        raise SplitMismatchError(f"cannot add vectors of splits {x.split} and {y.split}")
    return MixedVector(
        x.split,
        tuple((a + b) % 2 for a, b in zip(x.u, y.u)),
        tuple((a + b) % 4 for a, b in zip(x.v, y.v)),
        tuple((a + b) % 8 for a, b in zip(x.w, y.w)),
    )


def scalar_mul(d: int, x: MixedVector) -> MixedVector:
    """Action of d in Z8: (d*u mod 2, d*v mod 4, d*w mod 8)."""
    d = int(d) % 8
    return MixedVector(
        x.split,
        tuple(d * a % 2 for a in x.u),
        tuple(d * a % 4 for a in x.v),
        tuple(d * a % 8 for a in x.w),
    )


def inner_product(x: MixedVector, y: MixedVector) -> int:
    """Duality pairing: 4*(Z2 dot) + 2*(Z4 dot) + (Z8 dot), reduced mod 8.

    Entries are lifted to plain integers before weighting; no intermediate
    mod-4 reduction of the Z4 products is needed because 2*(a*b mod 4) and
    2*a*b agree mod 8 (and likewise with weight 4 on the Z2 block).
    """
    if x.split != y.split:
        raise SplitMismatchError(f"cannot pair vectors of splits {x.split} and {y.split}")
    total = 4 * sum(a * b for a, b in zip(x.u, y.u))
    total += 2 * sum(a * b for a, b in zip(x.v, y.v))
    total += sum(a * b for a, b in zip(x.w, y.w))
    return total % 8


def gray_phi1(v: int) -> tuple:
    """Two-bit Gray image of a Z4 entry."""
    return PHI1[v]


def gray_phi2(w: int) -> tuple:
    """Four-bit Gray image of a Z8 entry."""
    return PHI2[w]


def gray_map(x: MixedVector) -> tuple:
    """Concatenate u, phi1 of each Z4 entry, phi2 of each Z8 entry."""
    bits = list(x.u)
    for a in x.v:
        bits.extend(PHI1[a])
    for a in x.w:
        bits.extend(PHI2[a])
    return tuple(bits)


def hamming_weight(bits: Sequence[int]) -> int:
    return sum(1 for b in bits if b)


def format_vector(x: MixedVector) -> str:
    """Render as `1 0 | 0 0 2 | 0 0 0 4`; empty blocks leave their slot blank."""
    return " | ".join(" ".join(str(e) for e in block) for block in (x.u, x.v, x.w))


def _fill_digits(template: str, arr: np.ndarray) -> list[str]:
    """One line per row of `arr`: the template with its i-th "0" replaced by
    the row's i-th entry. Entries must be single digits."""
    slots = [i for i, ch in enumerate(template) if ch == "0"]
    lines = np.tile(np.frombuffer(template.encode("ascii") + b"\n", dtype=np.uint8), (arr.shape[0], 1))
    lines[:, slots] = arr + ord("0")
    return lines.tobytes().decode("ascii").splitlines()


def format_rows(split: AlphabetSplit, arr: np.ndarray) -> list[str]:
    """format_vector of each row of an (m, alpha + beta + theta) entry array.

    Every entry is one digit, so every word has the zero word's layout; the
    rows are written into that layout at once instead of word by word.
    """
    return _fill_digits(format_vector(MixedVector.zero(split)), arr)


def format_bits(bits: np.ndarray) -> list[str]:
    """Each row of a 0/1 array as a string of digits, as `gray` prints it."""
    return _fill_digits("0" * bits.shape[1], bits)


def parse_vector(text: str, split: AlphabetSplit, line: int | None = None) -> MixedVector:
    """Parse the `|`-separated three-block form, rejecting out-of-range entries."""
    parts = text.split("|")
    if len(parts) != 3:
        raise ParseError(f"expected 3 blocks separated by '|', got {len(parts)}", line)
    blocks = []
    for part, length, modulus, name in zip(parts, split, MODULI, ("Z2", "Z4", "Z8")):
        tokens = part.split()
        entries = []
        for tok in tokens:
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"{name} block: {tok!r} is not an integer", line) from None
            if not 0 <= value < modulus:
                raise ParseError(f"{name} block: entry {value} out of range [0, {modulus})", line)
            entries.append(value)
        if len(entries) != length:
            raise ParseError(f"{name} block has {len(entries)} entries, expected {length}", line)
        blocks.append(entries)
    return MixedVector(split, *blocks)
