"""Seeded inputs for the benchmark workloads, with the expected answers.

    python3 perfbench/inputs.py --workload listing --seed 1 --dir perfbench/out/inputs

writes the input files of one round into --dir, plus `manifest.json`: one
entry per operation with its command line, what the output must satisfy, and
the fault it is known to hit, if any. Arrays too large for the manifest go to
`<input>.npz` beside it. The same workload and seed give the same files.

The expected answers come from reference.py, never from mixedcode, which this
module does not import.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import oracles  # noqa: E402
import reference as ref  # noqa: E402

# Code classes: (log2 |C|, split, type (k0..k5), inputs per round, and of
# those how many `enumerate` and how many `gray` run on). Each input is a
# fresh code of that type: the seed picks it, the class fixes its size, so a
# round costs about the same whatever the seed. The counts give blocks of
# like operations around the median (enumerate on 2^11 words) and the 90th
# percentile (gray on 2^12 words) of the latencies.
LISTING = (
    (10, (3, 4, 4), (1, 2, 0, 1, 1, 0), 10, 10, 10),
    (11, (2, 3, 5), (1, 1, 1, 2, 0, 1), 10, 10, 6),
    (12, (4, 2, 5), (2, 1, 0, 2, 1, 0), 6, 6, 6),
    (14, (3, 3, 6), (1, 1, 1, 3, 0, 1), 1, 0, 1),
    (16, (3, 3, 7), (1, 1, 1, 3, 1, 1), 1, 1, 0),
)
# `oracle check` classes: (log2 |C|, split, type, inputs per round). The
# largest sits in an ambient group of 2^20 words, the CLI's default cap for
# the kernel sweep.
ORACLE = (
    (5, (3, 3, 2), (1, 1, 0, 0, 1, 0), 6),
    (7, (4, 2, 2), (1, 1, 0, 1, 0, 1), 4),
    (8, (4, 2, 2), (1, 1, 0, 1, 1, 0), 2),
    (11, (0, 1, 6), (0, 1, 0, 3, 0, 0), 1),
)
# `mindist` classes, drawn with a nonlinear Gray image (see MINDIST_LINEAR).
MINDIST = (
    (6, (2, 2, 2), (1, 1, 0, 1, 0, 0), 8),
    (8, (3, 2, 3), (1, 1, 0, 1, 1, 0), 8),
    (10, (3, 4, 4), (1, 2, 0, 1, 1, 0), 4),
    (12, (4, 2, 5), (2, 1, 0, 2, 1, 0), 6),
)
# Only order-2 rows, so the Gray image is linear and `mindist` takes its
# pairwise XOR-closure path; the other mindist classes are drawn nonlinear,
# so that path runs exactly once per round.
MINDIST_LINEAR = (11, (4, 4, 3), (4, 0, 4, 0, 0, 3), 1)
# Above the 8192-word pair limit of exact distance: `mindist` refuses these
# with exit 3 although they are far inside the codeword budget. They do not
# depend on the seed, so every run fails the same operations.
MINDIST_REFUSED = (
    ("identity-z8^5", (0, 0, 5), np.eye(5, dtype=np.int64)),
    ("identity-z4^7", (0, 7, 0), np.eye(7, dtype=np.int64)),
    ("fixed-2^16", (3, 3, 7), None),
)
# Small cyclic generator sets for `oracle check`: (split, log2 |C| of each).
ORACLE_CYCLIC = (
    ((3, 1, 3), (7, 8, 8, 9)),
    ((3, 3, 1), (8, 9)),
)
# Cyclic sets: (split, deg f, deg a1, deg r). Those three degrees fix the
# number of spanning rows, alpha + beta + theta - deg f - deg a1 - deg r;
# the seed picks the factors and the other chain members.
FAMILY = (15, 31, 63, 127)
CYCLIC = (
    ((63, 63, 63), 21, 21, 21), ((63, 63, 63), 21, 21, 21),
    ((31, 31, 31), 10, 10, 10), ((31, 31, 31), 10, 10, 10), ((31, 31, 31), 10, 10, 10),
    ((21, 21, 21), 7, 7, 7), ((21, 21, 21), 7, 7, 7),
    ((21, 7, 15), 7, 3, 5),
    ((15, 15, 15), 5, 5, 5), ((15, 15, 15), 5, 5, 5), ((15, 15, 15), 5, 5, 5),
    ((9, 15, 7), 3, 5, 3),
    ((9, 9, 9), 3, 3, 3), ((9, 9, 9), 3, 3, 3),
    ((7, 7, 7), 3, 3, 3), ((7, 7, 7), 3, 3, 3),
)
CYCLIC_INVALID = (
    ((15, 15, 15), 5, 5, 5), ((15, 15, 15), 5, 5, 5),
    ((31, 31, 31), 10, 10, 10), ((31, 31, 31), 10, 10, 10),
)
# Noncanonical sets: valid, but x^beta - 1 does not divide q's cofactor
# times g2 mod 2, so the closed-form size undercounts the code. The first is
# the example shipped as tests/data/noncanon.gen; the others are drawn from
# fixed seeds. None depends on the benchmark seed.
NONCANON_FILE = {
    "split": (7, 3, 3),
    "f": [1, 0, 1, 1], "g1": [3, 0, 0, 1], "a1": [3, 0, 0, 1], "g2": [2, 3, 3],
    "p": [7, 0, 0, 1], "q": [7, 0, 0, 1], "r": [7, 1],
}
NONCANON_DRAWN = (((3, 3, 3), "noncanon-a"), ((5, 3, 3), "noncanon-b"), ((7, 7, 7), "noncanon-c"))

MAX_AMBIENT = 1 << 20  # the CLI's default --max-ambient


# ---------------------------------------------------------------------------
# generator matrices


def draw_code(rng: random.Random, split, code_type) -> np.ndarray:
    """Rows of a random code of the given type.

    Starts from one row per generator on distinct coordinates (1, 1, 2, 1,
    2, 4 for classes k0..k5), then applies random automorphisms of the
    ambient module (adding a homomorphic image of one column to another) and
    random unimodular row operations. Neither changes the code's type.
    """
    a, b, c = split
    mods = ref.moduli(split)
    width = a + b + c
    free = [list(range(a)), list(range(a, a + b)), list(range(a + b, width))]
    for cols in free:
        rng.shuffle(cols)
    rows = []
    for count, block, value in zip(code_type, (0, 1, 1, 2, 2, 2), (1, 1, 2, 1, 2, 4)):
        for _ in range(count):
            row = [0] * width
            row[free[block].pop()] = value
            rows.append(row)
    A = np.array(rows, dtype=np.int64).reshape(-1, width)
    for _ in range(4 * width):
        i, j = rng.randrange(width), rng.randrange(width)
        if i != j:
            # Z_mj -> Z_mi: reduction when mj >= mi, multiplication by mi/mj otherwise.
            scale = int(mods[i]) // min(int(mods[i]), int(mods[j]))
            A[:, i] = (A[:, i] + rng.randrange(1, 8) * scale * A[:, j]) % mods[i]
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            A[i] = (A[i] + rng.randrange(8) * A[j]) % mods
    order = list(range(len(rows)))
    rng.shuffle(order)
    return A[order]


def matrix_text(split, rows) -> str:
    a, b, _ = split
    lines = [" ".join(str(x) for x in split)]
    for row in np.asarray(rows).tolist():
        blocks = (row[:a], row[a:a + b], row[a + b:])
        lines.append(" | ".join(" ".join(str(x) for x in blk) for blk in blocks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cyclic generator sets

_FACTORS = {}


def _factors(n: int) -> list:
    if n not in _FACTORS:
        _FACTORS[n] = ref.binary_factors(n)
    return _FACTORS[n]


def _subset(rng, pool, degree) -> list:
    """A random sub-multiset of `pool` of total degree `degree`."""
    for _ in range(20000):
        pick = [f for f in pool if rng.random() < 0.5]
        if sum(len(f) - 1 for f in pick) == degree:
            return pick
    raise ValueError(f"no factor subset of degree {degree}")


def _grow(rng, pool, within) -> list:
    """`within` plus a random selection of the other factors of `pool`."""
    rest = list(pool)
    for fac in within:
        rest.remove(fac)
    return list(within) + [f for f in rest if rng.random() < 0.5]


def _degrees(pool) -> set:
    sums = {0}
    for f in pool:
        sums |= {s + len(f) - 1 for s in sums}
    return sums


def draw_generators(rng, split, deg_f, deg_a1, deg_r, canonical=True) -> dict:
    """A valid cyclic generator set with chain divisors built from Hensel
    lifts of binary factors of x^n - 1.

    l1 is built to satisfy condition 4 and l2 condition 6; g2 is drawn at
    random until it satisfies condition 5 and is canonical (or, with
    canonical=False, is not), and is left zero when no draw does.
    """
    a, b, c = split
    fa, fb, fc = _factors(a), _factors(b), _factors(c)
    f_sub = _subset(rng, fa, deg_f)
    a1_sub = _subset(rng, fb, deg_a1)
    g1_sub = _grow(rng, fb, a1_sub)
    r_sub = _subset(rng, fc, deg_r)
    q_sub = _grow(rng, fc, r_sub)
    p_sub = _grow(rng, fc, q_sub)
    lift = oracles.lifted_product
    g = {
        "split": split,
        "f": lift(f_sub, a, 2), "g1": lift(g1_sub, b, 4), "a1": lift(a1_sub, b, 4),
        "p": lift(p_sub, c, 8), "q": lift(q_sub, c, 8), "r": lift(r_sub, c, 8),
        "l1": [], "l2": [], "g2": [],
    }
    f = g["f"]
    deg_f_poly = oracles.pdeg(f)
    # Condition 4: f | ((x^beta - 1)/a1) l1, so l1 is a multiple of f / gcd.
    a1_co = [x % 2 for x in oracles.pdivmod(oracles.xn1(b, 4), g["a1"], 4)[0]]
    l1_step = oracles.pdivmod(f, oracles.gf2_eea(f, a1_co)[0], 2)[0]
    g["l1"] = _random_multiple(rng, l1_step, f)
    # Condition 5 and canonicity, by drawing g2 below deg(g1 + 2a1).
    rho = oracles.pdivmod(oracles.xn1(c, 8), g["r"], 8)[0]
    mix = oracles.padd(g["g1"], [2 * x for x in g["a1"]], 4)
    q_co = [x % 2 for x in oracles.pdivmod(oracles.xn1(c, 8), g["q"], 8)[0]]
    k = []
    for _ in range(300 if oracles.pdeg(mix) <= 8 else 30):
        cand = oracles.trim([rng.randrange(4) for _ in range(max(oracles.pdeg(mix), 1))])
        quot, rem = oracles.pdivmod(oracles.pmul([x % 4 for x in rho], cand, 4), mix, 4)
        if rem or not cand:
            continue
        if (not oracles.fold_mod2(oracles.pmul(q_co, [x % 2 for x in cand], 2), b)) == canonical:
            g["g2"], k = cand, quot
            break
    # Condition 6: f | k l1 + ((x^theta - 1)/r) l2.
    rho2 = [x % 2 for x in rho]
    target = oracles.pdivmod(oracles.pmul([x % 2 for x in k], g["l1"], 2), f, 2)[1]
    l2_step = oracles.pdivmod(f, oracles.gf2_eea(f, rho2)[0], 2)[0]
    if target and deg_f_poly > 0:
        for _ in range(60):
            cand = oracles.trim([rng.randrange(2) for _ in range(deg_f_poly)])
            lhs = oracles.padd(target, oracles.pmul(rho2, cand, 2), 2)
            if not oracles.pdivmod(lhs, f, 2)[1]:
                g["l2"] = cand
                break
        else:
            g["l1"] = []
            g["l2"] = _random_multiple(rng, l2_step, f)
    else:
        g["l2"] = _random_multiple(rng, l2_step, f)
    if not all(ref.conditions(g)):
        raise AssertionError(f"drawn generators fail their conditions: {g}")
    return g


def _random_multiple(rng, step, f) -> list:
    """A random multiple of `step` reduced mod f (over GF(2))."""
    if oracles.pdeg(f) < 1:
        return []
    s = [rng.randrange(2) for _ in range(oracles.pdeg(f))]
    return oracles.pdivmod(oracles.pmul(step, s, 2), f, 2)[1]


def break_generators(rng, g) -> dict:
    """A copy of g that fails at least one of the six conditions."""
    c = g["split"][2]
    for _ in range(100):
        bad = dict(g)
        how = rng.randrange(3)
        if how == 0:  # q is a divisor of x^theta - 1 but not of p
            degree = rng.choice(sorted(_degrees(_factors(c))))
            bad["q"] = oracles.lifted_product(_subset(rng, _factors(c), degree), c, 8)
        elif how == 1:  # l1 breaks condition 4
            bad["l1"] = oracles.trim([rng.randrange(2) for _ in range(max(oracles.pdeg(g["f"]), 1))])
        else:  # g2 breaks condition 5
            bad["g2"] = oracles.trim([rng.randrange(4) for _ in range(max(oracles.pdeg(g["g1"]), 1))])
        if not all(ref.conditions(bad)):
            return bad
    raise AssertionError("could not break the generator set")


def family(n: int) -> dict:
    """The set alpha = beta = theta = n, f = 1+x, g1 = a1 = 3+x, p = q = r = 7+x,
    whose code is the words with every block summing to zero."""
    return {"split": (n, n, n), "f": [1, 1], "l1": [], "l2": [], "g1": [3, 1],
            "a1": [3, 1], "g2": [], "p": [7, 1], "q": [7, 1], "r": [7, 1]}


def generators_text(g) -> str:
    a, b, c = g["split"]
    lines = [f"alpha={a} beta={b} theta={c}"]
    for key in ("f", "l1", "l2", "g1", "a1", "g2", "p", "q", "r"):
        if g.get(key):
            lines.append(f"{key} = " + " ".join(str(x) for x in g[key]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


class Round:
    """Collects the input files and operations of one round."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.ops = []

    def file(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def arrays(self, name: str, **arrays) -> str:
        path = self.dir / f"{name}.npz"
        np.savez(path, **arrays)
        return str(path)

    def op(self, argv, kind, fault=None, **expect):
        self.ops.append({"argv": list(argv), "kind": kind, "fault": fault, "expect": expect})


def _kernel(split, rows):
    if 1 << ref.ambient_exponent(split) > MAX_AMBIENT:
        return None
    return ref.kernel_size(split, rows)


def build_listing(rnd: Round, seed: int) -> None:
    for log, split, code_type, count, enumerate_count, gray_count in LISTING:
        for i in range(count):
            rng = random.Random(f"listing-{seed}-{log}-{i}")
            rows = draw_code(rng, split, code_type)
            name = f"code{log}-{i}"
            path = rnd.file(f"{name}.mtx", matrix_text(split, rows))
            words = ref.span_words(split, rows)
            assert len(words) == 1 << log
            data = rnd.arrays(name, rows=rows, words=words)
            if i < enumerate_count:
                rnd.op(["additive", "enumerate", "--json", path], "enumerate", split=split, data=data)
            if i < gray_count:
                rnd.op(["additive", "gray", "--json", path], "gray", split=split, data=data)


def _oracle_matrix(rnd, name, split, rows):
    """`oracle check` on a matrix file. The verdict is a pass when the file
    has as many rows as the code's rank; with more, the file is read as a
    codeword listing, which passes exactly when its rows are closed."""
    log_c = ref.log_span(split, rows)
    if len(rows) == ref.rank(split, rows):
        verdict = True
    else:
        verdict = len(np.unique(ref.keys(split, rows))) == 1 << log_c
    path = rnd.file(f"{name}.mtx", matrix_text(split, rows))
    rnd.op(["oracle", "check", "--json", path], "oracle-matrix",
           log_c=log_c, kernel=_kernel(split, rows), ok=verdict)


def _mindist(rnd, name, split, rows, fault=None):
    path = rnd.file(f"{name}.mtx", matrix_text(split, rows))
    words = ref.span_words(split, rows)
    weights = ref.lee(split, words)
    rnd.op(["additive", "mindist", "--json", path], "mindist", fault=fault,
           distance=int(weights[weights > 0].min()))


def build_exhaustive(rnd: Round, seed: int) -> None:
    for log, split, code_type, count in ORACLE:
        for i in range(count):
            rows = draw_code(random.Random(f"oracle-{seed}-{log}-{i}"), split, code_type)
            _oracle_matrix(rnd, f"oracle{log}-{i}", split, rows)
    for i in range(4):
        # Codeword listings (more rows than the rank): closed when complete,
        # not closed with one nonzero word left out.
        rng = random.Random(f"listing-{seed}-{i}")
        split = (2, 2, 1)
        words = ref.span_words(split, draw_code(rng, split, (1, 1, 0, 0, 0, 1)))
        if i % 2:
            words = np.delete(words, rng.randrange(1, len(words)), axis=0)
        order = list(range(len(words)))
        rng.shuffle(order)
        _oracle_matrix(rnd, f"listing-{i}", split, words[order])
    for split, logs in ORACLE_CYCLIC:
        for i, log in enumerate(logs):
            rng = random.Random(f"oracle-cyclic-{seed}-{split}-{i}")
            g = _generators_of_size(rng, split, log)
            path = rnd.file(f"cyc{split[0]}{split[1]}{split[2]}-{i}.gen", generators_text(g))
            module = ref.module_rows(g)
            rnd.op(["oracle", "check", "--json", path], "oracle-cyclic",
                   formula=ref.formula_exponent(g), log_c=ref.log_span(split, module),
                   kernel=_kernel(split, module))
    for log, split, code_type, count in MINDIST:
        for i in range(count):
            rng = random.Random(f"mindist-{seed}-{log}-{i}")
            while True:
                rows = draw_code(rng, split, code_type)
                if not ref.gray_is_linear(split, ref.span_words(split, rows)):
                    break
            _mindist(rnd, f"mindist{log}-{i}", split, rows)
    log, split, code_type, _ = MINDIST_LINEAR
    _mindist(rnd, f"mindist{log}-linear", split,
             draw_code(random.Random(f"mindist-linear-{seed}"), split, code_type))
    for name, split, rows in MINDIST_REFUSED:
        if rows is None:
            rows = draw_code(random.Random(name), split, (1, 1, 1, 3, 1, 1))
        _mindist(rnd, name, split, rows, fault="mindist-refusal")


def _generators_of_size(rng, split, log) -> dict:
    """A canonical generator set on `split` whose code has 2^log words."""
    fa, fb, fc = (_degrees(_factors(n)) for n in split)
    for _ in range(2000):
        g = draw_generators(rng, split, rng.choice(sorted(fa)), rng.choice(sorted(fb)),
                            rng.choice(sorted(fc)))
        if ref.formula_exponent(g) == log:
            return g
    raise ValueError(f"no generator set of size 2^{log} on {split}")


def _cyclic_ops(rnd, name, g, fault=None):
    split = g["split"]
    path = rnd.file(f"{name}.gen", generators_text(g))
    ok = ref.conditions(g)
    rnd.op(["cyclic", "validate", "--json", path], "cyclic-validate", conditions=ok)
    if not all(ok):
        for command in ("matrix", "size", "closure"):
            rnd.op(["cyclic", command, "--json", path], "cyclic-invalid")
        return
    rows = ref.spanning_rows(g)
    log_c = ref.log_span(split, ref.module_rows(g))
    assert ref.log_span(split, rows) == log_c
    data = rnd.arrays(name, rows=rows)
    closed = ref.log_span(split, np.vstack([rows, ref.shift(split, rows)])) == log_c
    mtx = rnd.file(f"{name}.mtx", matrix_text(split, rows))
    rnd.op(["cyclic", "matrix", "--json", path], "cyclic-matrix",
           split=split, log_c=log_c, rows=len(rows), data=data)
    rnd.op(["cyclic", "size", "--json", path], "cyclic-size", fault=fault,
           log_c=log_c, formula=ref.formula_exponent(g))
    rnd.op(["cyclic", "closure", "--json", path], "cyclic-closure", closed=closed)
    rnd.op(["additive", "standard-form", "--json", mtx], "standard-form",
           split=split, log_c=log_c, data=data)
    rnd.op(["additive", "dual", "--json", mtx], "dual", split=split, log_c=log_c, data=data)


def build_cyclic(rnd: Round, seed: int) -> None:
    for n in FAMILY:
        g = family(n)
        assert ref.log_span(g["split"], ref.module_rows(g)) == 6 * (n - 1)
        _cyclic_ops(rnd, f"family{n}", g)
    for i, (split, df, da1, dr) in enumerate(CYCLIC):
        g = draw_generators(random.Random(f"cyclic-{seed}-{i}"), split, df, da1, dr)
        _cyclic_ops(rnd, f"cyclic{i}", g)
    for i, (split, df, da1, dr) in enumerate(CYCLIC_INVALID):
        rng = random.Random(f"cyclic-invalid-{seed}-{i}")
        _cyclic_ops(rnd, f"invalid{i}", break_generators(rng, draw_generators(rng, split, df, da1, dr)))
    _cyclic_ops(rnd, "noncanon", NONCANON_FILE, fault="noncanonical-size")
    for split, name in NONCANON_DRAWN:
        _cyclic_ops(rnd, name, _noncanonical(random.Random(name), split), fault="noncanonical-size")


def _noncanonical(rng, split) -> dict:
    degrees = [sorted(_degrees(_factors(n))) for n in split]
    for _ in range(5000):
        g = draw_generators(rng, split, *(rng.choice(d) for d in degrees), canonical=False)
        if g["g2"] and ref.log_span(split, ref.module_rows(g)) != ref.formula_exponent(g):
            return g
    raise ValueError(f"no noncanonical generator set on {split}")


WORKLOADS = {"listing": build_listing, "exhaustive": build_exhaustive, "cyclic": build_cyclic}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    rnd = Round(args.dir)
    WORKLOADS[args.workload](rnd, args.seed)
    # Interleave the classes, so that a slow spell of the machine is shared
    # by all of them rather than landing on one.
    random.Random(f"order-{args.workload}-{args.seed}").shuffle(rnd.ops)
    with open(args.dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": rnd.ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
