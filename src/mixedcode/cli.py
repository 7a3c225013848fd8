"""Command-line front end.

Three command groups: `additive` drives matrix operations (standard form,
dual, enumeration, Gray image, minimum distance, orthogonality checks),
`cyclic` drives generator-polynomial codes, and `oracle check` replays the
brute-force cross-checks on a file.

Exit codes: 0 success, 1 mathematical failure (a condition or orthogonality
check did not hold), 2 input error, 3 budget refusal. Text output is for
humans; pass --json for the stable scripting format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from mixedcode.core import (
    BudgetError,
    ParseError,
    SplitMismatchError,
    format_bits,
    format_rows,
)
from mixedcode.cyclic import (
    ConditionError,
    IndeterminateDivisionError,
    cyclic_closure_witness,
    cyclic_size,
    parse_generators,
    shift_rows,
    spanning_set,
    validate_generators,
)
import numpy as np

from mixedcode.enumeration import (
    CodewordSet,
    EnumerationBudget,
    brute_force_dual,
    closure_from_rows,
    enumerate_codewords,
    gray_rows,
    min_gray_distance,
    subgroup_witness,
)
from mixedcode.matrices import (
    DualConstructionError,
    cardinality,
    dual_matrix,
    dual_type,
    first_violation,
    format_matrix,
    parse_matrix,
    standard_form,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def to_json(payload) -> str:
    """The canonical JSON rendering; re-serializing parsed output is a
    byte-level no-op."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, lines, payload, artifact: str | None = None) -> None:
    """Print the report, and honor --out.

    The saved file prefers `artifact`, a re-loadable rendering (matrix
    commands pass their result in parser-accepted form, prose demoted to
    comments) so saved output feeds straight back into other subcommands.
    Under --json the canonical payload is saved instead.
    """
    body = to_json(payload) if args.json else "\n".join(lines)
    if args.out:
        saved = body if args.json or artifact is None else artifact
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(saved + "\n")
    else:
        print(body)


def _budget(args) -> EnumerationBudget:
    budget = EnumerationBudget()
    env = os.environ.get("MIXEDCODE_BUDGET")
    if env is not None:
        try:
            shared = int(env)
        except ValueError:
            raise ParseError(f"MIXEDCODE_BUDGET must be an integer, got {env!r}") from None
        budget = EnumerationBudget(shared, shared)
    max_codewords = args.max_codewords if args.max_codewords is not None else budget.max_codewords
    max_ambient = args.max_ambient if args.max_ambient is not None else budget.max_ambient
    return EnumerationBudget(max_codewords, max_ambient)


def _type_payload(t) -> dict:
    return {
        "alpha": t.alpha,
        "beta": t.beta,
        "theta": t.theta,
        "k": [t.k0, t.k1, t.k2, t.k3, t.k4, t.k5],
    }


def _sorted_original(C: CodewordSet, perm) -> np.ndarray:
    """Codeword rows mapped back through the column permutation, in
    canonical order of the original frame."""
    out = np.empty_like(C.array)
    out[:, perm.source_index()] = C.array
    return CodewordSet(C.split, out).array


# ---------------------------------------------------------------------------
# additive

def _cmd_standard_form(args) -> int:
    G = parse_matrix(_read(args.matrix))
    blocks, perm = standard_form(G)
    t = blocks.code_type
    M = blocks.matrix()
    lines = [f"type {t}", f"cardinality {cardinality(t)}"]
    if not perm.is_identity():
        lines.append(
            f"columns z2={list(perm.z2)} z4={list(perm.z4)} z8={list(perm.z8)}"
        )
    lines.append(format_matrix(M).rstrip("\n"))
    payload = _type_payload(t)
    payload.update(
        cardinality=cardinality(t),
        rows=format_rows(M.split, M.array),
        columns={"z2": list(perm.z2), "z4": list(perm.z4), "z8": list(perm.z8)},
    )
    artifact = "".join(f"# {line}\n" for line in lines[:-1]) + format_matrix(M).rstrip("\n")
    _emit(args, lines, payload, artifact)
    return EXIT_OK


def _cmd_dual(args) -> int:
    G = parse_matrix(_read(args.matrix))
    blocks, perm = standard_form(G)
    H = perm.inverse().apply(dual_matrix(blocks))
    hit = first_violation(G, H)
    if hit is not None:
        i, j, product = hit
        print(
            f"error: generator row {i} and dual row {j} pair to {product}",
            file=sys.stderr,
        )
        return EXIT_MATH
    dt = dual_type(blocks.code_type)
    lines = [f"dual type {dt}", f"cardinality {cardinality(dt)}", format_matrix(H).rstrip("\n")]
    payload = _type_payload(dt)
    payload.update(cardinality=cardinality(dt), rows=format_rows(H.split, H.array))
    artifact = "".join(f"# {line}\n" for line in lines[:-1]) + format_matrix(H).rstrip("\n")
    _emit(args, lines, payload, artifact)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    G = parse_matrix(_read(args.matrix))
    blocks, perm = standard_form(G)
    C = enumerate_codewords(blocks, _budget(args))
    formatted = format_rows(G.split, _sorted_original(C, perm))
    payload = {"count": len(formatted), "codewords": formatted}
    _emit(args, formatted, payload)
    return EXIT_OK


def _cmd_gray(args) -> int:
    G = parse_matrix(_read(args.matrix))
    blocks, perm = standard_form(G)
    C = enumerate_codewords(blocks, _budget(args))
    words = format_bits(gray_rows(G.split, _sorted_original(C, perm)))
    payload = {"count": len(words), "length": G.split.gray_length, "words": words}
    _emit(args, words, payload)
    return EXIT_OK


def _cmd_mindist(args) -> int:
    G = parse_matrix(_read(args.matrix))
    result = min_gray_distance(G, budget=_budget(args), seed=args.seed)
    lines = [f"min Gray distance {result}"]
    payload = {
        "distance": result.value,
        "exact": result.exact,
        "method": "exact" if result.exact else "bounded search",
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_verify_dual(args) -> int:
    G = parse_matrix(_read(args.matrix))
    H = parse_matrix(_read(args.other))
    if G.split != H.split:
        raise SplitMismatchError(f"splits differ: {G.split} vs {H.split}")
    hit = first_violation(G, H)
    if hit is None:
        _emit(args, ["all row pairs orthogonal"], {"orthogonal": True})
        return EXIT_OK
    i, j, product = hit
    lines = [f"row {i} of the first matrix and row {j} of the second pair to {product}"]
    payload = {"orthogonal": False, "row_g": i, "row_h": j, "product": product}
    _emit(args, lines, payload)
    return EXIT_MATH


# ---------------------------------------------------------------------------
# cyclic

def _cmd_cyclic_validate(args) -> int:
    g = parse_generators(_read(args.generators))
    report = validate_generators(g)
    lines = str(report).splitlines()
    lines.append("all conditions hold" if report.ok else "validation failed")
    payload = {
        "ok": report.ok,
        "conditions": [
            {"index": c.index, "label": c.label, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    _emit(args, lines, payload)
    return EXIT_OK if report.ok else EXIT_MATH


def _cmd_cyclic_matrix(args) -> int:
    g = parse_generators(_read(args.generators))
    sset = spanning_set(g)
    lines = [
        f"# {name}: {len(rows)} row{'s' if len(rows) != 1 else ''}"
        for name, rows in sset.groups
    ]
    lines.append(format_matrix(sset.matrix).rstrip("\n"))
    payload = {
        "alpha": g.split.alpha,
        "beta": g.split.beta,
        "theta": g.split.theta,
        "groups": {name: len(rows) for name, rows in sset.groups},
        "rows": format_rows(g.split, sset.matrix.array),
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_cyclic_size(args) -> int:
    g = parse_generators(_read(args.generators))
    size = cyclic_size(g)
    log2 = size.bit_length() - 1
    lines = [f"2^{log2} = {size}"]
    payload = {"log2": log2, "size": size}
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_cyclic_closure(args) -> int:
    g = parse_generators(_read(args.generators))
    sset = spanning_set(g)
    witness = cyclic_closure_witness(sset.matrix)
    if witness is None:
        _emit(args, ["closed under the cyclic shift"], {"closed": True, "witness": None})
        return EXIT_OK
    lines = [f"shift of row {witness} leaves the generated code"]
    _emit(args, lines, {"closed": False, "witness": witness})
    return EXIT_MATH


# ---------------------------------------------------------------------------
# oracle

def _check_rows(checks) -> list:
    lines = []
    for name, passed, detail in checks:
        state = "skip" if passed is None else ("pass" if passed else "FAIL")
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{name}: {state}{suffix}")
    return lines


def _oracle_matrix(text: str, budget: EnumerationBudget) -> list:
    G = parse_matrix(text)
    split = G.split
    checks = []
    blocks, perm = standard_form(G)
    C = closure_from_rows(G, budget)
    C_std = enumerate_codewords(blocks, budget)
    mapped = CodewordSet(split, C.array[:, perm.source_index()])
    checks.append((
        "standard-form span equality",
        mapped == C_std,
        f"closure {len(C)} word{'s' if len(C) != 1 else ''}, enumeration {len(C_std)}",
    ))
    violation = subgroup_witness(C, budget)
    checks.append(("span subgroup closure", violation is None, violation or ""))
    if len(G) > sum(blocks.code_type.k):
        # More rows than a minimal generating set: treat the file as a
        # purported codeword listing, which must already be closed.
        listing = CodewordSet(split, G.array)
        ok = listing == C
        checks.append((
            "row-set closure (codeword listing)",
            ok,
            "" if ok else (subgroup_witness(listing, budget) or f"{len(listing)} rows span {len(C)} words"),
        ))
    if (1 << split.ambient_exponent) <= budget.max_ambient:
        D = brute_force_dual(C, budget)
        identity = len(C) * len(D) == 1 << split.ambient_exponent
        checks.append((
            "duality identity",
            identity,
            f"|C| = {len(C)}, |dual| = {len(D)}, ambient 2^{split.ambient_exponent}",
        ))
        H = perm.inverse().apply(dual_matrix(blocks))
        span_H = closure_from_rows(H, budget)
        checks.append((
            "parity-check span equality",
            span_H == D,
            f"constructed {len(span_H)} words, brute force {len(D)}",
        ))
    else:
        checks.append((
            "duality identity",
            None,
            f"skipped: ambient 2^{split.ambient_exponent} exceeds --max-ambient",
        ))
    return checks


def _oracle_generators(text: str, budget: EnumerationBudget) -> list:
    g = parse_generators(text)
    checks = []
    report = validate_generators(g)
    detail = "" if report.ok else str(report.failures[0])
    checks.append(("generator conditions", report.ok, detail))
    if not report.ok:
        return checks
    sset = spanning_set(g)
    size = cyclic_size(g)
    if size > budget.max_codewords:
        raise BudgetError("span exceeds the codeword budget", size)
    C = closure_from_rows(sset.matrix, budget)
    checks.append(("size formula vs span", size == len(C), f"formula {size}, span {len(C)}"))
    violation = subgroup_witness(C, budget)
    checks.append(("span subgroup closure", violation is None, violation or ""))
    witness = cyclic_closure_witness(sset.matrix)
    checks.append((
        "shift closure",
        witness is None,
        "" if witness is None else f"shift of row {witness} leaves the code",
    ))
    split = g.split
    if (1 << split.ambient_exponent) <= budget.max_ambient:
        D = brute_force_dual(C, budget)
        identity = len(C) * len(D) == 1 << split.ambient_exponent
        checks.append((
            "duality identity",
            identity,
            f"|C| = {len(C)}, |dual| = {len(D)}, ambient 2^{split.ambient_exponent}",
        ))
        # A finite set is shift-stable iff its shifted image equals itself.
        checks.append(("dual shift closure", CodewordSet(split, shift_rows(split, D.array)) == D, ""))
    else:
        checks.append((
            "duality identity",
            None,
            f"skipped: ambient 2^{split.ambient_exponent} exceeds --max-ambient",
        ))
    return checks


def _cmd_oracle_check(args) -> int:
    text = _read(args.input)
    first = next(
        (line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")),
        "",
    )
    if "=" in first:
        checks = _oracle_generators(text, _budget(args))
    else:
        checks = _oracle_matrix(text, _budget(args))
    ok = all(passed is not False for _, passed, _ in checks)
    lines = _check_rows(checks)
    lines.append("all checks pass" if ok else "cross-check failed")
    payload = {
        "ok": ok,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
    }
    _emit(args, lines, payload)
    return EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the stable JSON format")
    common.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")
    common.add_argument("--max-codewords", type=int, metavar="N",
                        help="refuse enumerations beyond N codewords")
    common.add_argument("--max-ambient", type=int, metavar="N",
                        help="refuse ambient sweeps beyond N words")
    common.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for sampled searches (default 0)")

    parser = argparse.ArgumentParser(
        prog="mixedcode",
        description="Additive and cyclic codes over the mixed alphabet Z2 x Z4 x Z8.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    additive = groups.add_parser("additive", help="generator-matrix operations")
    asub = additive.add_subparsers(dest="command", required=True)
    for name, handler, extra in (
        ("standard-form", _cmd_standard_form, None),
        ("dual", _cmd_dual, None),
        ("enumerate", _cmd_enumerate, None),
        ("gray", _cmd_gray, None),
        ("mindist", _cmd_mindist, None),
    ):
        sub = asub.add_parser(name, parents=[common])
        sub.add_argument("matrix", help="matrix file (`alpha beta theta` header, one row per line)")
        sub.set_defaults(handler=handler)
    verify = asub.add_parser("verify-dual", parents=[common])
    verify.add_argument("matrix", help="first matrix file")
    verify.add_argument("other", help="second matrix file")
    verify.set_defaults(handler=_cmd_verify_dual)

    cyclic = groups.add_parser("cyclic", help="generator-polynomial codes")
    csub = cyclic.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("validate", _cmd_cyclic_validate),
        ("matrix", _cmd_cyclic_matrix),
        ("size", _cmd_cyclic_size),
        ("closure", _cmd_cyclic_closure),
    ):
        sub = csub.add_parser(name, parents=[common])
        sub.add_argument("generators", help="generator file (`alpha= beta= theta=` header, `key = coeffs` lines)")
        sub.set_defaults(handler=handler)

    oracle = groups.add_parser("oracle", help="brute-force cross-checks")
    osub = oracle.add_subparsers(dest="command", required=True)
    check = osub.add_parser("check", parents=[common])
    check.add_argument("input", help="matrix or generator file (sniffed by header)")
    check.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IndeterminateDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except DualConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SplitMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
