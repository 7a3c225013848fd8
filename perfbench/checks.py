"""Output checks: is one CLI result right for its input?

`judge` returns "ok", "fault" (the output shows a known fault named in the
operation's manifest entry) or "wrong", with a reason. Every expected value
comes from inputs.py, which computes it with reference.py; the properties
checked here (order, closure, orthogonality, spans) are recomputed with
reference.py as well.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference as ref


class Wrong(Exception):
    """The output disagrees with the reference."""


def _expect(condition, reason: str) -> None:
    if not condition:
        raise Wrong(reason)


def _digits(lines, width: int) -> np.ndarray:
    """Rows of single-digit entries from `1 0 | 2 3 | 7`-style lines."""
    text = "".join(lines).replace(" ", "").replace("|", "")
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - 48).reshape(-1, width)


def _load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _payload(code, out, want_code=0) -> dict:
    _expect(code == want_code, f"exit {code}, expected {want_code}")
    return json.loads(out)


def _enumerate(e, code, out, err):
    split = tuple(e["split"])
    payload = _payload(code, out)
    words = _digits(payload["codewords"], sum(split))
    data = _load(e["data"])
    _expect(payload["count"] == len(words), "count disagrees with the listing")
    keys = ref.keys(split, words)
    _expect(np.all(keys[1:] > keys[:-1]), "words not unique or not in canonical order")
    _expect(ref.is_subset(split, data["rows"], keys), "a generator row is missing")
    mods = ref.moduli(split)
    for row in data["rows"]:
        _expect(ref.is_subset(split, (words + row) % mods, keys), "not closed under adding a row")
    _expect(len(words) == len(data["words"]), f"{len(words)} words, the span has {len(data['words'])}")


def _gray(e, code, out, err):
    split = tuple(e["split"])
    payload = _payload(code, out)
    length = split[0] + 2 * split[1] + 4 * split[2]
    _expect(payload["length"] == length, "wrong Gray length")
    bits = _digits(payload["words"], length)
    words = _load(e["data"])["words"]
    _expect(payload["count"] == len(bits) == len(words), "wrong number of Gray words")
    _expect(np.array_equal(bits, ref.gray(split, words)), "a line is not the Gray image of its word")
    _expect(np.array_equal(bits.sum(axis=1), ref.lee(split, words)), "Gray weight differs from Lee weight")


def _checks_by_name(payload) -> dict:
    return {c["name"]: c for c in payload["checks"]}


def _duality(checks, e):
    duality = checks["duality identity"]
    if e["kernel"] is None:
        _expect(duality["passed"] is None, "duality identity should be skipped")
        return
    sizes = re.search(r"\|C\| = (\d+), \|dual\| = (\d+)", duality["detail"])
    _expect(sizes and int(sizes[1]) == 2 ** e["log_c"], "|C| differs from the reference closure")
    _expect(int(sizes[2]) == e["kernel"], "|dual| differs from the reference kernel")


def _oracle_matrix(e, code, out, err):
    payload = _payload(code, out, 0 if e["ok"] else 1)
    checks = _checks_by_name(payload)
    sizes = re.search(r"closure (\d+) words?, enumeration (\d+)",
                      checks["standard-form span equality"]["detail"])
    _expect(sizes and int(sizes[1]) == int(sizes[2]) == 2 ** e["log_c"],
            "|C| differs from the reference closure")
    _duality(checks, e)
    _expect(payload["ok"] == e["ok"], f"verdict {payload['ok']}, expected {e['ok']}")


def _oracle_cyclic(e, code, out, err):
    ok = e["formula"] == e["log_c"]
    payload = _payload(code, out, 0 if ok else 1)
    checks = _checks_by_name(payload)
    sizes = re.search(r"formula (\d+), span (\d+)", checks["size formula vs span"]["detail"])
    _expect(sizes and int(sizes[1]) == 2 ** e["formula"], "formula size differs from the reference")
    _expect(int(sizes[2]) == 2 ** e["log_c"], "span size differs from the reference")
    _duality(checks, e)
    _expect(payload["ok"] == ok, f"verdict {payload['ok']}, expected {ok}")


def _mindist(e, code, out, err):
    if e["fault"] == "mindist-refusal" and code == 3 and "all-pairs sweep" in err:
        return "fault"
    payload = _payload(code, out)
    _expect(payload["exact"] is True, "distance not exact")
    _expect(payload["distance"] == e["distance"], f"distance {payload['distance']}, expected {e['distance']}")


def _validate(e, code, out, err):
    ok = all(e["conditions"])
    payload = _payload(code, out, 0 if ok else 1)
    _expect([c["passed"] for c in payload["conditions"]] == e["conditions"], "condition verdicts differ")
    _expect(payload["ok"] == ok, "overall verdict differs")


def _invalid(e, code, out, err):
    _expect(code == 1 and "invalid generators" in err, f"exit {code} on invalid generators")


def _matrix(e, code, out, err):
    split = tuple(e["split"])
    rows = _digits(_payload(code, out)["rows"], sum(split))
    _expect(len(rows) == e["rows"], f"{len(rows)} spanning rows, expected {e['rows']}")
    _expect(ref.log_span(split, rows) == e["log_c"], "rows do not span the code")
    both = np.vstack([rows, _load(e["data"])["rows"]])
    _expect(ref.log_span(split, both) == e["log_c"], "rows leave the code")


def _size(e, code, out, err):
    payload = _payload(code, out)
    if payload["size"] == 2 ** e["log_c"] and payload["log2"] == e["log_c"]:
        return None
    if e["fault"] == "noncanonical-size" and payload["size"] == 2 ** e["formula"]:
        return "fault"
    raise Wrong(f"size 2^{payload['log2']}, the code has 2^{e['log_c']} words")


def _closure(e, code, out, err):
    payload = _payload(code, out, 0 if e["closed"] else 1)
    _expect(payload["closed"] == e["closed"], "closure verdict differs")


def _standard_form(e, code, out, err):
    split = tuple(e["split"])
    payload = _payload(code, out)
    k = payload["k"]
    _expect(payload["cardinality"] == 2 ** e["log_c"], "cardinality differs from the code size")
    _expect(k[0] + 2 * k[1] + k[2] + 3 * k[3] + 2 * k[4] + k[5] == e["log_c"], "type disagrees with the size")
    a, b, _ = split
    cols = payload["columns"]
    source = cols["z2"] + [a + j for j in cols["z4"]] + [a + b + j for j in cols["z8"]]
    permuted = _digits(payload["rows"], sum(split))
    rows = np.zeros_like(permuted)
    rows[:, source] = permuted
    _expect(ref.log_span(split, rows) == e["log_c"], "standard form spans a different code")
    both = np.vstack([rows, _load(e["data"])["rows"]])
    _expect(ref.log_span(split, both) == e["log_c"], "standard form leaves the code")


def _dual(e, code, out, err):
    split = tuple(e["split"])
    payload = _payload(code, out)
    log_dual = ref.ambient_exponent(split) - e["log_c"]
    _expect(payload["cardinality"] == 2 ** log_dual, "dual cardinality differs")
    dual = _digits(payload["rows"], sum(split))
    rows = _load(e["data"])["rows"]
    shifted = np.vstack([rows, ref.shift(split, rows)])
    _expect(not np.any(ref.pairing(split, shifted, dual)),
            "a spanning row or its shift pairs nonzero with a dual row")
    _expect(ref.log_span(split, dual) == log_dual, "dual rows span the wrong size")


JUDGES = {
    "enumerate": _enumerate,
    "gray": _gray,
    "oracle-matrix": _oracle_matrix,
    "oracle-cyclic": _oracle_cyclic,
    "mindist": _mindist,
    "cyclic-validate": _validate,
    "cyclic-invalid": _invalid,
    "cyclic-matrix": _matrix,
    "cyclic-size": _size,
    "cyclic-closure": _closure,
    "standard-form": _standard_form,
    "dual": _dual,
}


def judge(op, code, out: str, err: str):
    """("ok" | "fault" | "wrong", reason) for one operation's result."""
    if isinstance(code, BaseException):
        return "wrong", f"raised {type(code).__name__}: {code}"
    expect = dict(op["expect"], fault=op["fault"])
    try:
        if JUDGES[op["kind"]](expect, code, out, err) == "fault":
            return "fault", op["fault"]
    except Wrong as exc:
        return "wrong", str(exc)
    except Exception as exc:  # any output the checks cannot read is wrong
        return "wrong", f"unreadable output ({type(exc).__name__}: {exc})"
    return "ok", ""
