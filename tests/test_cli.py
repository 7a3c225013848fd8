"""Command-line behavior: subcommands, exit codes, JSON stability, --out."""

import hashlib
import json
import random
from pathlib import Path

import pytest

import mixedcode as mc
import goldens
import oracles
from mixedcode.cli import main

DATA = Path(__file__).parent / "data"
REF = str(DATA / "ref234.mtx")
ZERO = str(DATA / "zero.mtx")
CYC = str(DATA / "cyc1577.gen")
CYC_BAD = str(DATA / "cyc1577_bad.gen")
SMALL = str(DATA / "small.gen")
NONCANON = str(DATA / "noncanon.gen")
NOTCLOSED = str(DATA / "notclosed.mtx")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# additive

def test_standard_form_reports_type_and_matrix(capsys):
    code, out, _ = run(capsys, "additive", "standard-form", REF)
    assert code == 0
    assert "type (2,3,4; 2; 1,1; 1,1,0)" in out
    assert "cardinality 1024" in out
    assert "1 0 | 0 0 2 | 0 0 0 4" in out


def test_dual_reports_dual_type(capsys):
    code, out, _ = run(capsys, "additive", "dual", REF)
    assert code == 0
    assert "dual type (2,3,4; 0; 1,1; 2,0,1)" in out
    assert "cardinality 1024" in out


def test_enumerate_zero_matrix_lists_one_word(capsys):
    code, out, _ = run(capsys, "additive", "enumerate", ZERO)
    assert code == 0
    assert out.splitlines() == ["0 0 | 0 0 0 | 0 0 0 0"]


def test_gray_emits_bitstrings(capsys):
    code, out, _ = run(capsys, "additive", "gray", ZERO)
    assert code == 0
    assert out.splitlines() == ["0" * 24]


# Each split leaves one block empty, and the last has all three; every
# standard form here permutes columns, so the listing must undo it.
LISTING_CASES = (
    ((0, 2, 3), ("| 2 1 | 0 0 0", "| 0 0 | 2 1 4", "| 1 3 | 6 0 2")),
    ((2, 0, 3), ("0 1 | | 2 0 1", "1 0 | | 4 4 0")),
    ((2, 3, 0), ("0 1 | 0 2 1 |", "1 1 | 2 0 0 |")),
    ((1, 2, 2), ("1 | 2 1 | 0 4", "0 | 0 1 | 2 1", "1 | 1 0 | 3 6")),
)
LISTING_IDS = ["-".join(map(str, split)) for split, _ in LISTING_CASES]


def _listing_file(tmp_path, split, rows):
    path = tmp_path / "listing.mtx"
    path.write_text(" ".join(map(str, split)) + "\n" + "\n".join(rows) + "\n")
    blocks, perm = mc.standard_form(mc.load_matrix(path))
    assert not perm.is_identity()
    triples = [tuple(tuple(int(e) for e in block.split()) for block in row.split("|")) for row in rows]
    return str(path), sorted(oracles.span_words(split, triples))


def _render(split, flat):
    a, b, _ = split
    blocks = (flat[:a], flat[a:a + b], flat[a + b:])
    return " | ".join(" ".join(str(e) for e in block) for block in blocks)


@pytest.mark.parametrize("split, rows", LISTING_CASES, ids=LISTING_IDS)
def test_enumerate_lists_the_span_in_canonical_order(capsys, tmp_path, split, rows):
    path, words = _listing_file(tmp_path, split, rows)
    lines = [_render(split, w) for w in words]
    code, out, _ = run(capsys, "additive", "enumerate", path)
    assert code == 0 and out == "\n".join(lines) + "\n"
    code, out, _ = run(capsys, "additive", "enumerate", path, "--json")
    expected = {"count": len(lines), "codewords": lines}
    assert code == 0 and out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("split, rows", LISTING_CASES, ids=LISTING_IDS)
def test_gray_lists_images_in_canonical_word_order(capsys, tmp_path, split, rows):
    path, words = _listing_file(tmp_path, split, rows)
    lines = ["".join(str(b) for b in oracles.gray(split, w)) for w in words]
    code, out, _ = run(capsys, "additive", "gray", path)
    assert code == 0 and out == "\n".join(lines) + "\n"
    code, out, _ = run(capsys, "additive", "gray", path, "--json")
    expected = {"count": len(lines), "length": len(lines[0]), "words": lines}
    assert code == 0 and out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _pinned_inputs(capsys, tmp_path):
    """24 seeded sampled matrices, every third with a duplicated row and
    every third led by a unit multiple of one of its rows, plus the spanning
    matrix of cyc1577.gen as `cyclic matrix --out` writes it."""
    rng = random.Random(7)
    paths = []
    for i in range(24):
        split, rows = oracles.sample_matrix(rng)
        u, v, w = rows[rng.randrange(len(rows))]
        if i % 3 == 1:
            rows.append((u, v, w))
        elif i % 3 == 2:
            d = rng.choice((3, 5, 7))
            rows.insert(0, (tuple(d * e % 2 for e in u), tuple(d * e % 4 for e in v), tuple(d * e % 8 for e in w)))
        path = tmp_path / f"pinned{i}.mtx"
        path.write_text(" ".join(map(str, split)) + "\n" + "".join(_render(split, oracles.flatten(r)) + "\n" for r in rows))
        paths.append(str(path))
    path = tmp_path / "cyc1577.mtx"
    assert run(capsys, "cyclic", "matrix", CYC, "--out", str(path))[0] == 0
    paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "command, digest",
    [("standard-form", goldens.STANDARD_FORM_JSON_SHA256), ("dual", goldens.DUAL_JSON_SHA256)],
)
def test_standard_form_and_dual_json_are_pinned(capsys, tmp_path, command, digest):
    """The exact rows, type and column permutation, not only the span: the
    sha256 of the concatenated --json reports."""
    sha = hashlib.sha256()
    for path in _pinned_inputs(capsys, tmp_path):
        code, out, err = run(capsys, "additive", command, path, "--json")
        assert code == 0, err
        sha.update(out.encode())
    assert sha.hexdigest() == digest


def test_mindist_text(capsys):
    code, out, _ = run(capsys, "additive", "mindist", REF)
    assert code == 0
    assert "min Gray distance 3 (exact" in out


@pytest.mark.parametrize("header, block", [("0 0 5", "| | {}"), ("0 7 0", "| {} |")], ids=["z8^5", "z4^7"])
def test_mindist_is_exact_on_identity_codes_above_the_pair_limit(capsys, tmp_path, header, block):
    # 2^15 and 2^14 words: an all-pairs sweep would exceed 2^26 pairs.
    n = int(header.split()[1]) + int(header.split()[2])
    rows = [block.format(" ".join("1" if j == i else "0" for j in range(n))) for i in range(n)]
    path = tmp_path / "identity.mtx"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "additive", "mindist", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 1 and payload["exact"] is True


def test_mindist_bounded_search_under_budget(capsys):
    code, out, _ = run(capsys, "additive", "mindist", REF, "--max-codewords", "10", "--seed", "1")
    assert code == 0
    assert "upper bound" in out


def test_verify_dual_failure_names_the_pair(capsys):
    code, out, _ = run(capsys, "additive", "verify-dual", REF, REF)
    assert code == 1
    assert "row 0 of the first matrix and row 1 of the second pair to 4" in out


def test_dual_artifact_round_trips_through_verify_dual(capsys, tmp_path):
    dual_path = tmp_path / "dual.mtx"
    code, out, _ = run(capsys, "additive", "dual", REF, "--out", str(dual_path))
    assert code == 0 and out == ""
    H = mc.load_matrix(dual_path)
    assert len(H.rows) == 5
    code, out, _ = run(capsys, "additive", "verify-dual", REF, str(dual_path))
    assert code == 0
    assert "all row pairs orthogonal" in out


def test_standard_form_artifact_reloads(capsys, tmp_path):
    saved = tmp_path / "std.mtx"
    code, _, _ = run(capsys, "additive", "standard-form", REF, "--out", str(saved))
    assert code == 0
    M = mc.load_matrix(saved)
    assert len(M.rows) == 6
    text = saved.read_text()
    assert text.startswith("# type (2,3,4; 2; 1,1; 1,1,0)")


# --------------------------------------------------------------------------
# cyclic

def test_cyclic_validate_passes(capsys):
    code, out, _ = run(capsys, "cyclic", "validate", CYC)
    assert code == 0
    assert "all conditions hold" in out
    assert out.count(": pass") == 6


def test_cyclic_validate_names_the_failure(capsys):
    code, out, _ = run(capsys, "cyclic", "validate", CYC_BAD)
    assert code == 1
    assert "condition 5" in out and "FAIL" in out
    assert "2 + 2x + 2x^3" in out
    assert "validation failed" in out


def test_cyclic_matrix_prints_groups_and_rows(capsys):
    code, out, _ = run(capsys, "cyclic", "matrix", CYC)
    assert code == 0
    assert "# S1: 10 rows" in out and "# S5: 1 row" in out
    data_rows = [l for l in out.splitlines() if l and not l.startswith("#") and "|" in l]
    assert len(data_rows) == 21


def test_cyclic_size(capsys):
    code, out, _ = run(capsys, "cyclic", "size", CYC)
    assert code == 0
    assert out.strip() == "2^33 = 8589934592"


def test_cyclic_closure(capsys):
    code, out, _ = run(capsys, "cyclic", "closure", CYC)
    assert code == 0
    assert "closed under the cyclic shift" in out


def test_even_length_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "even.gen"
    bad.write_text("alpha=4 beta=3 theta=3\nf = 1 1\n")
    code, _, err = run(capsys, "cyclic", "validate", str(bad))
    assert code == 2
    assert "odd" in err


# --------------------------------------------------------------------------
# oracle

def test_oracle_passes_on_reference_matrix(capsys):
    code, out, _ = run(capsys, "oracle", "check", REF)
    assert code == 0
    assert "all checks pass" in out
    assert "duality identity: pass" in out


def test_oracle_passes_on_trivial_matrix(capsys):
    code, out, _ = run(capsys, "oracle", "check", ZERO)
    assert code == 0
    assert "all checks pass" in out


def test_oracle_flags_non_closed_listing(capsys):
    code, out, _ = run(capsys, "oracle", "check", NOTCLOSED)
    assert code == 1
    assert "row-set closure (codeword listing): FAIL" in out
    assert "cross-check failed" in out


def test_oracle_passes_on_small_generators(capsys):
    code, out, _ = run(capsys, "oracle", "check", SMALL)
    assert code == 0
    assert "size formula vs span: pass" in out
    assert "dual shift closure: pass" in out


def test_oracle_catches_the_formula_span_mismatch(capsys):
    code, out, _ = run(capsys, "oracle", "check", NONCANON)
    assert code == 0
    assert "size formula vs span: pass (formula 256, span 256)" in out


def test_oracle_refuses_oversized_generators(capsys):
    code, _, err = run(capsys, "oracle", "check", CYC)
    assert code == 3
    assert "budget refused" in err and "8589934592" in err


# --------------------------------------------------------------------------
# budgets, errors, JSON

def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("MIXEDCODE_BUDGET", "100")
    code, _, err = run(capsys, "additive", "enumerate", REF)
    assert code == 3
    assert "budget refused" in err


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("MIXEDCODE_BUDGET", "100")
    code, out, _ = run(capsys, "additive", "enumerate", REF, "--max-codewords", "2000")
    assert code == 0
    assert len(out.splitlines()) == 1024


def test_bad_budget_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("MIXEDCODE_BUDGET", "plenty")
    code, _, err = run(capsys, "additive", "enumerate", REF)
    assert code == 2
    assert "must be an integer" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("2 3 4\n9 9 | 0 0 0 | 0 0 0 0\n")
    code, _, err = run(capsys, "additive", "standard-form", str(bad))
    assert code == 2
    assert "error: line 2" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "additive", "standard-form", str(tmp_path / "missing.mtx"))
    assert code == 2
    assert "error:" in err


JSON_INVOCATIONS = (
    ("additive", "standard-form", REF),
    ("additive", "dual", REF),
    ("additive", "enumerate", REF),
    ("additive", "gray", REF),
    ("additive", "mindist", REF),
    ("additive", "verify-dual", REF, REF),
    ("cyclic", "validate", CYC),
    ("cyclic", "matrix", CYC),
    ("cyclic", "size", CYC),
    ("cyclic", "closure", CYC),
    ("oracle", "check", REF),
)


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_json_output_round_trips_byte_identically(capsys, argv):
    _, out, _ = run(capsys, *argv, "--json")
    assert out
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_json_out_file_round_trips(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "cyclic", "size", CYC, "--json", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    payload = json.loads(text)
    assert payload == {"log2": 33, "size": 8589934592}
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
