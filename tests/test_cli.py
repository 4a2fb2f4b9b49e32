import io
import json
import contextlib
import hashlib
import random
from dataclasses import replace

import pytest

from thompsonf import (
    X0, X1, certify_normal_generation, compose, evaluate, invert, parse_dyadic,
    parse_element, synthesis,
)
from thompsonf.cli import corpus_entries, resolve_element, run


def go(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(list(argv))
        except SystemExit as exc:  # argparse raises on usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_resolve_builtins_and_words():
    assert resolve_element("x0") == X0
    assert resolve_element("x1") == X1
    assert resolve_element("x0 x1^-1") == compose(X0, invert(X1))
    assert resolve_element("x0^2 x0^-1") == X0
    assert resolve_element("id").is_identity()


def test_resolve_file(tmp_path):
    p = tmp_path / "f.elt"
    p.write_text("00 -> 0\n01 -> 10\n1 -> 11\n")
    assert resolve_element(str(p)) == X0


def test_eval_matches_documented_example():
    rc, out, _ = go(["eval", "x0", "1/4"])
    assert rc == 0
    assert out == "1/2\n"


def test_eval_prints_a_point_past_the_int_to_str_limit():
    rc, out, _ = go(["eval", "x0", "1/2^20000"])
    assert rc == 0
    assert out == "." + "0" * 19998 + "1\n"
    assert go(["eval", "x0", "3/8"]) == (0, "5/8\n", "")


def test_eval_json_writes_a_num_past_the_int_to_str_limit_in_binary():
    point = "." + "".join(random.Random(0).choice("01") for _ in range(20000)) + "1"
    rc, out, _ = go(["eval", "--json", "x0", point])
    assert rc == 0
    value = evaluate(X0, parse_dyadic(point))
    assert json.loads(out) == {
        "num": format(value.num, "b"), "exp": value.exp, "value": str(value)
    }
    assert go(["eval", "--json", "x0", "3/8"]) == (
        0, '{"num": 5, "exp": 3, "value": "5/8"}\n', ""
    )


def test_abelianize_matches_documented_example():
    rc, out, _ = go(["abelianize", "x1"])
    assert rc == 0
    assert out == "(0,-1)\n"


def test_parse_normalizes(tmp_path):
    p = tmp_path / "f.elt"
    p.write_text("000 -> 00\n001 -> 01\n01 -> 10\n1 -> 11\n")
    rc, out, _ = go(["parse", str(p)])
    assert rc == 0
    assert out == "00 -> 0\n01 -> 10\n1 -> 11\n"


def test_parse_skips_a_byte_order_mark(tmp_path):
    """A table saved with a UTF-8 byte-order mark, CRLF lines, a comment and a
    blank line reads as the table itself."""
    p = tmp_path / "f.elt"
    p.write_bytes(b"\xef\xbb\xbf# x0\r\n00 -> 0\r\n\r\n01 -> 10\r\n1 -> 11\r\n")
    assert go(["parse", str(p)]) == (0, "00 -> 0\n01 -> 10\n1 -> 11\n", "")
    p.write_bytes(b"\xef\xbb\xbf00 -> 2\n01 -> 10\n1 -> 11 -> 0\n")
    assert go(["parse", str(p)]) == (2, "", "error: not a binary word: '2'\n")


def test_compose_invert_flip_round_trip():
    rc, out, _ = go(["compose", "x0", "x1"])
    assert rc == 0
    element = parse_element(out)
    rc, out2, _ = go(["invert", "x0 x1"])
    assert parse_element(out2) == invert(element)
    rc, out3, _ = go(["flip", "x0"])
    assert parse_element(out3) == invert(X0)


def test_compose_matches_parse_of_the_joined_word():
    rc, out, _ = go(["compose", "x0", "x1^-1", "x0^2", "x1"])
    assert rc == 0
    assert out == go(["parse", "x0 x1^-1 x0^2 x1"])[1]


def test_slopes_and_uvw_json():
    rc, out, _ = go(["slopes", "x1", ".11", "--json"])
    assert rc == 0
    # x1 is affine with slope 1 left of 3/4 and halves [3/4, 1] into [7/8, 1]
    assert json.loads(out) == {"left_log2": 0, "right_log2": -1}
    rc, out, _ = go(["uvw", "x0", "--json"])
    assert json.loads(out) == {"h": "f", "u": "0001", "v": "001", "w": "01"}


@pytest.mark.parametrize("word", ["x0", "x1", "x0^-1", "x0 x1^-1 x0^2", "x1^3 x0^-2", "id"])
def test_slopes_at_the_endpoints_are_the_abelianization(word):
    """At t = 0 only the right slope exists and at t = 1 only the left one;
    their log2 are the coordinates `abelianize` prints."""
    image = json.loads(go(["abelianize", word, "--json"])[1])
    assert go(["slopes", word, "0"]) == (0, f"right 2^{image['at_zero']}\n", "")
    assert go(["slopes", word, "1"]) == (0, f"left 2^{image['at_one']}\n", "")
    rc, out, _ = go(["slopes", word, "0", "--json"])
    assert (rc, json.loads(out)) == (0, {"left_log2": None, "right_log2": image["at_zero"]})
    rc, out, _ = go(["slopes", word, "1", "--json"])
    assert (rc, json.loads(out)) == (0, {"left_log2": image["at_one"], "right_log2": None})


def test_slopes_of_x0_at_the_endpoints():
    assert go(["slopes", "x0", "0"]) == (0, "right 2^1\n", "")
    assert go(["slopes", "x0", "1", "--json"]) == (0, '{"left_log2": -1, "right_log2": null}\n', "")

def test_lattice_command():
    rc, out, _ = go(["lattice", "6", "4"])
    assert rc == 0
    assert "p=2 q=1 index=2" in out
    rc, out, _ = go(["lattice", "2", "0", "0", "3"])
    assert "index: 6" in out
    rc, out, _ = go(["lattice", "-3", "-5", "--json"])
    doc = json.loads(out)
    assert doc["p"] * doc["q"] == 1


def test_synthesize_writes_partner_and_certificate(tmp_path):
    gfile = tmp_path / "g.elt"
    cfile = tmp_path / "cert.json"
    rc, out, _ = go([
        "synthesize", "x0", "--target", "1,1",
        "--out", str(gfile), "--cert", str(cfile),
    ])
    assert rc == 0
    assert "PASS" in out
    g = parse_element(gfile.read_text())
    assert g.pairs[0] == ("0000", "000")
    rc, out, _ = go(["certify", str(cfile)])
    assert rc == 0
    assert out == "PASS\n"


def test_certify_depth_flag(tmp_path):
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    rc, out, _ = go(["certify", str(cfile), "--depth", "40"])
    assert rc == 0
    rc, out, _ = go(["certify", str(cfile), "--depth", "2"])
    assert rc == 1
    assert out.startswith("FAIL invalid-certificate")


def test_certify_reports_unknown_symbol_as_fail(tmp_path):
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    doc = json.loads(cfile.read_text())
    doc["witnesses"][0]["word"] = "h " + doc["witnesses"][0]["word"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL invalid-certificate")


def test_certify_reports_missing_field_as_fail(tmp_path):
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    doc = json.loads(cfile.read_text())
    del doc["f"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL invalid-certificate")
    assert err == ""


@pytest.mark.parametrize(
    "value", ["9" * 5000, "[" * 100_000 + "]" * 100_000], ids=["huge-integer", "deep-nesting"]
)
def test_certify_reports_unreadable_json_as_fail(tmp_path, value):
    """An integer past the interpreter's digit limit, or nesting past its
    recursion limit, is a malformed certificate like any other."""
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    doc = json.loads(cfile.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, w="@")).replace('"@"', value))
    rc, out, err = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL invalid-certificate")
    assert err == ""


def test_certify_reads_bytes_so_undecodable_files_fail(tmp_path):
    """A file that is not UTF-8 is bad JSON; json.loads also reads UTF-16/32."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{")
    rc, out, err = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL invalid-certificate: bad JSON: ")
    assert err == ""
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    wide = tmp_path / "utf16.json"
    wide.write_bytes(cfile.read_text().encode("utf-16"))
    assert go(["certify", str(wide)]) == (0, "PASS\n", "")
    rc, out, err = go(["certify", str(tmp_path / "missing.json")])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_certify_rejects_tampered_file(tmp_path):
    cfile = tmp_path / "cert.json"
    go(["synthesize", "x0", "--target=1,1", "--cert", str(cfile)])
    doc = json.loads(cfile.read_text())
    doc["witnesses"] = doc["witnesses"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL condition-")
    # caret imbalance is a format error, reported before any checking
    doc = json.loads(cfile.read_text())
    doc["g"]["range"] = doc["g"]["range"][:-1]
    bad.write_text(json.dumps(doc))
    rc, out, _ = go(["certify", str(bad)])
    assert rc == 1
    assert out.startswith("FAIL invalid-element")


def test_negative_targets_parse():
    rc, out, _ = go(["synthesize", "x0", "--target", "-2,3", "--json"])
    assert rc == 0
    assert json.loads(out)["target"] == [-2, 3]


def test_long_branch_element_synthesizes():
    # two branch pairs, but ~600-letter branches: no recursion per letter
    rc, out, err = go(["synthesize", "x0^600", "--target", "1,1"])
    assert rc == 0, err
    assert "PASS" in out


def test_complete_pair_and_finite_index():
    rc, out, _ = go(["complete-pair", "x0"])
    assert rc == 0
    assert "joint image index: 1" in out
    rc, out, _ = go(["finite-index", "x0 x0"])
    assert rc == 0
    assert "joint image index: 2" in out


def test_export_dot():
    rc, out, _ = go(["export", "x0", "--dot"])
    assert rc == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert "style=dashed" in out


def test_corpus_is_deterministic():
    rc1, out1, _ = go(["corpus", "--seed", "3", "--count", "6"])
    rc2, out2, _ = go(["corpus", "--seed", "3", "--count", "6"])
    rc3, out3, _ = go(["corpus", "--seed", "4", "--count", "6"])
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3
    assert "passed 6/6" in out1


def test_corpus_entries_reuse():
    entries = corpus_entries(5, 4)
    assert len(entries) == 4
    for word, f, target, result in entries:
        assert certify_normal_generation(result.certificate).ok
        assert tuple(result.target) == target


def test_usage_errors_exit_2():
    assert go(["eval", "x0"])[0] == 2
    assert go(["nonsense"])[0] == 2
    assert go(["eval", "x0", "1/3"])[0] == 2
    assert go(["eval", "x0", "."])[:2] == (2, "")  # a point needs a bit after its '.'
    assert go(["synthesize", "x1", "--target", "0,2"])[0] == 2
    assert go([])[0] == 2


def test_lax_exponents_are_usage_errors():
    # int() would read these as x0, x0^3 and x0^10
    for word in ("x0^", "x0^\u0663", "x0^1_0"):
        rc, out, err = go(["parse", word])
        assert (rc, out) == (2, "")
        assert "bad exponent" in err
    assert go(["parse", "x0^+2 x0^-1"]) == go(["parse", "x0"])


LAX_INTEGERS = [
    ["synthesize", "x0", "--target", "1_0, \u0661"],
    ["synthesize", "x0", "--target", "1_0,1"],
    ["synthesize", "x0", "--target", " 1,1"],
    ["lattice", "1_0", "\u0663"],
    ["lattice", "1_0", "3"],
    ["lattice", "2", "0", "0", " 3"],
    ["eval", "x0", "\u0661/2^1"],
    ["eval", "x0", "\u0661/2"],
    ["eval", "x0", " 1_1/2^0_4 "],
    ["eval", "x0", "1/ 4"],
    ["certify", "{cert}", "--depth", "\u0665"],
    ["corpus", "--seed", "\u0669"],
    ["corpus", "--count", "1_0"],
]


@pytest.mark.parametrize(
    "argv", LAX_INTEGERS, ids=[" ".join(map(repr, argv)) for argv in LAX_INTEGERS]
)
def test_lax_integers_are_usage_errors(cli_files, argv):
    # int() would read each of these: (10, 1), (10, 3), 3/4, 27/32, depth 5, seed 9
    assert go([arg.format(**cli_files) for arg in argv])[:2] == (2, "")


def test_negative_corpus_count_is_a_usage_error():
    assert go(["corpus", "--count", "-3"]) == (2, "", "error: --count must be at least 0, got -3\n")
    assert go(["corpus", "--count", "-1"])[:2] == (2, "")
    assert go(["corpus", "--count", "0"])[:2] == (0, "passed 0/0\nparts: \n")


def test_points_may_have_whitespace_around_them_only():
    assert go(["eval", "x0", " 1/4 "]) == go(["eval", "x0", "1/4"]) == (0, "1/2\n", "")
    assert go(["eval", "x0", "+1/2^2"])[:2] == (0, "1/2\n")


def test_unknown_symbol_error_names_the_symbol():
    assert go(["parse", "x2"]) == (2, "", "error: unknown symbol 'x2'\n")


def test_malformed_target_error_names_the_format():
    assert go(["synthesize", "x0", "--target", "1"]) == (
        2, "", "error: --target takes c,d (two integers), got '1'\n"
    )


def test_lattice_with_three_integers_is_a_usage_error():
    assert go(["lattice", "1", "2", "3"]) == (2, "", "error: lattice takes two or four integers\n")

def test_internal_errors_exit_3(monkeypatch):
    # a pruner that drops every witness makes synthesis refuse its own output
    monkeypatch.setattr(synthesis, "_prune_witnesses", lambda cert: replace(cert, witnesses=()))
    rc, out, err = go(["synthesize", "x0", "--target", "1,1"])
    assert rc == 3
    assert err.startswith("internal error: pruned certificate rejected")
    assert "Traceback" not in err
    assert out == ""


def test_error_messages_on_stderr():
    rc, out, err = go(["eval", "x0", "1/3"])
    assert "denominator" in err
    assert out == ""


# --- pinned output -----------------------------------------------------------

# (argv, exact stdout, exit status) for every subcommand, in text and --json
# mode where it has one. Placeholders in argv name files made by `cli_files`:
# {cert} passes, {cond} fails condition 1, {bad} fails to decode, {elt}
# is an unreduced table of x0 and {out} is an output path.
GOLDEN_OUTPUT = [
    (['parse', 'x0 x1^-1'], '00 -> 0\n01 -> 100\n10 -> 101\n11 -> 11\n', 0),
    (['parse', '{elt}'], '00 -> 0\n01 -> 10\n1 -> 11\n', 0),
    (['parse', 'x0', '--out', '{out}'], '', 0),
    (['parse', 'x2'], '', 2),
    (['compose', 'x0', 'x1'], '00 -> 0\n010 -> 10\n011 -> 110\n1 -> 111\n', 0),
    (['compose', 'x0', 'x1^-1', '--out', '{out}'], '', 0),
    (['invert', 'x0 x1'], '0 -> 00\n10 -> 010\n110 -> 011\n111 -> 1\n', 0),
    (['invert', 'x1', '--out', '{out}'], '', 0),
    (['flip', 'x0'], '0 -> 00\n10 -> 01\n11 -> 1\n', 0),
    (['flip', 'x1', '--out', '{out}'], '', 0),
    (['eval', 'x0', '1/4'], '1/2\n', 0),
    (['eval', 'x0', '1/4', '--json'], '{"num": 1, "exp": 1, "value": "1/2"}\n', 0),
    (['eval', 'x1', '.111'], '15/16\n', 0),
    (['eval', 'x1', '.111', '--json'], '{"num": 15, "exp": 4, "value": "15/16"}\n', 0),
    (['eval', 'x0', '1/3'], '', 2),
    (['slopes', 'x1', '.11'], 'left 2^0\nright 2^-1\n', 0),
    (['slopes', 'x1', '.11', '--json'], '{"left_log2": 0, "right_log2": -1}\n', 0),
    (['slopes', 'x0', '1/2'], 'left 2^0\nright 2^-1\n', 0),
    (['slopes', 'x0', '1/2', '--json'], '{"left_log2": 0, "right_log2": -1}\n', 0),
    (['abelianize', 'x1'], '(0,-1)\n', 0),
    (['abelianize', 'x1', '--json'], '{"at_zero": 0, "at_one": -1}\n', 0),
    (['abelianize', 'x0 x1^-1 x0^2'], '(3,-2)\n', 0),
    (['abelianize', 'x0 x1^-1 x0^2', '--json'], '{"at_zero": 3, "at_one": -2}\n', 0),
    (['uvw', 'x0'], 'h: f\nu: 0001\nv: 001\nw: 01\n', 0),
    (['uvw', 'x0', '--json'], '{"h": "f", "u": "0001", "v": "001", "w": "01"}\n', 0),
    (['uvw', 'x0^-1 x1'], 'h: f^-1\nu: 0001\nv: 001\nw: 01\n', 0),
    (['uvw', 'x0^-1 x1', '--json'], '{"h": "f^-1", "u": "0001", "v": "001", "w": "01"}\n', 0),
    (['uvw', 'id'], '', 2),
    (['lattice', '6', '4'], 'companion: (4,3)\nrectangular: p=2 q=1 index=2\n', 0),
    (['lattice', '6', '4', '--json'],
     '{"companion": [4, 3], "p": 2, "q": 1, "index": 2, "unimodular": null}\n', 0),
    (['lattice', '3', '5'],
     'companion: (1,2)\nrectangular: p=1 q=1 index=1\nunimodular companion: (1,2)\n', 0),
    (['lattice', '3', '5', '--json'],
     '{"companion": [1, 2], "p": 1, "q": 1, "index": 1, "unimodular": [1, 2]}\n', 0),
    (['lattice', '-3', '-5', '--json'],
     '{"companion": [2, 3], "p": 1, "q": 1, "index": 1, "unimodular": [-1, -2]}\n', 0),
    (['lattice', '2', '0', '0', '3'], 'index: 6\n', 0),
    (['lattice', '2', '0', '0', '3', '--json'], '{"basis": [[2, 0], [0, 3]], "index": 6}\n', 0),
    (['lattice', '1', '2', '2', '4'], 'index: infinite\n', 0),
    (['lattice', '1', '2', '2', '4', '--json'], '{"basis": [[1, 2], [2, 4]], "index": null}\n', 0),
    (['synthesize', 'x0', '--target', '1,1'],
     'part: 1\ntarget: (1,1)\njoint image index: 2\nwitnesses: 11\nPASS\n', 0),
    (['synthesize', 'x0', '--target', '1,1', '--json'],
     ('{"part": 1, "target": [1, 1], "image_of_f": [1, -1], "index": 2, "witnesses": 11, '
      '"verdict": "PASS"}\n'), 0),
    (['synthesize', 'x0', '--target', '-2,3', '--json'],
     ('{"part": 1, "target": [-2, 3], "image_of_f": [1, -1], "index": 1, "witnesses": 14, '
      '"verdict": "PASS"}\n'), 0),
    (['synthesize', 'x0', '--target', '0,0'],
     'part: 4\ntarget: (0,0)\njoint image index: infinite\nwitnesses: 3\nPASS\n', 0),
    (['synthesize', 'x1', '--target', '0,2'], '', 2),
    (['synthesize', 'x0', '--target', '1'], '', 2),
    (['synthesize', 'x0', '--target', '1,1', '--out', '{out}', '--json'],
     ('{"part": 1, "target": [1, 1], "image_of_f": [1, -1], "index": 2, "witnesses": 11, '
      '"verdict": "PASS"}\n'), 0),
    (['complete-pair', 'x0'],
     'part: 2\ntarget: (1,0)\njoint image index: 1\nwitnesses: 7\nPASS\n', 0),
    (['complete-pair', 'x0', '--json'],
     ('{"part": 2, "target": [1, 0], "image_of_f": [1, -1], "index": 1, "witnesses": 7, '
      '"verdict": "PASS"}\n'), 0),
    (['finite-index', 'x0 x0'],
     'part: 3\ntarget: (0,1)\njoint image index: 2\nwitnesses: 8\nPASS\n', 0),
    (['finite-index', 'x0 x0', '--json'],
     ('{"part": 3, "target": [0, 1], "image_of_f": [2, -2], "index": 2, "witnesses": 8, '
      '"verdict": "PASS"}\n'), 0),
    (['finite-index', 'x1^-1', '--out', '{out}'],
     'part: 2\ntarget: (1,0)\njoint image index: 1\nwitnesses: 8\nPASS\n', 0),
    (['certify', '{cert}'], 'PASS\n', 0),
    (['certify', '{cert}', '--json'], '{"verdict": "PASS", "detail": ""}\n', 0),
    (['certify', '{cert}', '--depth', '40'], 'PASS\n', 0),
    (['certify', '{cert}', '--depth', '2'],
     'FAIL invalid-certificate: closure bound 2 is below the longest seed word (6)\n', 1),
    (['certify', '{cert}', '--depth', '2', '--json'],
     ('{"verdict": "invalid-certificate", '
      '"detail": "closure bound 2 is below the longest seed word (6)"}\n'), 1),
    (['certify', '{cond}'], 'FAIL condition-1: 01 ~ 010 unproved at closure bound 11\n', 1),
    (['certify', '{cond}', '--json'],
     '{"verdict": "condition-1", "detail": "01 ~ 010 unproved at closure bound 11"}\n', 1),
    (['certify', '{bad}'], "FAIL invalid-certificate: missing field 'f'\n", 1),
    (['certify', '{bad}', '--json'],
     '{"verdict": "invalid-certificate", "detail": "missing field \'f\'"}\n', 1),
    (['export', 'x0', '--dot'],
     ('digraph tree_pair {\n  rankdir=TB;\n  "Droot" [shape=point];\n  "D0" [shape=point];\n'
      '  "D00" [shape=box label="00"];\n  "D01" [shape=box label="01"];\n'
      '  "D1" [shape=box label="1"];\n  "Droot" -> "D0" [label="0"];\n'
      '  "D0" -> "D00" [label="0"];\n  "D0" -> "D01" [label="1"];\n'
      '  "Droot" -> "D1" [label="1"];\n  "Rroot" [shape=point];\n'
      '  "R0" [shape=box label="0"];\n  "R1" [shape=point];\n'
      '  "R10" [shape=box label="10"];\n  "R11" [shape=box label="11"];\n'
      '  "Rroot" -> "R0" [label="0"];\n  "Rroot" -> "R1" [label="1"];\n'
      '  "R1" -> "R10" [label="0"];\n  "R1" -> "R11" [label="1"];\n'
      '  "D00" -> "R0" [style=dashed constraint=false];\n'
      '  "D01" -> "R10" [style=dashed constraint=false];\n'
      '  "D1" -> "R11" [style=dashed constraint=false];\n}\n'), 0),
    (['export', 'x1'],
     ('digraph tree_pair {\n  rankdir=TB;\n  "Droot" [shape=point];\n'
      '  "D0" [shape=box label="0"];\n  "D1" [shape=point];\n  "D10" [shape=point];\n'
      '  "D100" [shape=box label="100"];\n  "D101" [shape=box label="101"];\n'
      '  "D11" [shape=box label="11"];\n  "Droot" -> "D0" [label="0"];\n'
      '  "Droot" -> "D1" [label="1"];\n  "D1" -> "D10" [label="0"];\n'
      '  "D10" -> "D100" [label="0"];\n  "D10" -> "D101" [label="1"];\n'
      '  "D1" -> "D11" [label="1"];\n  "Rroot" [shape=point];\n'
      '  "R0" [shape=box label="0"];\n  "R1" [shape=point];\n'
      '  "R10" [shape=box label="10"];\n  "R11" [shape=point];\n'
      '  "R110" [shape=box label="110"];\n  "R111" [shape=box label="111"];\n'
      '  "Rroot" -> "R0" [label="0"];\n  "Rroot" -> "R1" [label="1"];\n'
      '  "R1" -> "R10" [label="0"];\n  "R1" -> "R11" [label="1"];\n'
      '  "R11" -> "R110" [label="0"];\n  "R11" -> "R111" [label="1"];\n'
      '  "D0" -> "R0" [style=dashed constraint=false];\n'
      '  "D100" -> "R10" [style=dashed constraint=false];\n'
      '  "D101" -> "R110" [style=dashed constraint=false];\n'
      '  "D11" -> "R111" [style=dashed constraint=false];\n}\n'), 0),
    (['export', 'x0', '--out', '{out}'], '', 0),
    (['corpus', '--seed', '3', '--count', '4'],
     ('case 01 part=1 target=(-2,3) witnesses=16 PASS f: x0^-1 x1 x0^-1 x1\n'
      'case 02 part=3 target=(0,1) witnesses=8 PASS f: x1^-1 x0 x0^-1 x0 x0 x1 x1^-1 x1^-1\n'
      'case 03 part=1 target=(-1,-3) witnesses=16 PASS '
      'f: x1 x1 x0 x1 x1^-1 x1^-1 x1^-1 x1 x1 x1 x1 x0^-1\n'
      'case 04 part=2 target=(-3,0) witnesses=10 PASS f: x1^-1 x0^-1\npassed 4/4\n'
      'parts: 1x2 2x1 3x1\n'), 0),
    (['corpus', '--seed', '3', '--count', '4', '--json'],
     ('{"seed": 3, "cases": [{"case": 1, "f": "x0^-1 x1 x0^-1 x1", "target": [-2, 3], '
      '"part": 1, "witnesses": 16, "verdict": "PASS"}, {"case": 2, '
      '"f": "x1^-1 x0 x0^-1 x0 x0 x1 x1^-1 x1^-1", "target": [0, 1], "part": 3, '
      '"witnesses": 8, "verdict": "PASS"}, {"case": 3, '
      '"f": "x1 x1 x0 x1 x1^-1 x1^-1 x1^-1 x1 x1 x1 x1 x0^-1", "target": [-1, -3], '
      '"part": 1, "witnesses": 16, "verdict": "PASS"}, {"case": 4, "f": "x1^-1 x0^-1", '
      '"target": [-3, 0], "part": 2, "witnesses": 10, "verdict": "PASS"}], "failures": 0}\n'), 0),
    ([], '', 2),
    (['nonsense'], '', 2),
    (['eval', 'x0'], '', 2),
]


# (argv, sha256 of the file written to {out}) for --out tables and --cert
# certificates.
GOLDEN_FILES = [
    (['parse', 'x0 x1^-1', '--out', '{out}'],
     '02630cb3aea3df7b79215ee83ebbeda1876998629915daeedd962078a33f3708'),
    (['compose', 'x0', 'x1^-1', '--out', '{out}'],
     '02630cb3aea3df7b79215ee83ebbeda1876998629915daeedd962078a33f3708'),
    (['invert', 'x0 x1', '--out', '{out}'],
     '5a83beaf46591c10b1a32799ce225aade8025420982debc883c4287b73fdcde6'),
    (['flip', 'x1', '--out', '{out}'],
     '14390e032776823d78ac32b7630c7a8d2f354bec1ccb1935443399790f35d58e'),
    (['export', 'x1', '--dot', '--out', '{out}'],
     '8f625699f3619e914af8484c9f47290557496009b1e32be737de8c921da005ca'),
    (['synthesize', 'x0', '--target', '1,1', '--out', '{out}'],
     '1e5c0be1abce8b4c629d32173ce78d76196c20e01ce97f7b659a95a91eb41b45'),
    (['synthesize', 'x0', '--target', '1,1', '--cert', '{out}'],
     '6c30382cf8a517280133f620466033c822fd1fa81721efe2869d76e2ce7351d4'),
    (['synthesize', 'x0', '--target', '-2,3', '--cert', '{out}'],
     '0930f2911aacb93a1a0db7bc29576a04e05d2e2e9c4e3c2806207cc6361339e4'),
    (['synthesize', 'x0^-1', '--target', '0,3', '--cert', '{out}'],
     '146033e94fd722895afd8a34bc04f67882d5957011ee295b4545713ef1529983'),
    (['synthesize', 'x0', '--target', '0,0', '--cert', '{out}'],
     '356a335440f34297135b88923925ed15902610043cce0d06d25ffaf904c92d1a'),
    (['complete-pair', 'x0', '--out', '{out}'],
     'bb1f01338ae245a8c63fe9edc5d9c90a615a34f3a0ab803c1abaa5019f20f2a4'),
    (['complete-pair', 'x0', '--cert', '{out}'],
     'daf0f08dd753f19f712ed6f01ecabad072cd614034cc80084ee6ea7b9a938929'),
    (['finite-index', 'x0 x0', '--out', '{out}'],
     '82b4dbe322a4523fceedaad89ebceee9f4274d19c9e2a798556e399d0c65280d'),
    (['finite-index', 'x0 x0', '--cert', '{out}'],
     '70635aab82f826c8fad0f03accd6fb7825b02be17ce2b9cb298531b6af062140'),
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    files = {name: str(tmp / name) for name in ("elt", "out", "cert", "cond", "bad")}
    (tmp / "elt").write_text("000 -> 00\n001 -> 01\n01 -> 10\n1 -> 11\n")
    go(["synthesize", "x0", "--target=1,1", "--cert", files["cert"]])
    doc = json.loads((tmp / "cert").read_text())
    (tmp / "cond").write_text(json.dumps(dict(doc, witnesses=doc["witnesses"][1:])))
    del doc["f"]
    (tmp / "bad").write_text(json.dumps(doc))
    return files


@pytest.mark.parametrize(
    "argv, stdout, status", GOLDEN_OUTPUT, ids=[" ".join(row[0]) or "-" for row in GOLDEN_OUTPUT]
)
def test_pinned_output(cli_files, argv, stdout, status):
    rc, out, _ = go([arg.format(**cli_files) for arg in argv])
    assert (out, rc) == (stdout, status)


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_FILES, ids=[" ".join(row[0]) for row in GOLDEN_FILES]
)
def test_pinned_files(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert go([arg.format(out=out) for arg in argv])[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
