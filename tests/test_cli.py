import io
import json
import contextlib
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
    assert go(["synthesize", "x1", "--target", "0,2"])[0] == 2
    assert go([])[0] == 2


def test_lax_exponents_are_usage_errors():
    # int() would read these as x0, x0^3 and x0^10
    for word in ("x0^", "x0^\u0663", "x0^1_0"):
        rc, out, err = go(["parse", word])
        assert (rc, out) == (2, "")
        assert "bad exponent" in err
    assert go(["parse", "x0^+2 x0^-1"]) == go(["parse", "x0"])


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
