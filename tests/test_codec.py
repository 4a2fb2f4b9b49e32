"""The certificate codec against the stdlib and the reference scans.

`certificate_to_json` writes the certificate format's fixed layout itself;
its text must be what `json.dumps(obj, indent=2) + "\\n"` gives for the
object it parses to, for every certificate, whatever its strings hold, and
`certificate_from_json`, which reads every field by name and shares no code
with the writer, must give the certificate back. The decoder's batch paths
must decode, or refuse, exactly as the one-item-at-a-time reads they stand
in for.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from thompsonf import X0, format_group_word, power, synthesize
from thompsonf import certify as certify_module
from thompsonf.certify import (
    CertificateFormatError,
    SlopeWitness,
    Witness,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    certify_normal_generation,
)
from thompsonf.cli import corpus_entries
from thompsonf.element import InvalidCode, from_branch_pairs
from thompsonf.words import (
    _are_complete_codes,
    is_complete_prefix_code,
    word_from_text,
    words_from_texts,
)

from oracles import reference_is_complete_prefix_code


def _stdlib(text: str) -> str:
    """`text` re-dumped by the stdlib in the certificate format's layout."""
    return json.dumps(json.loads(text), indent=2) + "\n"


def _certificates():
    for i, (_, _, target, result) in enumerate(corpus_entries(0, 50)):
        yield f"corpus-0-{i}-{target}", result.certificate
    for k in (1, 6, 12, 24, 48):
        for c in (k, -k):
            yield f"x0-({c},{k})", synthesize(X0, c, k).certificate
    part3, part4 = synthesize(X0, 0, 1), synthesize(X0, 0, 0)
    assert (part3.part, part4.part) == (3, 4)
    yield "part-3", part3.certificate
    yield "part-4", part4.certificate
    yield "x0^300-(1,1)", synthesize(power(X0, 300), 1, 1).certificate
    good = synthesize(X0, 1, 1).certificate
    yield "no-witnesses", replace(good, witnesses=())


CERTIFICATES = dict(_certificates())


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_writer_matches_stdlib_and_round_trips(name):
    cert = CERTIFICATES[name]
    text = certificate_to_json(cert)
    assert text == _stdlib(text)
    again = certificate_from_json(text)
    assert again == cert
    assert certificate_to_json(again) == text


# names full of what JSON must escape: quotes, backslashes, control
# characters, and non-ASCII text (ensure_ascii writes it as \u escapes)
_NASTY = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f fg^é€😀'), st.characters()),
    min_size=1,
    max_size=8,
)
_GROUP_WORDS = st.lists(
    st.tuples(_NASTY, st.integers(-(10**20), 10**20).filter(bool)), min_size=1, max_size=4
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_GROUP_WORDS, max_size=4), slope=_GROUP_WORDS, tail=_NASTY)
def test_writer_escapes_like_stdlib(words, slope, tail):
    good = CERTIFICATES["x0-(1,1)"]
    cert = replace(
        good,
        witnesses=tuple(Witness(word, "0", "1") for word in words),
        slope=SlopeWitness(slope, good.slope.alpha),
        left_schema=replace(good.left_schema, tail=tail),
    )
    text = certificate_to_json(cert)
    assert text == _stdlib(text)
    doc = json.loads(text)
    assert doc["slope"]["word"] == format_group_word(slope)
    assert [w["word"] for w in doc["witnesses"]] == list(map(format_group_word, words))
    assert doc["left_schema"]["tail"] == tail
    # the names are no certificate's symbols, so decoding refuses them
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(text)
    assert err.value.code == "invalid-certificate"


# --- decoder totality ------------------------------------------------------------


def test_oversized_integer_is_invalid_certificate():
    doc = certificate_to_dict(CERTIFICATES["x0-(1,1)"])
    # w must be a string, so any integer there is refused, with or without
    # the interpreter's limit on integer digits
    text = json.dumps(dict(doc, w="@")).replace('"@"', "9" * 5000)
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(text)
    assert err.value.code == "invalid-certificate"


def test_deep_nesting_is_invalid_certificate():
    doc = certificate_to_dict(CERTIFICATES["x0-(1,1)"])
    text = json.dumps(dict(doc, tree="@")).replace('"@"', "[" * 100_000 + "]" * 100_000)
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(text)
    assert err.value.code == "invalid-certificate"


# --- every decode fault, pinned ----------------------------------------------------

# One corruption of the x0 (1, 1) certificate each: the value put at `path`
# (DELETE drops the key), or, where the path is None, the whole text. Each
# gives one exact code and detail, and the exception it was raised from.
DELETE = object()
DECODE_FAULTS = {
    "missing-top-level": (("w",), DELETE, "invalid-certificate", "missing field 'w'", None),
    "missing-in-slope": (
        ("slope", "alpha"), DELETE, "invalid-certificate", "slope: missing field 'alpha'", None,
    ),
    "missing-in-element": (
        ("g", "range"), DELETE, "invalid-certificate", "g: missing field 'range'", None,
    ),
    "missing-in-witness": (
        ("witnesses", 3, "rhs"), DELETE,
        "invalid-certificate", "witnesses[3]: missing field 'rhs'", None,
    ),
    "missing-in-schema": (
        ("left_schema", "stem"), DELETE,
        "invalid-certificate", "left_schema: missing field 'stem'", None,
    ),
    "missing-in-schema-witness": (
        ("right_schema", "witness", "word"), DELETE,
        "invalid-certificate", "right_schema.witness: missing field 'word'", None,
    ),
    "tree-not-array": (
        ("tree",), "0000", "invalid-certificate", "tree must be an array, got '0000'", "TypeError",
    ),
    "witnesses-not-array": (
        ("witnesses",), {}, "invalid-certificate", "witnesses must be an array, got {}", "TypeError",
    ),
    "domain-not-array": (
        ("f", "domain"), "00",
        "invalid-certificate", "f: domain must be an array, got '00'", "TypeError",
    ),
    "depth-bool": (
        ("depth",), True, "invalid-certificate", "depth must be an integer, got True", "TypeError",
    ),
    "depth-float": (
        ("depth",), 11.0, "invalid-certificate", "depth must be an integer, got 11.0", "TypeError",
    ),
    "depth-string": (
        ("depth",), "11", "invalid-certificate", "depth must be an integer, got '11'", "TypeError",
    ),
    "base-count-bool": (
        ("left_schema", "base_count"), False,
        "invalid-certificate", "left_schema: base_count must be an integer, got False", "TypeError",
    ),
    "base-count-float": (
        ("left_schema", "base_count"), 2.0,
        "invalid-certificate", "left_schema: base_count must be an integer, got 2.0", "TypeError",
    ),
    "base-count-string": (
        ("right_schema", "base_count"), "2",
        "invalid-certificate", "right_schema: base_count must be an integer, got '2'", "TypeError",
    ),
    "tree-word-not-binary": (
        ("tree", 0), "0x00", "invalid-certificate", "tree: not a binary word: '0x00'", "ValueError",
    ),
    "tree-word-not-string": (
        ("tree", 1), 1, "invalid-certificate", "tree: a word must be a string, got 1", "TypeError",
    ),
    "w-not-binary": (("w",), "2", "invalid-certificate", "w: not a binary word: '2'", "ValueError"),
    "witness-side-not-binary": (
        ("witnesses", 0, "lhs"), "0x",
        "invalid-certificate", "witnesses[0]: not a binary word: '0x'", "ValueError",
    ),
    "witness-side-not-string": (
        ("witnesses", 2, "rhs"), 1,
        "invalid-certificate", "witnesses[2]: a word must be a string, got 1", "TypeError",
    ),
    "schema-stem-not-binary": (
        ("left_schema", "stem"), "0 0",
        "invalid-certificate", "left_schema: not a binary word: '0 0'", "ValueError",
    ),
    "schema-stem-not-string": (
        ("right_schema", "stem"), None,
        "invalid-certificate", "right_schema: a word must be a string, got None", "TypeError",
    ),
    "element-code-not-binary": (
        ("g", "domain", 0), "2", "invalid-element", "g: not a binary word: '2'", "ValueError",
    ),
    "element-code-not-string": (
        ("f", "range", 1), 10, "invalid-certificate", "f: a word must be a string, got 10", "TypeError",
    ),
    "group-word-not-canonical": (
        ("left_schema", "witness", "word"), "f^1", "invalid-certificate",
        "left_schema.witness: group word 'f^1' is not canonical (expected 'f')", "ValueError",
    ),
    "group-word-unknown-symbol": (
        ("witnesses", 1, "word"), "h",
        "invalid-certificate", "witnesses[1]: unknown symbol 'h' in group word 'h'", "ValueError",
    ),
    "slope-word-not-string": (
        ("slope", "word"), 1,
        "invalid-certificate", "slope: group word must be a string, got 1", "TypeError",
    ),
    "tail-two": (
        ("right_schema", "tail"), "2",
        "invalid-certificate", "right_schema: tail must be '0' or '1', got '2'", "ValueError",
    ),
    "element-dropped-domain-word": (
        ("f", "domain"), ["00", "01"],
        "invalid-element", "f: domain has 2 branches, range has 3", "LengthMismatch",
    ),
    "element-incomplete-code": (
        ("g", "domain", 11), "110", "invalid-element",
        "g: domain is not a complete prefix code: ['0000', '0001', '0010', '0011', '010', "
        "'01100', '0110100', '0110101', '011011', '0111', '10', '110']",
        "InvalidCode",
    ),
    "witness-is-list": (
        ("witnesses", 4), ["g", "010", "0101"], "invalid-certificate",
        "witnesses[4]: list indices must be integers or slices, not str", "TypeError",
    ),
    "schema-not-object": (
        ("left_schema",), [], "invalid-certificate",
        "left_schema: list indices must be integers or slices, not str", "TypeError",
    ),
    "bad-json": (
        None, "{", "invalid-certificate",
        "bad JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        "JSONDecodeError",
    ),
    "not-an-object": (
        None, "[]", "invalid-certificate", "expected format tag 'thompsonf.certificate/1'", None,
    ),
    "wrong-format-tag": (
        ("format",), "thompsonf.certificate/2",
        "invalid-certificate", "expected format tag 'thompsonf.certificate/1'", None,
    ),
}


@pytest.mark.parametrize("name", list(DECODE_FAULTS))
def test_decode_fault_is_pinned(name):
    path, value, code, detail, cause = DECODE_FAULTS[name]
    if path is None:
        text = value
    else:
        doc = certificate_to_dict(CERTIFICATES["x0-(1,1)"])
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        text = json.dumps(doc)
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(text)
    assert (err.value.code, err.value.detail) == (code, detail)
    assert str(err.value) == f"{code}: {detail}"
    assert type(err.value.__cause__).__name__ == (cause or "NoneType")


# --- batch reads against their one-item references -------------------------------


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


_TEXTS = st.lists(
    st.one_of(
        st.text(alphabet="01", max_size=5),
        st.sampled_from(["e", "", "2", "0 1", "ee", "1e"]),
        st.integers(-3, 3),
        st.none(),
        st.lists(st.just("0"), max_size=2),
    ),
    max_size=6,
)


@settings(max_examples=500, deadline=None)
@given(texts=_TEXTS)
def test_words_from_texts_matches_word_by_word(texts):
    want = _outcome(lambda: [word_from_text(t) for t in texts])
    assert _outcome(words_from_texts, texts) == want


_WORD_TEXTS = st.sampled_from(["e", "0", "101", "", "2", "e0"]) | st.integers(0, 1) | st.none()
_GROUP_WORD_TEXTS = st.sampled_from(["g", "f^-1 g f", "g^-2", "f^1", "x", ""]) | st.integers(0, 1)
_WITNESS_OBJS = st.lists(
    st.one_of(
        st.fixed_dictionaries({"word": _GROUP_WORD_TEXTS, "lhs": _WORD_TEXTS, "rhs": _WORD_TEXTS}),
        st.dictionaries(st.sampled_from(["word", "lhs", "rhs"]), st.just("g")),
        st.lists(st.just("g"), max_size=1),
        st.none(),
    ),
    max_size=5,
)


@settings(max_examples=500, deadline=None)
@given(objs=_WITNESS_OBJS)
def test_witness_list_batch_matches_witness_by_witness(objs):
    """The batch read, which parses each distinct word text once, decodes or
    refuses a witness list exactly as the located witness-by-witness read."""
    want = _outcome(lambda: tuple(
        certify_module._witness_from_obj(o, f"witnesses[{i}]") for i, o in enumerate(objs)
    ))
    assert _outcome(certify_module._witnesses_from_objs, objs) == want


_CODE_WORDS = st.one_of(st.text(alphabet="01", max_size=4), st.sampled_from(["2", "0 ", "1_0"]))


@settings(max_examples=1000, deadline=None)
@given(branches=st.lists(_CODE_WORDS, max_size=7))
def test_prefix_code_check_matches_endpoint_scan(branches):
    assert is_complete_prefix_code(branches) == reference_is_complete_prefix_code(branches)


def test_prefix_code_check_on_every_small_list():
    words = [""] + [format(i, f"0{n}b") for n in range(1, 4) for i in range(1 << n)]
    lists = [[]]
    for _ in range(4):
        lists = [code + [w] for code in lists for w in words]
        for code in lists:
            assert is_complete_prefix_code(code) == reference_is_complete_prefix_code(code)


@settings(max_examples=1000, deadline=None)
@given(codes=st.lists(st.lists(_CODE_WORDS, max_size=6), min_size=1, max_size=3))
def test_joint_code_check_matches_one_scan_per_code(codes):
    want = all(reference_is_complete_prefix_code(code) for code in codes)
    assert _are_complete_codes(codes) == want


def test_joint_code_check_needs_each_sum_to_be_one():
    # each code is sorted and the lengths sum to 2 over both, but the first
    # holds a prefix (its sum is 3/2) and the second is incomplete (1/2)
    assert not _are_complete_codes((["0", "00", "01", "1"], ["0"]))
    assert not _are_complete_codes((["1", "0"], ["0", "1"]))
    assert _are_complete_codes((["0", "1"], [""], ["00", "01", "1"]))


def test_table_check_reports_the_domain_first():
    bad, good = ["0", "11"], ["0", "1"]
    for domain, rng, side in ((bad, bad, "domain"), (bad, good, "domain"), (good, bad, "range")):
        with pytest.raises(InvalidCode, match=f"^{side} is not a complete prefix code"):
            from_branch_pairs(zip(domain, rng))
    with pytest.raises(TypeError):
        from_branch_pairs([("0", "0"), ("1", 1)])


def test_checker_materializes_only_what_the_certificate_spells(monkeypatch):
    """The checker's engine holds w, w0, w1 and the inner branches, never the
    schema members: their number is the untrusted base_count."""
    cert = CERTIFICATES["x0-(24,24)"]
    cert = replace(cert, left_schema=replace(cert.left_schema, base_count=10**4))
    built = []
    real_init = certify_module.SuffixCongruence.__init__

    def recording_init(self, seeds, weighted=()):
        built.append(list(weighted))
        real_init(self, seeds, weighted)

    monkeypatch.setattr(certify_module.SuffixCongruence, "__init__", recording_init)
    certify_normal_generation(cert)
    w = cert.w
    assert built == [[w, w + "0", w + "1", *cert.tree[1:-1]]]
