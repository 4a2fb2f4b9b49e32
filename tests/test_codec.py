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
