import collections
import inspect
import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from thompsonf import (
    IDENTITY,
    X0,
    X1,
    compose,
    eval_word,
    flip,
    has_branch_pair,
    invert,
    power,
    synthesis,
    synthesize,
)
from thompsonf import certify as certify_module
from thompsonf.certify import (
    Certificate,
    CertificateFormatError,
    ShiftSchema,
    SlopeWitness,
    SuffixCongruence,
    Witness,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    certify_normal_generation,
    closure_seeds,
    verify_witness,
)

from oracles import brute_force_relations, enumerate_ball, relation, saturate


# --- relation and closure engines ----------------------------------------------


def test_relation_is_canonical():
    assert relation("10", "0") == ("0", "10")
    assert relation("0", "10") == ("0", "10")
    assert relation("1", "1") == ("1", "1")


def test_saturate_by_hand():
    rels = saturate({("0", "1")}, 2)
    # suffix rule extends within the bound; symmetry is implicit in ordering
    assert ("0", "1") in rels
    assert ("00", "10") in rels
    assert ("01", "11") in rels
    assert ("00", "01") not in rels


def test_saturate_transitivity():
    rels = saturate({("0", "10"), ("10", "11")}, 3)
    assert ("0", "11") in rels
    assert ("00", "110") in rels


def test_saturate_rejects_oversized_seed():
    with pytest.raises(ValueError):
        saturate({("0000", "1")}, 3)


def test_saturate_is_monotone_and_idempotent():
    seeds = {("0", "10"), ("01", "11")}
    small = saturate(seeds, 3)
    big = saturate(seeds, 4)
    assert {r for r in small} <= big
    assert saturate(small, 3) == small
    # independent of seed order
    assert saturate(set(reversed(sorted(seeds))), 3) == small


def test_congruence_basic_queries():
    cong = SuffixCongruence([("0", "1")])
    assert cong.same("0", "1")
    assert cong.same("0110", "1110")
    assert not cong.same("00", "01")
    assert cong.same("0", "0")


def test_congruence_folds_children():
    # merging two materialized subtrees must merge their children
    cong = SuffixCongruence([("00", "01"), ("000", "1")])
    assert cong.same("010", "1")
    assert cong.same("0100", "10")


def test_congruence_matches_saturate_on_random_seeds():
    rng = random.Random(11)
    words = [
        "".join(p) for n in range(1, 4) for p in itertools.product("01", repeat=n)
    ]
    for _ in range(80):
        seeds = set()
        while len(seeds) < rng.randrange(1, 5):
            u, v = rng.choice(words), rng.choice(words)
            if u != v:
                seeds.add(relation(u, v))
        L = max(max(len(p), len(q)) for p, q in seeds) + 2
        mat = {(u, v) for u, v in saturate(set(seeds), L) if u != v}
        cong = SuffixCongruence(sorted(seeds))
        all_words = [
            "".join(p) for n in range(1, L + 1) for p in itertools.product("01", repeat=n)
        ]
        got = {
            relation(u, v)
            for u, v in itertools.combinations(all_words, 2)
            if cong.same(u, v)
        }
        assert got == mat


# --- witnesses and full certificates -------------------------------------------


@pytest.fixture(scope="module")
def good() -> Certificate:
    return synthesize(X0, 1, 1).certificate


def test_certify_passes(good):
    verdict = certify_normal_generation(good)
    assert verdict.ok
    assert verdict.code == "PASS"
    assert str(verdict) == "PASS"


def test_witnesses_verify_individually(good):
    for wit in good.witnesses:
        assert verify_witness(good, wit)
    assert verify_witness(good, good.left_schema.witness)
    assert verify_witness(good, good.right_schema.witness)


def test_witness_words_only_use_the_pair(good):
    for wit in good.witnesses:
        for name, _ in wit.word:
            assert name in ("f", "g")


def test_deleting_any_witness_fails(good):
    for i in range(len(good.witnesses)):
        trimmed = replace(
            good, witnesses=good.witnesses[:i] + good.witnesses[i + 1:]
        )
        verdict = certify_normal_generation(trimmed)
        assert not verdict.ok
        assert verdict.code in (
            "condition-1",
            "condition-2",
            "condition-3",
            "condition-4",
        )


def test_wrong_witness_word_fails(good):
    bad_wit = replace(good.witnesses[0], word=(("g", 1), ("g", 1)))
    bad = replace(good, witnesses=(bad_wit,) + good.witnesses[1:])
    verdict = certify_normal_generation(bad)
    assert verdict.code == "witness-failed"


def test_zeroed_schema_shift_fails(good):
    for field in ("left_schema", "right_schema"):
        sch: ShiftSchema = getattr(good, field)
        bad = replace(good, **{field: replace(sch, base_count=0)})
        verdict = certify_normal_generation(bad)
        assert not verdict.ok
        assert verdict.code == ("condition-3" if field == "left_schema" else "condition-4")


def test_broken_slope_fails(good):
    bad = replace(good, slope=SlopeWitness(good.slope.word, good.w + "111"))
    verdict = certify_normal_generation(bad)
    assert verdict.code == "slope"


@pytest.mark.parametrize(
    "word, lhs, rhs, detail",
    [
        ((("g", -1),), "00000", "000000",
         "shift pair does not strictly shorten the tail (5 -> 6)"),
        ((("g", 1),), "0001", "0010", "shift pair 0001 -> 0010 has mismatched bases"),
        ((("g", 1),), "0110100", "011010",  # w + 10100 -> w + 1010, x1's copy in g
         "stem is not a tail extension of the shift pair's base"),
    ],
)
def test_bad_left_shift_pair_fails(good, word, lhs, rhs, detail):
    # the old shift pair joins the witnesses, so the closure only grows and
    # conditions 1-2 still hold; the new one is a true pair of g or g^-1
    sch = good.left_schema
    bad = replace(good, witnesses=good.witnesses + (sch.witness,),
                  left_schema=replace(sch, witness=Witness(word, lhs, rhs)))
    assert str(certify_normal_generation(bad)) == f"FAIL condition-3: {detail} at closure bound 11"


def test_slope_witness_with_a_wrong_left_slope_fails():
    # flip(x1) fixes 1/2 and has slope 2 just left of it
    cert = synthesize(flip(X1), 1, 1).certificate
    bad = replace(cert, slope=SlopeWitness((("f", 1),), "1"))
    assert str(certify_normal_generation(bad)) == "FAIL slope: left slope is not 1"


def test_structural_garbage_fails(good):
    bad = replace(good, tree=("0", "10"))  # not a complete prefix code
    assert certify_normal_generation(bad).code == "invalid-certificate"
    bad = replace(good, w="11")  # outside B'
    assert certify_normal_generation(bad).code == "invalid-certificate"
    bad = replace(good, depth=0)
    assert certify_normal_generation(bad).code == "invalid-certificate"


def test_bound_override(good):
    assert certify_normal_generation(good, bound=good.depth + 10).ok
    low = certify_normal_generation(good, bound=2)
    assert not low.ok
    assert low.code == "invalid-certificate"
    # the x0 (0, 0) certificate's longest seed word has 5 letters, its
    # inner branches 6 and its left family's members 7 on
    zero = synthesize(X0, 0, 0).certificate
    verdicts = [str(certify_normal_generation(zero, bound=b)) for b in (4, 5, 6)]
    assert verdicts == [
        "FAIL invalid-certificate: closure bound 4 is below the longest seed word (5)",
        "FAIL condition-2: 000001 ~ 01 unproved at closure bound 5",
        "FAIL condition-3: base relation 0000001 ~ 01 unproved at closure bound 6",
    ]
    assert certify_normal_generation(zero).ok


def test_padded_witness_word_checks_fast():
    cert = synthesize(X0, 3, 3).certificate
    wit = cert.witnesses[0]
    padded = replace(wit, word=(("g", 300), ("g", -300)) + wit.word)
    cert = replace(cert, witnesses=(padded,) + cert.witnesses[1:])
    start = time.perf_counter()
    verdict = certify_normal_generation(cert)
    assert verdict.ok
    assert time.perf_counter() - start < 5.0


def test_huge_power_of_an_identity_partner_checks_fast(good):
    # g = id makes g^(10^12) f cost what f does; the checker must not apply
    # the identity 10^12 times to find the witness wrong
    wit = replace(good.witnesses[0], word=(("g", 10**12), ("f", 1)))
    cert = replace(good, g=IDENTITY, witnesses=(wit,) + good.witnesses[1:])
    start = time.perf_counter()
    verdict = certify_normal_generation(cert)
    assert verdict.code == "witness-failed"
    assert time.perf_counter() - start < 5.0


# --- the caret budget -------------------------------------------------------------


def _with_word(cert: Certificate, text: str) -> Certificate:
    """cert with one more witness, of the group word `text`, claiming 0 -> 1."""
    doc = certificate_to_dict(cert)
    doc["witnesses"].append({"word": text, "lhs": "0", "rhs": "1"})
    return certificate_from_json(json.dumps(doc))


# the x0 (1, 1) certificate and one more witness: 15 group-word letters, and
# g has 11 carets (f = x0 has 2), so the budget is 15 * 11 = 165
@pytest.mark.parametrize("k", [10**5, 10**12])
def test_huge_power_is_over_budget_at_once(good, k):
    cert = _with_word(good, f"g^{k}")
    start = time.perf_counter()
    verdict = certify_normal_generation(cert)
    assert time.perf_counter() - start < 0.1
    assert str(verdict) == f"FAIL over-budget: word 'g^{k}' has caret bound {11 * k} > budget 165"


def test_word_at_the_budget_is_evaluated(good):
    # g^15 may have 165 carets, exactly the budget; g^16 may have 176
    assert str(certify_normal_generation(_with_word(good, "g^15"))) == (
        "FAIL witness-failed: word 'g^15' does not carry 0 -> 1")
    assert str(certify_normal_generation(_with_word(good, "g^16"))) == (
        "FAIL over-budget: word 'g^16' has caret bound 176 > budget 165")
    assert certify_normal_generation(_with_word(good, "g^2")).code == "witness-failed"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from("fg"), st.sampled_from((1, -1))),
                         min_size=1, max_size=30), max_size=4))
def test_words_of_unit_letters_are_within_budget(good, words):
    extra = tuple(Witness(tuple(word), "0", "1") for word in words)
    assert certify_module._budget_error(replace(good, witnesses=good.witnesses + extra)) is None


@pytest.mark.parametrize("f, c, d", [(power(X0, 1200), 1, 1), (X0, 800, 800)],
                         ids=["x0^1200 (1,1)", "x0 (800,800)"])
def test_long_certificates_pass_within_budget(f, c, d):
    assert certify_normal_generation(synthesize(f, c, d).certificate).ok


def test_the_checkers_engine_defines_only_what_the_checker_calls():
    # the pruner's undo, weight and necessity methods live beside the pruner
    source = Path(certify_module.__file__).read_text(encoding="utf-8")
    methods = [name for name, value in vars(SuffixCongruence).items()
               if inspect.isfunction(value) and not name.startswith("__")]
    assert methods
    for name in methods:
        assert re.search(rf"\.{name}\b", source), name
    for name in ("mark", "rollback", "weight", "needed_seeds"):
        assert not hasattr(SuffixCongruence, name)
        assert name in vars(synthesis._PruningCongruence)


def test_each_distinct_word_is_evaluated_once(monkeypatch):
    # words f^-1, g^-1 and g: the bare f and g are the certificate's own
    # elements and are never evaluated; every other word is, once per check
    cert = synthesize(invert(X0), -3, 3).certificate
    words = [w.word for w in (*cert.witnesses, cert.left_schema.witness,
                              cert.right_schema.witness)] + [cert.slope.word]
    assert len(set(words)) < len(words)  # the words do repeat
    evaluated = set(words) - {(("f", 1),), (("g", 1),)}
    assert evaluated and (("g", 1),) in words
    calls = collections.Counter()

    def counting_eval_word(word, assignment):
        calls[word] += 1
        return eval_word(word, assignment)

    monkeypatch.setattr(certify_module, "eval_word", counting_eval_word)
    assert certify_normal_generation(cert).ok
    assert calls == collections.Counter(evaluated)
    # the memo lives for one call only
    assert certify_normal_generation(cert).ok
    assert calls == collections.Counter({w: 2 for w in evaluated})


def test_table_rows_are_accepted_by_lookup(monkeypatch):
    cert = synthesize(X0, 3, 3).certificate
    g_rows = set(cert.g.pairs)
    wits = [*cert.witnesses, cert.left_schema.witness, cert.right_schema.witness]
    traced = []

    def tracing(h, u, v):
        traced.append((u, v))
        return has_branch_pair(h, u, v)

    monkeypatch.setattr(certify_module, "has_branch_pair", tracing)
    assert certify_normal_generation(cert).ok
    looked_up = [wit.pair for wit in wits if wit.word == (("g", 1),) and wit.pair in g_rows]
    assert looked_up and not set(looked_up) & set(traced)
    assert len(traced) == len(wits) - len(looked_up)
    # a pair below a row is a branch pair too, though not a row; a pair
    # that is neither still fails
    u, v = cert.g.pairs[0]
    memo = {}
    assert verify_witness(cert, Witness((("g", 1),), u + "0", v + "0"), memo)
    assert not verify_witness(cert, Witness((("g", 1),), u, v + "0"), memo)
    assert traced[-2:] == [(u + "0", v + "0"), (u, v + "0")]


def test_closure_seeds_are_true_relations(good):
    fg = {"f": good.f, "g": good.g}
    carried = set()
    for wit in (*good.witnesses, good.left_schema.witness, good.right_schema.witness):
        carried.add(wit.pair)
    assert set(closure_seeds(good)) == carried


# --- serialization --------------------------------------------------------------


def test_json_round_trip_is_byte_exact(good):
    text = certificate_to_json(good)
    again = certificate_from_json(text)
    assert again == good
    assert certificate_to_json(again) == text
    assert text.endswith("\n")


def test_json_reports_caret_imbalance(good):
    doc = certificate_to_dict(good)
    doc["g"]["domain"] = doc["g"]["domain"][:-1]
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(json.dumps(doc))
    assert err.value.code == "invalid-element"


def test_json_reports_missing_fields(good):
    doc = certificate_to_dict(good)
    del doc["witnesses"]
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(json.dumps(doc))
    assert err.value.code == "invalid-certificate"


def test_json_reports_bad_tag(good):
    doc = certificate_to_dict(good)
    doc["format"] = "something-else"
    with pytest.raises(CertificateFormatError):
        certificate_from_json(json.dumps(doc))


def test_json_rejects_non_object():
    with pytest.raises(CertificateFormatError):
        certificate_from_json("[1, 2]")


@pytest.mark.parametrize(
    "path, value",
    [
        (("witnesses", 0, "word"), 7),
        (("slope", "word"), ["f"]),
        (("witnesses", 0, "word"), "f h^2"),
        (("slope", "word"), "q^2 g"),
        (("left_schema", "base_count"), 2.7),
        (("right_schema", "base_count"), True),
        (("depth",), 12.0),
        (("depth",), "12"),
        (("f",), {"domain": "e", "range": "e"}),
        (("tree",), lambda doc: "".join(doc["tree"])),
        (("witnesses", 0, "word"), "g^"),
        (("witnesses", 0, "word"), "g^\u0661"),
        (("slope", "word"), "f^1_0"),
        (("witnesses", 0, "word"), "f^1"),
        (("witnesses", 0, "word"), "f^+1"),
        (("slope", "word"), "f^01"),
        (("witnesses", 0, "word"), " f"),
        (("slope", "word"), "f  "),
    ],
)
def test_json_decoding_is_strict(good, path, value):
    doc = certificate_to_dict(good)
    if callable(value):
        value = value(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(json.dumps(doc))
    assert err.value.code == "invalid-certificate"


@pytest.mark.parametrize(
    "key",
    [
        "f", "g", "tree", "w", "witnesses", "left_schema", "right_schema", "slope", "depth",
        "left_schema.stem", "slope.word", "witnesses[0].lhs",
    ],
)
def test_json_missing_field_is_invalid_certificate(good, key):
    doc = certificate_to_dict(good)
    where, _, field = key.rpartition(".")
    target = doc
    for step in re.findall(r"\w+", where):  # "witnesses[0]" -> witnesses, 0
        target = target[int(step)] if step.isdigit() else target[step]
    del target[field]
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(json.dumps(doc))
    assert err.value.code == "invalid-certificate"
    assert err.value.detail == (f"{where}: " if where else "") + f"missing field {field!r}"


# Mutation fuzz: at one path of a genuine certificate dict, delete the key
# (or list item) or put one of a fixed set of JSON values there. Decoding
# and checking must end in a CertifyResult or a CertificateFormatError, each
# within a second. The values include group words of large exponents and a
# large integer, which a check may neither evaluate nor count up to.
class _Delete:
    def __repr__(self):
        return "DELETE"


_DELETE = _Delete()
_REPLACEMENTS = (_DELETE, None, 0, -1, True, 1.5, "", "e", "x", [], {}, 10**12,
                 "g^100000", "f^-1000000000000 g", "g^99999999999 g^-99999999999 f")


def _paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_FUZZ_DOCS = [
    certificate_to_dict(synthesize(X0, 1, 1).certificate),
    certificate_to_dict(synthesize(X0, 2, 0).certificate),
]
_MUTATIONS = [
    (i, path, value)
    for i, doc in enumerate(_FUZZ_DOCS)
    for path in _paths(doc)
    for value in _REPLACEMENTS
]


def _mutate(doc, path, value) -> None:
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value


@st.composite
def _mutations(draw, doc):
    """A path into `doc`, descending one level at a time, and a replacement."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if draw(st.booleans()):
            break
    return path, draw(st.sampled_from(_REPLACEMENTS))


def _decode_and_check(doc) -> None:
    start = time.perf_counter()
    try:
        cert = certificate_from_json(json.dumps(doc))
    except CertificateFormatError:
        return
    assert isinstance(certify_normal_generation(cert), certify_module.CertifyResult)
    assert time.perf_counter() - start < 1.0


def test_every_single_mutation_decodes_or_fails_cleanly():
    for i, path, value in _MUTATIONS:
        doc = json.loads(json.dumps(_FUZZ_DOCS[i]))
        _mutate(doc, path, value)
        _decode_and_check(doc)


@settings(max_examples=300, deadline=None)
@given(doc_index=st.sampled_from((0, 1)), rounds=st.integers(1, 3), data=st.data())
def test_stacked_mutations_decode_or_fail_cleanly(doc_index, rounds, data):
    doc = json.loads(json.dumps(_FUZZ_DOCS[doc_index]))
    for _ in range(rounds):
        if not doc:
            break
        _mutate(doc, *data.draw(_mutations(doc)))
    _decode_and_check(doc)


def test_unknown_symbol_is_a_fail_value(good):
    bad_wit = replace(good.witnesses[0], word=(("h", 1),) + good.witnesses[0].word)
    bad = replace(good, witnesses=(bad_wit,) + good.witnesses[1:])
    verdict = certify_normal_generation(bad)
    assert (verdict.ok, verdict.code) == (False, "invalid-certificate")
    bad = replace(good, slope=SlopeWitness((("q", 2),), good.slope.alpha))
    assert certify_normal_generation(bad).code == "invalid-certificate"


# --- brute-force oracle ----------------------------------------------------------


def test_enumerate_ball_counts():
    ball = list(enumerate_ball(X0, X1, 2))
    # 1 empty word + 4 letters + 16 two-letter words
    assert len(ball) == 21
    words = [w for w, _ in ball]
    assert words[0] == ()
    assert len(set(words)) == 21


def test_brute_force_relations_frozen_count():
    rels = brute_force_relations(X0, X1, 3, 4)
    assert len(rels) == 131
    assert relation("00", "0") in rels  # carried by x0 itself


def test_brute_force_soundness():
    rels = brute_force_relations(X0, X1, 2, 3)
    elements = [e for _, e in enumerate_ball(X0, X1, 2)]
    for u, v in rels:
        assert any(has_branch_pair(e, u, v) for e in elements)
    # and completeness at these bounds: nothing carried is missing
    for _, e in enumerate_ball(X0, X1, 2):
        for u, v in e.pairs:
            if len(u) <= 3 and len(v) <= 3:
                assert relation(u, v) in rels


def test_brute_force_validates_bounds():
    with pytest.raises(ValueError):
        brute_force_relations(X0, X1, 0, 3)
    with pytest.raises(ValueError):
        brute_force_relations(X0, X1, 3, 0)


def test_derived_subgroup_relations_on_short_words():
    # with H = F itself every pair of words in B' of length <= 3 is related;
    # radius 5 suffices to carry all of them (radius 4 misses two pairs)
    rels = brute_force_relations(X0, X1, 5, 3)
    words = ["01", "10", "001", "011", "101", "110", "010", "100"]
    for u, v in itertools.combinations(words, 2):
        assert relation(u, v) in rels
