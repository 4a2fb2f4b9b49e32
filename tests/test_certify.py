import collections
import itertools
import json
import random
import time

import pytest
from dataclasses import replace

from thompsonf import (
    X0,
    X1,
    compose,
    eval_word,
    has_branch_pair,
    invert,
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
    brute_force_relations,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    certify_normal_generation,
    closure_seeds,
    enumerate_ball,
    relation,
    saturate,
    verify_witness,
)


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


def test_padded_witness_word_checks_fast():
    cert = synthesize(X0, 3, 3).certificate
    wit = cert.witnesses[0]
    padded = replace(wit, word=(("g", 300), ("g", -300)) + wit.word)
    cert = replace(cert, witnesses=(padded,) + cert.witnesses[1:])
    start = time.perf_counter()
    verdict = certify_normal_generation(cert)
    assert verdict.ok
    assert time.perf_counter() - start < 5.0


def test_each_distinct_word_is_evaluated_once(monkeypatch):
    cert = synthesize(X0, 3, 3).certificate
    words = [w.word for w in (*cert.witnesses, cert.left_schema.witness,
                              cert.right_schema.witness)] + [cert.slope.word]
    assert len(set(words)) < len(words)  # the words do repeat
    calls = collections.Counter()

    def counting_eval_word(word, assignment):
        calls[word] += 1
        return eval_word(word, assignment)

    monkeypatch.setattr(certify_module, "eval_word", counting_eval_word)
    assert certify_normal_generation(cert).ok
    assert calls == collections.Counter(set(words))
    # the memo lives for one call only
    assert certify_normal_generation(cert).ok
    assert calls == collections.Counter({w: 2 for w in set(words)})


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
    ],
)
def test_json_decoding_is_strict(good, path, value):
    doc = certificate_to_dict(good)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_json(json.dumps(doc))
    assert err.value.code == "invalid-certificate"


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
