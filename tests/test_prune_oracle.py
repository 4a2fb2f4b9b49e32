"""Differential tests of the rollback closure against rebuild-from-scratch references.

The greedy pruner decides its trials offline, by divide and conquer on one
closure that it rolls back, and with a counter of obligation words in w's
class in place of a condition check per trial; the reference below is the
earlier pruner, which builds a fresh closure from the trial's seeds and
checks the conditions every time. The schema check walks each base family
once, stepping one tail letter at a time; its reference walks every member
from the root through `same`. Both pairs must agree exactly: the same kept
witnesses, the same verdict and the same detail text. The references
rebuild or rewalk on every step, so the properties run without a
per-example deadline.
"""

import functools
import math
import random
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from thompsonf import X0, invert, synthesis, synthesize
from thompsonf import certify as certify_module
from thompsonf.certify import (
    Certificate,
    ShiftSchema,
    SuffixCongruence,
    Witness,
    _schema_error,
    certify_normal_generation,
    closure_seeds,
    conditions_error,
    queried_words,
)
from thompsonf.cli import corpus_entries, random_nontrivial
from thompsonf.dynamics import PreconditionViolated
from thompsonf.words import word_to_text

# --- reference implementations -------------------------------------------------


def reference_prune(cert: Certificate) -> Certificate:
    """Greedy pruning with a closure built from scratch for every trial."""
    schema_pairs = [
        cert.left_schema.witness.pair,
        cert.right_schema.witness.pair,
    ]
    kept = list(cert.witnesses)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        seeds = [x.pair for x in trial] + schema_pairs
        if conditions_error(cert, SuffixCongruence(seeds), cert.depth) is None:
            kept = trial
        else:
            i += 1
    return replace(cert, witnesses=tuple(kept))


def reference_schema_error(cert, schema: ShiftSchema, cong, bound: int, side: str):
    """The schema check with one `same` query per base member, each member
    longer than the bound unproved. The detail writes a tail of more than
    `_SPELLED_TAIL` letters as a power."""
    t = schema.tail
    expected_stem = cert.tree[0] if side == "left" else cert.tree[-1]
    expected_tail = "0" if side == "left" else "1"
    expected_suffix = "1" if side == "left" else "0"
    if (schema.stem, t, schema.suffix) != (expected_stem, expected_tail, expected_suffix):
        return (
            f"{side} schema must cover {word_to_text(expected_stem)}"
            f"{expected_tail}^i{expected_suffix}"
        )
    x, y = schema.witness.lhs, schema.witness.rhs
    base = x.rstrip(t)
    a = len(x) - len(base)
    if not (y.startswith(base) and set(y[len(base):]) <= {t}):
        return f"shift pair {word_to_text(x)} -> {word_to_text(y)} has mismatched bases"
    b = len(y) - len(base)
    if a <= b:
        return f"shift pair does not strictly shorten the tail ({a} -> {b})"
    if not (schema.stem.startswith(base) and set(schema.stem[len(base):]) <= {t}):
        return "stem is not a tail extension of the shift pair's base"
    j = len(schema.stem) - len(base)
    need = max(a - b, a - j)
    if schema.base_count < need:
        return f"base_count {schema.base_count} < required {need}"
    for i in range(schema.base_count):
        member = schema.stem + t * i + schema.suffix
        if not (max(len(member), len(cert.w)) <= bound and cong.same(member, cert.w)):
            if i > certify_module._SPELLED_TAIL:
                member = f"{schema.stem}({t}^{i}){schema.suffix}"
            return f"base relation {word_to_text(member)} ~ {word_to_text(cert.w)} unproved"
    return None


# --- the pruner ----------------------------------------------------------------


@contextmanager
def pruner_checked_against_reference():
    """Run synthesis with a pruner that also runs the reference on the same
    unpruned certificate and requires the same kept witnesses."""
    real = synthesis._prune_witnesses
    calls = []

    def checked(cert):
        got = real(cert)
        assert got.witnesses == reference_prune(cert).witnesses
        calls.append(len(cert.witnesses))
        return got

    with mock.patch.object(synthesis, "_prune_witnesses", checked):
        yield calls


@pytest.mark.parametrize("seed", [0, 9, 10])
def test_pruner_matches_reference_on_corpus(seed):
    with pruner_checked_against_reference() as calls:
        entries = corpus_entries(seed, 50)
    assert len(entries) == 50 and len(calls) >= 50


@pytest.mark.parametrize("k", [1, 6, 12, 24, 48])
@pytest.mark.parametrize("name", ["x0", "x0^-1"])
def test_pruner_matches_reference_on_x0_ladder(name, k):
    f = X0 if name == "x0" else invert(X0)
    for c in (k, -k):
        with pruner_checked_against_reference() as calls:
            synthesize(f, c, k)
        assert calls


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    c=st.integers(min_value=-4, max_value=4),
    d=st.integers(min_value=-4, max_value=4),
)
def test_pruner_matches_reference_on_random_inputs(seed, c, d):
    _, f = random_nontrivial(random.Random(seed))
    with pruner_checked_against_reference() as calls:
        try:
            synthesize(f, c, d)
        except PreconditionViolated:
            return
    assert calls


@contextmanager
def unpruned_certificates():
    """Collect the certificates synthesis hands to the pruner."""
    real = synthesis._prune_witnesses
    seen = []

    def recording(cert):
        seen.append(cert)
        return real(cert)

    with mock.patch.object(synthesis, "_prune_witnesses", recording):
        yield seen


@functools.cache
def ladder_and_corpus_certificates() -> tuple[Certificate, ...]:
    with unpruned_certificates() as seen:
        corpus_entries(0, 50)
        for k in (1, 6, 12):
            for c in (k, -k):
                synthesize(X0, c, k)
    return tuple(seen)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_obligation_counter_matches_conditions(data):
    certs = ladder_and_corpus_certificates()
    cert = certs[data.draw(st.integers(0, len(certs) - 1))]
    n = len(cert.witnesses)
    dropped = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    subset = [k for k in range(n) if k not in dropped] + [n, n + 1]  # schema pairs always in
    seeds = closure_seeds(cert)
    cong = synthesis._PruningCongruence(seeds, synthesis._obligations(cert))
    assert conditions_error(cert, cong, cert.depth) is None  # the counter's precondition
    total = cong.weight(cert.w)
    cong.rollback(0)
    cong.add(subset)
    counted = cong.weight(cert.w) == total
    fresh = SuffixCongruence([seeds[k] for k in subset])
    assert counted == (conditions_error(cert, fresh, cert.depth) is None)


@functools.cache
def injection_bases() -> tuple[Certificate, ...]:
    with unpruned_certificates() as seen:
        synthesize(X0, 6, 6)
        synthesize(X0, -12, 12)
        corpus_entries(0, 4)
    return tuple(seen)


def _pruner_inputs(build) -> list[Certificate]:
    """The certificates `synthesis._prune_witnesses` is handed while `build` runs."""
    real, seen = synthesis._prune_witnesses, []

    def capture(cert):
        seen.append(cert)
        return real(cert)

    with mock.patch.object(synthesis, "_prune_witnesses", capture):
        build()
    return seen


def test_surgery_emits_no_fixed_row_and_no_copy_of_a_schema_pair():
    # every trial holds such a pair already, so the pruner is never handed one
    certs = _pruner_inputs(lambda: corpus_entries(0, 50))
    for k in (1, 6, 12, 24, 48):
        for c in (k, -k):
            certs += _pruner_inputs(lambda: synthesize(X0, c, k))
    assert len(certs) >= 60
    for cert in certs:
        schema = {cert.left_schema.witness.pair, cert.right_schema.witness.pair}
        for wit in cert.witnesses:
            assert wit.lhs != wit.rhs, wit
            assert schema.isdisjoint({wit.pair, wit.pair[::-1]}), wit


def _injected(wit: Witness, left: Witness, kind: str) -> Witness:
    """A plain witness whose pair the certificate holds already, or a trivial one."""
    if kind == "copy":
        return wit
    if kind == "other-word":  # the same pair, under the other letter
        return replace(wit, word=(("f" if wit.word[0][0] == "g" else "g", 1),))
    if kind == "reversed":
        return Witness(wit.word, wit.rhs, wit.lhs)
    if kind == "trivial":
        return Witness(wit.word, wit.lhs, wit.lhs)
    return left  # "schema": a copy of the left shift pair


@pytest.mark.parametrize("kind", ["copy", "other-word", "reversed", "trivial", "schema"])
def test_pruner_matches_reference_on_repeated_pairs(kind):
    # such a witness is dropped by its own trial: the trial state holds its
    # pair already, or it has none. Each is put first and last, so a pruner
    # that kept the wrong one of two copies would keep the witnesses out of
    # order
    for base in injection_bases():
        wits, n = base.witnesses, len(base.witnesses)
        for j in sorted({0, 1, n // 2, n - 1}):
            extra = _injected(wits[j], base.left_schema.witness, kind)
            for spliced in ((extra, *wits), (*wits, extra)):
                cert = replace(base, witnesses=spliced)
                got = synthesis._prune_witnesses(cert).witnesses
                assert got == reference_prune(cert).witnesses, (kind, j)


def _fold_count(f, c, d) -> tuple[int, int]:
    """Seed pairs the pruner hands to `SuffixCongruence.add` in one
    synthesis, and the witness count of the certificate it prunes."""
    real_prune, real_add = synthesis._prune_witnesses, SuffixCongruence.add
    folds, widths = [0], []

    def counting_add(self, indices):
        indices = list(indices)
        folds[0] += len(indices)
        real_add(self, indices)

    def counting_prune(cert):
        widths.append(len(cert.witnesses))
        with mock.patch.object(SuffixCongruence, "add", counting_add):
            return real_prune(cert)

    with mock.patch.object(synthesis, "_prune_witnesses", counting_prune):
        synthesize(f, c, d)
    (width,) = widths
    return folds[0], width


@pytest.mark.parametrize("k", [48, 200])
def test_pruner_folds_each_seed_a_logarithmic_number_of_times(k):
    folds, w = _fold_count(X0, k, k)
    assert folds <= (w + 2) * (math.ceil(math.log2(w)) + 2), (folds, w)


@pytest.mark.parametrize("k", [48, 200])
def test_pruner_folds_proven_witnesses_once(k):
    # the full closure folds every seed once, the proven witnesses are folded
    # once more, and only the undecided ones are searched
    folds, w = _fold_count(X0, k, k)
    assert folds <= 3 * w, (folds, w)


# --- rolling back to a subset --------------------------------------------------

short_words = st.text(alphabet="01", min_size=0, max_size=5)
seed_lists = st.lists(st.tuples(short_words, short_words), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    seeds=seed_lists,
    heavy=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    extra=st.lists(short_words, max_size=3),
    limit=st.integers(0, 8),
)
# "0" roots the class of the weighted "1" without being weighted itself, and
# seed 0 alone names it; but w = "1" is the only weighted word, so no seed
# is needed
@example(seeds=[("0", "1")], heavy=[1], extra=[], limit=1)
# "11" has a lone parent, but two seeds name it, each enough to relate it to w
@example(seeds=[("0", "11"), ("10", "11")], heavy=[0, 1], extra=[], limit=2)
def test_needed_seeds_are_needed(seeds, heavy, extra, limit):
    # weighted words mostly named by seeds, as the pruner's obligations are
    words = [u for pair in seeds for u in pair]
    weighted = [words[i % len(words)] for i in heavy] + extra
    w = weighted[0]
    needed = synthesis._PruningCongruence(seeds, weighted).needed_seeds(w, limit)
    assert needed == sorted(set(needed)) and all(k < limit for k in needed)
    for k in needed:
        fresh = SuffixCongruence(seeds[:k] + seeds[k + 1:], weighted)
        assert not all(fresh.same(x, w) for x in weighted), (k, seeds)


def test_needed_seeds_spare_a_seed_whose_node_has_a_merged_parent():
    # 1 ~ 10 folds 10 ~ 100, so the seed (100, 10), which alone names 100,
    # is not needed: 100's parent 10 is not alone in its class
    seeds, weighted = [("1", "10"), ("100", "10")], ["10", "100"]
    assert synthesis._PruningCongruence(seeds, weighted).needed_seeds("10", 2) == []
    assert SuffixCongruence(seeds[:1], weighted).same("100", "10")


def _snapshot(cong: synthesis._PruningCongruence):
    return (
        list(cong._parent),
        list(cong._size),
        list(cong._kids),
        list(cong._weight),
        list(cong._log),
    )


@settings(max_examples=200, deadline=None)
@given(seeds=seed_lists, data=st.data())
def test_rollback_matches_a_fresh_closure(seeds, data):
    weighted = data.draw(st.lists(short_words, max_size=6))
    queries = data.draw(st.lists(st.tuples(short_words, short_words), max_size=12))
    queries += seeds
    probes = weighted + [u for pair in queries for u in pair]
    cong = synthesis._PruningCongruence(seeds, weighted)
    added = list(range(len(seeds)))
    marks = []  # (mark, snapshot, seeds added at the mark)

    def agrees_with_fresh():
        fresh = synthesis._PruningCongruence([seeds[k] for k in added], weighted)
        for u, v in queries:
            assert cong.same(u, v) == fresh.same(u, v), (u, v, added)
        for u in probes:
            assert cong.weight(u) == fresh.weight(u), (u, added)

    agrees_with_fresh()
    cong.rollback(0)
    added = []
    agrees_with_fresh()
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(("add", "mark", "rollback")))
        if op == "add":
            more = data.draw(st.lists(st.integers(0, len(seeds) - 1), max_size=4))
            cong.add(more)
            added += more
        elif op == "mark":
            marks.append((cong.mark(), _snapshot(cong), list(added)))
        elif marks:
            i = data.draw(st.integers(0, len(marks) - 1))
            del marks[i + 1:]
            mark, snap, at_mark = marks[i]
            cong.rollback(mark)
            added = list(at_mark)
            assert _snapshot(cong) == snap
        agrees_with_fresh()


# --- the schema family walk ----------------------------------------------------


@st.composite
def schema_cases(draw):
    side = draw(st.sampled_from(("left", "right")))
    t, suffix = ("0", "1") if side == "left" else ("1", "0")
    stem_len = draw(st.integers(1, 4))
    stem = t * stem_len
    base = t * draw(st.integers(0, stem_len))
    b = draw(st.integers(0, 3))
    a = draw(st.integers(b + 1, b + 4))
    shift = Witness((("g", 1),), base + t * a, base + t * b)
    need = max(a - b, a - (stem_len - len(base)))
    base_count = draw(st.integers(max(need - 1, 0), need + 40))  # past the walk's cycles
    schema = ShiftSchema(t, stem, suffix, shift, base_count)
    w = draw(st.text(alphabet="01", min_size=2, max_size=6).filter(lambda u: "0" in u and "1" in u))
    # seeds that relate some members to w, plus noise
    members = [stem + t * i + suffix for i in range(base_count + 2)]
    related = draw(st.lists(st.sampled_from(members), max_size=4))
    noise = draw(st.lists(st.tuples(short_words, short_words), max_size=4))
    seeds = [shift.pair] + [(m, w) for m in related] + noise
    longest = max(len(x) for pair in seeds for x in pair)
    # bounds from the longest seed upward, so some cut a family part-way
    bound = longest + draw(st.integers(0, 8))
    tree = (stem, "1" * stem_len) if side == "left" else ("0" * stem_len, stem)
    return side, schema, SimpleNamespace(tree=tree, w=w), seeds, bound


@settings(max_examples=300, deadline=None)
@given(case=schema_cases())
# w is longer than the bound, yet congruent to member 0 ("0" ~ "00" ~ "")
@example(case=(
    "left",
    ShiftSchema("0", "0", "1", Witness((("g", 1),), "0", ""), 1),
    SimpleNamespace(tree=("0", "1"), w="0001"),
    [("0", ""), ("0", "00")],
    3,
))
# the bound cuts member 8 of a small trie: its tail is spelled out
@example(case=(
    "left",
    ShiftSchema("0", "0", "1", Witness((("g", 1),), "0", ""), 20),
    SimpleNamespace(tree=("0", "1"), w="01"),
    [("0", "")],
    9,
))
# the bound cuts member 69: its tail is written as a power
@example(case=(
    "left",
    ShiftSchema("0", "0", "1", Witness((("g", 1),), "00", "0"), 100),
    SimpleNamespace(tree=("0", "1"), w="01"),
    [("00", "0")],
    70,
))
def test_family_walk_matches_member_queries(case):
    side, schema, cert, seeds, bound = case
    cong = SuffixCongruence(seeds)
    want = reference_schema_error(cert, schema, cong, bound, side)
    assert _schema_error(cert, schema, cong, bound, side) == want


def test_family_walk_reports_the_first_member_past_the_bound():
    # every member is related to w, but the bound cuts the family at i = 3
    w = "01"
    stem, members = "0", ["0" + "0" * i + "1" for i in range(5)]
    seeds = [("000", "0")] + [(m, w) for m in members[:2]]
    cong = SuffixCongruence(seeds)
    schema = ShiftSchema("0", stem, "1", Witness((("g", 1),), "000", "0"), 5)
    cert = SimpleNamespace(tree=(stem, "1"), w=w)
    got = _schema_error(cert, schema, cong, 4, "left")
    assert got == reference_schema_error(cert, schema, cong, 4, "left")
    assert got == "base relation 00001 ~ 01 unproved"


def test_family_walk_is_bounded_by_the_trie_at_any_base_count():
    # the walk stops at its first repeated state, so a 13-digit base_count
    # costs what a small one does
    cert = synthesize(X0, 1, 1).certificate
    left = replace(cert.left_schema, base_count=10**12)
    cert = replace(cert, left_schema=left, depth=10**12 + 50)
    cong = SuffixCongruence(closure_seeds(cert), queried_words(cert))
    bound, steps = len(cong._kids) // 2 + 2, [0]

    def counting_range(n):  # the walk's one loop, cut off past the bound
        for i in range(n):
            steps[0] += 1
            assert steps[0] <= bound, "the walk did not stop at a repeated state"
            yield i

    with mock.patch.object(certify_module, "range", counting_range, create=True):
        assert cong.first_unrelated(left.stem, "0", "1", left.base_count, cert.w) is None
    assert 1 < steps[0] <= bound, steps
    assert certify_normal_generation(cert).ok


def test_family_walk_ends_soon_after_leaving_the_trie():
    # "0" is not in the trie, so the walk leaves it at once; the states off
    # the trie never repeat, but member 0 is the only one that reaches w's
    cong = SuffixCongruence([("1", "11")])
    assert cong.first_unrelated("0", "0", "1", 10**12, "01") == 1
    assert cong.first_unrelated("0", "0", "1", 1, "01") is None
