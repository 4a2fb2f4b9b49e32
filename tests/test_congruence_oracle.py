"""The flat closure engine against the dict-per-node reference, and its trie shape.

`SuffixCongruence` keeps its trie in one flat child list, logs each fold as
one int and builds the trie from its words in sorted order.
`ReferenceCongruence` (tests/oracles.py) is the engine it replaced: one
child dict per node, built one letter at a time. Both see the same operations, and after each
one they must decide the same partition: `same` on every query pair,
`weight` on every probe and the same `mark` (a fold joins two classes, so
the number of folds is fixed by the partition).
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from thompsonf import X0, power, synthesis, synthesize
from thompsonf.certify import SuffixCongruence
from thompsonf.synthesis import _PruningCongruence

from oracles import ReferenceCongruence

short_words = st.text(alphabet="01", max_size=6)
# long words sharing prefixes, like the families 0^i 1 of the schemas
long_words = st.builds(
    lambda head, t, i, tail: head + t * i + tail,
    st.text(alphabet="01", max_size=3),
    st.sampled_from("01"),
    st.integers(0, 40),
    st.text(alphabet="01", max_size=3),
)
words = st.one_of(short_words, long_words)


def prefixes(words) -> set[str]:
    return {""} | {w[:i] for w in words for i in range(len(w) + 1)}


def assert_same_partition(cong, ref, queries, probes):
    assert cong.mark() == ref.mark()
    for u, v in queries:
        assert cong.same(u, v) == ref.same(u, v), (u, v)
    for u in probes:
        assert cong.weight(u) == ref.weight(u), u


def run_against_reference(seeds, weighted, queries, ops):
    """Apply ops, each ("add", indices), ("mark",) or ("rollback", i) for the
    i-th mark still open (-1 for the empty log), to both engines."""
    cong, ref = _PruningCongruence(seeds, weighted), ReferenceCongruence(seeds, weighted)
    probes = list(weighted) + [u for pair in queries for u in pair]
    assert_same_partition(cong, ref, queries, probes)
    marks = []
    for op in ops:
        if op[0] == "add":
            cong.add(op[1])
            ref.add(op[1])
        elif op[0] == "mark":
            marks.append(cong.mark())
        else:
            i = op[1] if op[1] < len(marks) else len(marks) - 1
            mark = marks[i] if i >= 0 else 0
            del marks[i + 1:]
            cong.rollback(mark)
            ref.rollback(mark)
        assert_same_partition(cong, ref, queries, probes)


@st.composite
def closure_cases(draw):
    seeds = draw(st.lists(st.tuples(words, words), min_size=1, max_size=8))
    weighted = draw(st.lists(words, max_size=6))
    seen = [u for pair in seeds for u in pair] + weighted
    # words of the trie, their extensions past it, and unrelated words
    near = st.builds(lambda u, x: u + x, st.sampled_from(seen), st.text(alphabet="01", max_size=4))
    queries = draw(st.lists(st.tuples(near, st.one_of(near, words)), max_size=16)) + seeds
    n = len(seeds)
    op = st.one_of(
        st.tuples(st.just("add"), st.lists(st.integers(0, n - 1), max_size=4)),
        st.tuples(st.just("mark")),
        st.tuples(st.just("rollback"), st.integers(-1, 8)),
    )
    ops = [("rollback", -1)] + draw(st.lists(op, max_size=12))
    return seeds, weighted, queries, ops


# the build reads each word's common prefix with its sorted predecessor by
# one of three rules: the predecessor prefixes the word ("01", "011"); the
# two part at the predecessor's last 0 ("0011", "01"); or, past both, the
# bisecting fallback ("0100", "011": they part before the last 0 of "0100")
PREFIX_RULE_WORDS = ([("01", "011")], [("0011", "01")], [("0100", "011")], [("", "")])


def _prefix_rule_case(seeds):
    words = [u for pair in seeds for u in pair]
    queries = [(u + x, v + x) for u, v in seeds for x in ("", "0", "1")]
    queries += [(u, v) for u in words + ["", "1"] for v in words]
    ops = [("rollback", -1), ("add", [0]), ("mark",), ("rollback", -1), ("add", [0])]
    return seeds, words[:1], queries, ops


@settings(max_examples=300, deadline=None)
@given(case=closure_cases())
@example(case=_prefix_rule_case(PREFIX_RULE_WORDS[0]))
@example(case=_prefix_rule_case(PREFIX_RULE_WORDS[1]))
@example(case=_prefix_rule_case(PREFIX_RULE_WORDS[2]))
@example(case=_prefix_rule_case(PREFIX_RULE_WORDS[3]))
def test_flat_engine_matches_reference(case):
    run_against_reference(*case)


def _pruner_inputs(f, c, d):
    """(seeds, weighted) of every closure `_prune_witnesses` builds in one synthesis."""
    real_prune, real_init = synthesis._prune_witnesses, SuffixCongruence.__init__
    built = []

    def recording_init(self, seeds, weighted=()):
        seeds, weighted = list(seeds), list(weighted)
        built.append((seeds, weighted))
        real_init(self, seeds, weighted)

    def recording_prune(cert):
        with mock.patch.object(SuffixCongruence, "__init__", recording_init):
            return real_prune(cert)

    with mock.patch.object(synthesis, "_prune_witnesses", recording_prune):
        synthesize(f, c, d)
    assert built
    return built


PRUNER_CASES = {"x0 (48, 48)": (X0, 48, 48), "x0^600 (1, 1)": (power(X0, 600), 1, 1)}


def test_flat_engine_matches_reference_on_pruner_input():
    rng = random.Random(20261018)
    for seeds, weighted in _pruner_inputs(*PRUNER_CASES["x0 (48, 48)"]):
        words = [u for pair in seeds for u in pair] + weighted
        queries = [(rng.choice(words), rng.choice(words) + rng.choice(["", "0", "11"])) for _ in range(200)]
        n = len(seeds)
        ops = [("rollback", -1)]
        for _ in range(30):
            kind = rng.choice(["add", "add", "mark", "rollback"])
            if kind == "add":
                lo = rng.randrange(n)
                ops.append(("add", range(lo, min(n, lo + rng.randrange(1, 12)))))
            elif kind == "mark":
                ops.append(("mark",))
            else:
                ops.append(("rollback", rng.randrange(-1, 4)))
        run_against_reference(seeds, weighted, queries, ops)


# --- trie shape ------------------------------------------------------------------


def assert_one_node_per_prefix(seeds, weighted):
    """The trie holds exactly one node per distinct prefix, "" included, of
    the seed and weighted words: with every fold undone, each prefix walks
    to its own node and reads the whole word."""
    cong = _PruningCongruence(seeds, weighted)
    want = prefixes([u for pair in seeds for u in pair] + list(weighted))
    assert len(cong._parent) == len(cong._kids) // 2 == len(want)
    cong.rollback(0)
    reached = set()
    for p in want:
        node, rest = cong.walk(p)
        assert rest == ""
        reached.add(node)
    assert len(reached) == len(want)


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.tuples(words, words), max_size=8), weighted=st.lists(words, max_size=6))
@example(seeds=PREFIX_RULE_WORDS[0], weighted=[])
@example(seeds=PREFIX_RULE_WORDS[1], weighted=[])
@example(seeds=PREFIX_RULE_WORDS[2], weighted=[])
@example(seeds=PREFIX_RULE_WORDS[3], weighted=[""])
# sorted, each word parts from the one before it before that one's last 0, after 5 and 3 letters
@example(seeds=[("0110100", "01110")], weighted=["0110111"])
def test_one_node_per_distinct_prefix(seeds, weighted):
    assert_one_node_per_prefix(seeds, weighted)


@pytest.mark.parametrize("name", sorted(PRUNER_CASES))
def test_one_node_per_distinct_prefix_on_pruner_input(name):
    for seeds, weighted in _pruner_inputs(*PRUNER_CASES[name]):
        assert_one_node_per_prefix(seeds, weighted)


def test_build_memory_is_linear_in_the_seed_letters():
    """A certificate may carry one witness pair of long words, such as
    00 1^D -> 0 1^D (a branch pair of x0). Building its closure must take
    memory linear in D: a build that kept a string per trie prefix would
    hold about D^2 letters."""
    D = 100_000
    u, v = "00" + "1" * D, "0" + "1" * D
    tracemalloc.start()
    try:
        cong = SuffixCongruence([(u, v)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cong._parent) == 2 * D + 3  # "", 0, 00 1^i for i <= D, 0 1^i for 1 <= i <= D
    assert peak < 400 * D, peak
    assert cong.same(u + "01", v + "01") and not cong.same(u, "00")
