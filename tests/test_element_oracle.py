"""Differential tests of the element core against slow reference versions.

The references are the original table-rescanning implementations: compose
over the union of both codes' trees, with a whole-table scan per leaf, a
linear scan for the branch that contains a point, and a group word evaluated
as a left fold, one letter at a time. They are kept here as oracles for the
merge-based compose, the squaring power, the bisect locator and the tree
surgery that evaluates group words, which is also checked against the
balanced product of `tests/oracles.py`. The references are quadratic, so the
properties run without a per-example deadline.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from thompsonf import (
    IDENTITY,
    X0,
    X1,
    Element,
    InvalidCode,
    UnknownSymbol,
    compose,
    eval_word,
    evaluate,
    flip,
    format_element,
    image_of_interval,
    invert,
    parse_element,
    power,
    slope_left,
    slope_right,
    synthesize,
)
from thompsonf import element
from thompsonf.element import _reduce_pairs
from thompsonf.words import Dyadic, word_to_dyadic

from oracles import balanced_product, common_refinement

# --- reference implementations -------------------------------------------------


def _tree_closure(code) -> set[str]:
    return {u[:i] for u in code for i in range(len(u) + 1)}


def _leaves_of(nodes: set[str]) -> list[str]:
    out: list[str] = []
    stack = [""]
    while stack:
        node = stack.pop()
        if node + "0" in nodes or node + "1" in nodes:
            stack.append(node + "1")
            stack.append(node + "0")
        else:
            out.append(node)
    return out


def reference_refinement(code1, code2) -> list[str]:
    return _leaves_of(_tree_closure(code1) | _tree_closure(code2))


def _preimage(f: Element, s: str) -> str:
    for u, v in f.pairs:
        if s.startswith(v):
            return u + s[len(v):]
    raise ValueError(f"word {s!r} not under any range branch")


def _image(f: Element, s: str) -> str:
    for u, v in f.pairs:
        if s.startswith(u):
            return v + s[len(u):]
    raise ValueError(f"word {s!r} not under any domain branch")


def reference_compose(f: Element, g: Element) -> Element:
    mid = reference_refinement(f.range, g.domain)
    return Element(_reduce_pairs([(_preimage(f, s), _image(g, s)) for s in mid]))


def reference_word(letters) -> Element:
    out = IDENTITY
    for gen, sign in letters:
        out = reference_compose(out, gen if sign > 0 else invert(gen))
    return out


def reference_eval_word(word, assignment) -> Element:
    out = None
    for name, exp in word:
        if name not in assignment:
            raise UnknownSymbol(name)
        step = power(assignment[name], exp)
        out = step if out is None else compose(out, step)
    return IDENTITY if out is None else out


def _scan_branch(f: Element, stem: str, tail: str) -> tuple[str, str]:
    for u, v in f.pairs:
        if stem.startswith(u):
            return u, v
        if u.startswith(stem) and set(u[len(stem):]) <= {tail}:
            return u, v
    raise ValueError(f"no branch at .{stem} with tail {tail!r}")


def scan_evaluate(f: Element, t: Dyadic) -> Dyadic:
    if t.num == (1 << t.exp):
        return t
    s = t.to_word()
    u, v = _scan_branch(f, s, "0")
    return word_to_dyadic(v + s[len(u):])


def scan_slope_right(f: Element, t: Dyadic) -> int:
    u, v = _scan_branch(f, t.to_word(), "0")
    return len(u) - len(v)


def scan_slope_left(f: Element, t: Dyadic) -> int:
    stem = "" if t.num == (1 << t.exp) else t.to_word()[:-1] + "0"
    u, v = _scan_branch(f, stem, "1")
    return len(u) - len(v)


def scan_image_of_interval(f: Element, u: str) -> str | None:
    for ui, vi in f.pairs:
        if u.startswith(ui):
            return vi + u[len(ui):]
    covering = [(ui, vi) for ui, vi in f.pairs if ui.startswith(u)]
    u0, v0 = covering[0]
    sigma = u0[len(u):]
    if not v0.endswith(sigma):
        return None
    v = v0[: len(v0) - len(sigma)] if sigma else v0
    if any(vi != v + ui[len(u):] for ui, vi in covering[1:]):
        return None
    return v


# --- strategies -----------------------------------------------------------------

letters = st.lists(
    st.tuples(st.sampled_from((X0, X1)), st.sampled_from((1, -1))), max_size=15
)
reference_elements = letters.map(reference_word)
# h f h^-1: f's moves carried elsewhere, with rows of many depths
conjugates = st.tuples(reference_elements, reference_elements).map(
    lambda hf: compose(compose(hf[0], hf[1]), invert(hf[0]))
)
GENS = {"x0": X0, "x1": X1, "id": IDENTITY}


def rich_words(names, exponents):
    """Group words over names, exponents drawn from exponents, with cancellations.

    Leaves are single letters, cancelling neighbours x^a x^-a and zero-sum
    runs x^a x^b x^-(a+b); branches concatenate, or conjugate a word by a
    letter so that folding the middle away cascades into the letters around it.
    """
    names = st.sampled_from(names)
    letters = st.tuples(names, st.sampled_from(exponents))
    leaves = st.one_of(
        letters.map(lambda t: [t]),
        letters.map(lambda t: [t, (t[0], -t[1])]),
        st.tuples(names, st.integers(1, 2), st.integers(1, 2)).map(
            lambda t: [(t[0], t[1]), (t[0], t[2]), (t[0], -t[1] - t[2])]
        ),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map(lambda ws: [x for w in ws for x in w]),
            st.tuples(letters, inner).map(lambda t: [t[0], *t[1], (t[0][0], -t[0][1])]),
        ),
        max_leaves=25,
    ).map(lambda w: tuple(w[:60]))


rich_group_words = rich_words(tuple(GENS), (1, -1, 2, -2, 3))
# f and g are bound to random reduced elements, so the surgery cuts along
# trees other than the generators'; x1 is X1 and x0 a copy of X0 read back
# from its text, so their letters rotate the range tree in the same words
bound_words = rich_words(("f", "g", "id", "x0", "x1"), (1, -1, 2, -2, 3, -3, 5, -5, 9, -9))
READ_BACK_X0 = parse_element(format_element(X0))
points = st.integers(0, 14).flatmap(
    lambda e: st.tuples(st.integers(0, 2 ** e), st.just(e))
).map(lambda a: Dyadic(*a))


# --- properties -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(reference_elements, reference_elements)
def test_compose_matches_reference(f, g):
    assert compose(f, g) == reference_compose(f, g)
    assert compose(f, g).pairs == reference_compose(f, g).pairs


@settings(deadline=None)
@given(reference_elements, reference_elements)
def test_common_refinement_matches_tree_union(f, g):
    assert common_refinement(f.range, g.domain) == reference_refinement(
        f.range, g.domain
    )


def test_common_refinement_rejects_unsorted_or_incomplete_codes():
    for code1, code2 in ((["1", "0"], ["0", "1"]), (["0"], ["0", "1"]), (["0", "1"], [])):
        with pytest.raises(InvalidCode):
            common_refinement(code1, code2)
        with pytest.raises(InvalidCode):
            common_refinement(code2, code1)


@settings(max_examples=60, deadline=None)
@given(reference_elements, st.integers(-40, 40))
def test_power_matches_iterated_reference(f, k):
    step = f if k >= 0 else invert(f)
    out = IDENTITY
    for _ in range(abs(k)):
        out = reference_compose(out, step)
    assert power(f, k) == out


def test_generator_powers_match_iterated_reference():
    for gen in (X0, X1, invert(X0), invert(X1)):
        out = IDENTITY
        for k in range(41):
            assert power(gen, k) == out
            assert power(invert(gen), -k) == out
            out = reference_compose(out, gen)


@settings(max_examples=300, deadline=None)
@given(reference_elements, points)
def test_locator_matches_scan_at_points(f, t):
    assert evaluate(f, t) == scan_evaluate(f, t)
    if t.num != (1 << t.exp):
        assert slope_right(f, t) == scan_slope_right(f, t)
    if t.num != 0:
        assert slope_left(f, t) == scan_slope_left(f, t)


@settings(max_examples=300, deadline=None)
@given(reference_elements, st.text(alphabet="01", max_size=10))
def test_locator_matches_scan_on_intervals(f, u):
    assert image_of_interval(f, u) == scan_image_of_interval(f, u)


@settings(max_examples=200, deadline=None)
@given(st.one_of(reference_elements, conjugates))
def test_no_ancestor_of_a_row_is_a_branch(f):
    # random words seldom contain two rows, so ask about every proper prefix
    # of every domain word: in a reduced table none is carried linearly
    for u in {x[:i] for x in f.domain for i in range(len(x))}:
        assert image_of_interval(f, u) is None
        assert scan_image_of_interval(f, u) is None


@settings(max_examples=300, deadline=None)
@given(rich_group_words)
def test_eval_word_matches_left_fold(word):
    assert eval_word(word, GENS).pairs == reference_eval_word(word, GENS).pairs


def test_eval_word_edge_cases():
    for word in [(), (("id", 5),), (("id", 3), ("id", -1))]:
        assert eval_word(word, GENS) == IDENTITY
    with pytest.raises(UnknownSymbol):
        eval_word((("y", 1), ("y", -1)), {"x0": X0, "x1": X1})
    assert eval_word((("x0", 1), ("x0", -1), ("x1", 1)), GENS).pairs == X1.pairs
    # only the identity has a huge power that stays small: its runs are dropped,
    # not applied 10^12 times
    assert eval_word((("id", 10**12), ("x0", 1)), GENS) == X0
    assert eval_word((("x1", 1), ("id", -(10**12)), ("x0", 1)), GENS) == compose(X1, X0)


# f and g for the examples below: neither is x0, x1 or the identity, so each
# of their runs is a power piece between the rotation pieces
EXAMPLE_F, EXAMPLE_G = compose(X0, X1), compose(invert(X1), power(X0, 2))


@settings(max_examples=300, deadline=None)
@given(reference_elements, reference_elements, bound_words)
@example(EXAMPLE_F, EXAMPLE_G, (("f", 2), ("x0", 1), ("x1", -1)))  # a piece first
@example(EXAMPLE_F, EXAMPLE_G, (("x1", 1), ("x0", -2), ("g", 3)))  # a piece last
@example(  # rotations between two pieces
    EXAMPLE_F, EXAMPLE_G, (("f", -1), ("x0", 2), ("id", 5), ("x1", 1), ("g", -1))
)
@example(EXAMPLE_F, EXAMPLE_G, (("id", 3), ("id", -1)))  # identity runs only
@example(  # five pieces: the last one is left unpaired at the first level
    EXAMPLE_F, EXAMPLE_G, (("f", 1), ("x0", 1), ("g", 2), ("x1", -1), ("f", -1))
)
def test_eval_word_matches_left_fold_and_balanced_product(f, g, word):
    assert READ_BACK_X0 == X0 and READ_BACK_X0 is not X0
    assignment = {"f": f, "g": g, "id": IDENTITY, "x0": READ_BACK_X0, "x1": X1}
    got = eval_word(word, assignment).pairs
    assert got == reference_eval_word(word, assignment).pairs
    steps = [power(assignment[name], exp) for name, exp in word]
    assert got == balanced_product(steps).pairs


def test_generators_rotate_when_read_back_from_text(monkeypatch):
    # names are classified by table, so copies of x0 and x1 rotate like the
    # originals: their word merges no table and spells the same element
    word = (("x0", 3), ("x1", -2), ("x0", -1), ("x1", 5))
    copies = {"x0": READ_BACK_X0, "x1": parse_element(format_element(X1))}
    assert copies["x1"] == X1 and copies["x1"] is not X1
    got = []
    assert _merged_pairs(monkeypatch, lambda: got.append(eval_word(word, copies))) == 0
    assert got[0].pairs == eval_word(word, GENS).pairs


@settings(max_examples=300, deadline=None)
@given(reference_elements)
def test_invert_and_flip_tables_are_reduced(f):
    inverse, mirror = invert(f).pairs, flip(f).pairs
    assert inverse == _reduce_pairs(inverse) == _reduce_pairs([(v, u) for u, v in f.pairs])
    complement = str.maketrans("01", "10")
    mirrored = [(u.translate(complement), v.translate(complement)) for u, v in reversed(f.pairs)]
    assert mirror == _reduce_pairs(mirror) == _reduce_pairs(mirrored)


def _merged_pairs(monkeypatch, evaluate_word) -> int:
    total = 0
    merge = element._merge

    def counting_merge(fp, gp):
        nonlocal total
        total += len(fp) + len(gp)
        return merge(fp, gp)

    monkeypatch.setattr(element, "_merge", counting_merge)
    evaluate_word()
    monkeypatch.undo()
    return total


def test_eval_word_merges_nothing_and_bounds_its_table(monkeypatch):
    # the surgery splits at most carets(letter) leaves per letter, from one
    # leaf, so the table it spells has at most 1 + sum |k| carets pairs;
    # the balanced product of the same letters shows the merge counter works
    n = 4000
    rng = random.Random(20240817)
    word = tuple((rng.choice(("x0", "x1")), rng.choice((1, -1))) for _ in range(n))
    spelled = []
    reduce_pairs = element._reduce_pairs

    def recording_reduce(pairs):
        spelled.append(len(pairs))
        return reduce_pairs(pairs)

    monkeypatch.setattr(element, "_reduce_pairs", recording_reduce)
    # _merged_pairs undoes both patches once eval_word returns
    assert _merged_pairs(monkeypatch, lambda: eval_word(word, GENS)) == 0
    steps = [power(GENS[name], exp) for name, exp in word]
    assert _merged_pairs(monkeypatch, lambda: balanced_product(steps)) > 0
    carets = sum(abs(exp) * (len(GENS[name].pairs) - 1) for name, exp in word)
    assert len(spelled) == 1 and spelled[0] <= 1 + carets


def _slow_conjugate() -> Element:
    """h x0 h^-1 for a random 60-letter h: 26 carets, about two more a power."""
    rng = random.Random(7)
    h = tuple((rng.choice(("x0", "x1")), rng.choice((1, -1))) for _ in range(60))
    return eval_word(h + (("x0", 1),) + tuple((a, -e) for a, e in reversed(h)), GENS)


@pytest.mark.parametrize("k", [1, 2, 9, 1200, -1200])
@pytest.mark.parametrize("name", ["x0", "x1"])
def test_a_lone_generator_run_rotates(monkeypatch, name, k):
    # one run of x0 or x1 is one rotation loop, as in a longer word, not a power
    got = []
    assert _merged_pairs(monkeypatch, lambda: got.append(eval_word(((name, k),), GENS))) == 0
    assert got == [power(GENS[name], k)]


@pytest.mark.parametrize("k", [1, -1, 3])
def test_a_lone_run_of_another_element_is_one_power(monkeypatch, k):
    f = _slow_conjugate()
    products = []
    monkeypatch.setattr(element, "_tree_product", products.append)
    got = eval_word((("f", k),), {"f": f})
    assert products == []
    assert got == reference_eval_word((("f", k),), {"f": f})


def test_eval_word_powers_each_run_of_another_element_once(monkeypatch):
    # each run f^k of an element other than x0, x1 and the identity is one
    # power(f, k), a slow-growing conjugate and the partner g of x0 alike;
    # rotation runs between them call no power, and identity runs are dropped
    f = _slow_conjugate()
    g = synthesize(X0, 1, 1).g
    calls, real_power = [], element.power

    def counting_power(e, k):
        calls.append(k)
        return real_power(e, k)

    monkeypatch.setattr(element, "power", counting_power)
    word = (("f", 300), ("x1", 1), ("g", 40), ("f", -9), ("g", -2), ("f", 8))
    assignment = {"f": f, "g": g, "x1": X1, "id": IDENTITY}
    got = eval_word(word, assignment)
    assert calls == [300, 40, -9, -2, 8]
    del calls[:]
    assert eval_word((("id", 5), ("x1", 1), ("id", -3)), assignment) == X1
    assert calls == []
    monkeypatch.undo()
    assert got == balanced_product([power(assignment[name], k) for name, k in word])
