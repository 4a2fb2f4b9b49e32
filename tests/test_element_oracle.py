"""Differential tests of the element core against slow reference versions.

The references are the original table-rescanning implementations: compose
over the union of both codes' trees, with a whole-table scan per leaf, and a
linear scan for the branch that contains a point. They are kept here as
oracles for the merge-based compose, the squaring power and the bisect
locator. The references are quadratic, so the properties run without a
per-example deadline.
"""

import pytest
from hypothesis import given, settings, strategies as st

from thompsonf import (
    IDENTITY,
    X0,
    X1,
    Element,
    InvalidCode,
    common_refinement,
    compose,
    evaluate,
    image_of_interval,
    invert,
    power,
    slope_left,
    slope_right,
)
from thompsonf.element import _reduce_pairs
from thompsonf.words import Dyadic, word_to_dyadic

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
