import pytest
from hypothesis import given, settings, strategies as st

from thompsonf import (
    AbelianImage,
    IDENTITY,
    X0,
    X1,
    abelianize,
    compose,
    eval_word,
    evaluate,
    flip,
    format_element,
    format_group_word,
    from_branch_pairs,
    from_codes,
    has_branch_pair,
    image_of_interval,
    invert,
    parse_element,
    parse_group_word,
    power,
    slope_left,
    slope_right,
)
from thompsonf.element import InvalidCode, LengthMismatch, UnknownSymbol
from thompsonf.words import Dyadic, ONE, ZERO, word_to_dyadic

from conftest import elements, group_words
from oracles import in_derived

dyadic_points = st.integers(0, 10).flatmap(
    lambda e: st.tuples(st.integers(0, 2 ** e), st.just(e))
).map(lambda a: Dyadic(*a))


def commutator(a, b):
    return compose(compose(invert(a), invert(b)), compose(a, b))


def conjugate(a, b):
    """a^b = b^-1 a b."""
    return compose(compose(invert(b), a), b)


def test_defining_relators_hold():
    y = compose(X0, invert(X1))
    assert commutator(y, conjugate(X1, X0)).is_identity()
    assert commutator(y, conjugate(X1, compose(X0, X0))).is_identity()


def test_generators_are_reduced_tables():
    assert X0.pairs == (("00", "0"), ("01", "10"), ("1", "11"))
    assert X1.pairs == (("0", "0"), ("100", "10"), ("101", "110"), ("11", "111"))


@given(elements, elements, elements)
def test_associativity(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(elements)
def test_inverse_law(f):
    assert compose(f, invert(f)) == IDENTITY
    assert compose(invert(f), f) == IDENTITY
    assert invert(invert(f)) == f


@given(elements, st.integers(-4, 4))
def test_power_agrees_with_iterated_compose(f, k):
    out = IDENTITY
    step = f if k >= 0 else invert(f)
    for _ in range(abs(k)):
        out = compose(out, step)
    assert power(f, k) == out


@given(elements, elements, dyadic_points)
def test_composition_acts_left_to_right(f, g, t):
    assert evaluate(compose(f, g), t) == evaluate(g, evaluate(f, t))


@given(elements, dyadic_points, dyadic_points)
def test_evaluate_is_increasing(f, s, t):
    if s < t:
        assert evaluate(f, s) < evaluate(f, t)
    assert evaluate(f, ZERO) == ZERO
    assert evaluate(f, ONE) == ONE


@given(elements, elements)
def test_abelianize_is_a_homomorphism(f, g):
    af, ag = abelianize(f), abelianize(g)
    assert abelianize(compose(f, g)) == AbelianImage(
        af.at_zero + ag.at_zero, af.at_one + ag.at_one
    )
    assert abelianize(invert(f)) == AbelianImage(-af.at_zero, -af.at_one)


def test_abelianize_of_generators():
    assert abelianize(X0) == AbelianImage(1, -1)
    assert abelianize(X1) == AbelianImage(0, -1)
    assert abelianize(IDENTITY) == AbelianImage(0, 0)


@given(elements)
def test_abelianize_reads_endpoint_slopes(f):
    image = abelianize(f)
    assert image.at_zero == slope_right(f, ZERO)
    assert image.at_one == slope_left(f, ONE)
    assert in_derived(f) == (image == AbelianImage(0, 0))


def test_slopes_past_the_ends_are_refused():
    with pytest.raises(ValueError, match="no right slope at t = 1"):
        slope_right(X0, ONE)
    with pytest.raises(ValueError, match="no left slope at t = 0"):
        slope_left(X0, ZERO)


def test_commutators_land_in_derived_subgroup():
    assert in_derived(commutator(X0, X1))
    assert not in_derived(X0)


@given(elements, elements)
def test_flip_is_an_involutive_automorphism(f, g):
    assert flip(flip(f)) == f
    assert flip(compose(f, g)) == compose(flip(f), flip(g))


def test_flip_swaps_endpoint_data():
    assert flip(X0) == invert(X0)
    a = abelianize(compose(X0, X1))
    b = abelianize(flip(compose(X0, X1)))
    assert (b.at_zero, b.at_one) == (a.at_one, a.at_zero)


@given(elements, st.text(alphabet="01", max_size=6))
def test_image_of_interval_matches_evaluate(f, u):
    v = image_of_interval(f, u)
    if v is None:
        return
    assert evaluate(f, word_to_dyadic(u)) == word_to_dyadic(v)
    assert has_branch_pair(f, u, v)


@given(elements)
def test_branch_pairs_are_refinable(f):
    # every listed pair refines: both children map correspondingly
    for u, v in f.pairs:
        assert image_of_interval(f, u + "0") == v + "0"
        assert image_of_interval(f, u + "1") == v + "1"


def test_reduction_is_canonical():
    bloated = from_branch_pairs(
        [("000", "00"), ("001", "01"), ("01", "10"), ("1", "11")]
    )
    assert bloated == X0
    assert from_codes(("00", "01", "1"), ("0", "10", "11")) == X0


def test_from_codes_validates():
    with pytest.raises(LengthMismatch):
        from_codes(("0", "1"), ("0", "10", "11"))
    with pytest.raises(InvalidCode):
        from_codes(("0", "11"), ("0", "10"))


@given(elements)
def test_element_text_round_trip(f):
    assert parse_element(format_element(f)) == f


def test_equal_elements_hash_equal_and_are_immutable():
    built = [parse_element("# x0\n000 -> 00\n001 -> 01\n01 -> 10\n1 -> 11\n"),
             from_codes(("00", "01", "1"), ("0", "10", "11")), compose(X0, IDENTITY), X0]
    assert len({hash(f) for f in built}) == 1
    assert len(set(built)) == 1 and {X0: 1}[built[0]] == 1
    with pytest.raises(AttributeError):
        built[0].pairs = X1.pairs
    assert built[0] == X0


def test_parse_element_accepts_comments():
    text = "# generator\n00 -> 0\n01 -> 10\n1 -> 11\n"
    assert parse_element(text) == X0
    with pytest.raises(ValueError):
        parse_element("# nothing\n")


@given(group_words)
def test_group_word_round_trip(word):
    reduced = parse_group_word(format_group_word(word))
    assert eval_word(reduced, {"x0": X0, "x1": X1}) == eval_word(
        word, {"x0": X0, "x1": X1}
    )


def test_eval_word_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        eval_word((("y", 1),), {"x0": X0})


@settings(max_examples=40)
@given(elements)
def test_repr_is_stable(f):
    assert f == from_branch_pairs(f.pairs)
