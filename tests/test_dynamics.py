import pytest
from hypothesis import example, given, settings

from thompsonf import (
    IDENTITY,
    X0,
    X1,
    abelianize,
    compose,
    flip,
    has_branch_pair,
    invert,
    power,
)
from thompsonf.dynamics import IdentityInput, PreconditionViolated, find_uvw
from thompsonf.words import in_B_prime, word_to_dyadic
from thompsonf.element import evaluate
from thompsonf.synthesis import _tail_pair

from conftest import elements
from oracles import left_fixed_boundary, reference_tail_pair, reference_uvw, zero_tail_pair


def as_tuple(t):
    return (t.sign, t.u, t.v, t.w)


def test_uvw_of_generators():
    assert as_tuple(find_uvw(X0)) == (1, "0001", "001", "01")
    assert as_tuple(find_uvw(X1)) == (1, "10001", "1001", "101")


def test_uvw_of_inverse_flips_sign():
    assert as_tuple(find_uvw(invert(X0))) == (-1, "0001", "001", "01")


@settings(max_examples=60)
@given(elements)
def test_uvw_contract(f):
    if f.is_identity():
        with pytest.raises(IdentityInput):
            find_uvw(f)
        return
    t = find_uvw(f)
    h = f if t.sign == 1 else invert(f)
    # the defining property: h carries u -> v and v -> w
    assert has_branch_pair(h, t.u, t.v)
    assert has_branch_pair(h, t.v, t.w)
    for x in (t.u, t.v, t.w):
        assert in_B_prime(x)
    assert t.u < t.v < t.w
    assert not t.v.startswith(t.u)
    assert not t.w.startswith(t.v)


@settings(max_examples=60)
@given(elements)
def test_left_fixed_boundary_is_fixed(f):
    if f.is_identity():
        with pytest.raises(IdentityInput):
            left_fixed_boundary(f)
        return
    s = left_fixed_boundary(f)
    assert not s.endswith("0")
    # f is the identity on [0, .s]: every prefix point is fixed
    for j in range(len(s) + 1):
        t = word_to_dyadic(s[:j])
        assert evaluate(f, t) == t
    # and the moved triple starts at or after .s
    triple = find_uvw(f)
    assert word_to_dyadic(triple.u) >= word_to_dyadic(s)


def test_fixed_boundary_examples():
    assert left_fixed_boundary(X0) == ""
    assert left_fixed_boundary(X1) == "1"
    assert left_fixed_boundary(power(X1, 3)) == "1"


def test_zero_tail_pair_reads_the_first_branch():
    assert zero_tail_pair(X0, "") == (2, 1)
    with pytest.raises(PreconditionViolated):
        zero_tail_pair(X1, "")  # slope 1 at 0+
    with pytest.raises(PreconditionViolated):
        zero_tail_pair(invert(X0), "")  # slope 1/2 at 0+, need >= 2
    assert zero_tail_pair(X1, "1") == (2, 1)


@settings(max_examples=60)
@given(elements)
@example(X0)
@example(X1)
@example(invert(X0))
def test_tail_pair_contract(f):
    # each end of non-zero slope has a tail pair t^n -> t^m of the power of f
    # expanding there, and the one at 1 is the one at 0 of flip(f)
    for t, slope in zip("01", abelianize(f)):
        if slope == 0:
            continue
        word, n, m = _tail_pair(f, t)
        ((name, sign),) = word
        assert (name, sign) == ("f", 1 if slope > 0 else -1)
        assert n > m >= 0
        assert has_branch_pair(f if sign > 0 else invert(f), t * n, t * m)
        if t == "1":
            assert _tail_pair(f, "1") == _tail_pair(flip(f), "0")


@settings(max_examples=200)
@given(elements)
@example(invert(X1))  # alpha = 1/2 and h = f^-1: the first moving row is the second
@example(power(X1, -600))
def test_row_reads_match_the_searches(f):
    # the triple and the tail pairs read off f's rows are what the fixed
    # boundary and tail pair searches derive, on f or on invert(f)
    if f.is_identity():
        return
    assert as_tuple(find_uvw(f)) == reference_uvw(f)
    for t, slope in zip("01", abelianize(f)):
        if slope:
            assert _tail_pair(f, t) == reference_tail_pair(f, t)


def test_uvw_handles_elements_fixing_a_left_interval():
    # x1 is the identity on [0, 1/2]; the triple must sit right of it
    t = find_uvw(X1)
    assert t.u.startswith("1")
    f = power(X1, 2)
    t2 = find_uvw(f)
    assert evaluate(f, word_to_dyadic(t2.u)) == word_to_dyadic(t2.v)


def test_identity_input():
    with pytest.raises(IdentityInput):
        find_uvw(IDENTITY)
    with pytest.raises(IdentityInput):
        find_uvw(compose(X0, invert(X0)))
