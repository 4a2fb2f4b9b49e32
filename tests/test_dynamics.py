import pytest
from hypothesis import given, settings

from thompsonf import (
    IDENTITY,
    X0,
    X1,
    abelianize,
    compose,
    has_branch_pair,
    invert,
    power,
)
from thompsonf.dynamics import (
    IdentityInput,
    PreconditionViolated,
    find_uvw,
    left_fixed_boundary,
    one_tail_pair,
    zero_tail_pair,
)
from thompsonf.words import in_B_prime, interval_less, word_to_dyadic
from thompsonf.element import evaluate

from conftest import elements


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
    assert interval_less(t.u, t.v)
    assert interval_less(t.v, t.w)


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


def test_one_tail_pair_of_generators():
    assert one_tail_pair(X0) == (-1, 2, 1)
    assert one_tail_pair(X1) == (-1, 3, 1)
    assert one_tail_pair(invert(X0)) == (1, 2, 1)
    with pytest.raises(PreconditionViolated):
        one_tail_pair(compose(X0, invert(X1)))  # slope 1 at 1-


@settings(max_examples=60)
@given(elements)
def test_one_tail_pair_contract(f):
    b = abelianize(f).at_one
    if b == 0:
        with pytest.raises(PreconditionViolated):
            one_tail_pair(f)
        return
    sign, m, ell = one_tail_pair(f)
    assert sign == (1 if b > 0 else -1)
    assert m > ell >= 1
    h = f if sign == 1 else invert(f)
    assert has_branch_pair(h, "1" * m, "1" * (m - ell))


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


def test_output_guards_raise_without_asserts(monkeypatch):
    # the guards must survive python -O, so they raise instead of asserting
    import thompsonf.dynamics as dynamics

    monkeypatch.setattr(dynamics, "has_branch_pair", lambda h, u, v: False)
    with pytest.raises(PreconditionViolated):
        find_uvw(X0)
    with pytest.raises(PreconditionViolated):
        one_tail_pair(X0)
