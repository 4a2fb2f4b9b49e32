import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thompsonf.words import (
    Dyadic,
    ONE,
    ZERO,
    in_B_prime,
    is_complete_prefix_code,
    parse_dyadic,
    parse_int,
    word_to_dyadic,
)

from oracles import interval_endpoints, is_prefix

# normalized points of [0,1]: numerator drawn within the exponent's range
raw = st.integers(0, 12).flatmap(
    lambda e: st.tuples(st.integers(0, 2 ** e), st.just(e))
)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2 ** d.exp)


@given(raw, raw)
def test_comparisons_match_fractions(a, b):
    x, y = Dyadic(*a), Dyadic(*b)
    assert (x < y) == (as_fraction(x) < as_fraction(y))
    assert (x <= y) == (as_fraction(x) <= as_fraction(y))
    assert (x > y) == (as_fraction(x) > as_fraction(y))
    assert (x >= y) == (as_fraction(x) >= as_fraction(y))
    assert (x == y) == (as_fraction(x) == as_fraction(y))


def test_dyadic_keeps_the_dataclass_contract():
    half = Dyadic(2, 2)
    assert repr(half) == "Dyadic(num=1, exp=1)"
    assert hash(half) == hash(Dyadic(1, 1)) == hash(Dyadic(4, 3))
    # replace() builds through the normalizing constructor
    assert replace(Dyadic(1, 1), num=2) == ONE
    assert replace(Dyadic(1, 1), num=2).exp == 0
    with pytest.raises(FrozenInstanceError):
        half.num = 3
    assert Dyadic.__match_args__ == ("num", "exp")
    match half:
        case Dyadic(num, exp):
            assert (num, exp) == (1, 1)


@given(raw)
def test_normal_form_is_canonical(a):
    x = Dyadic(*a)
    assert x.exp == 0 or x.num % 2 == 1
    assert x == Dyadic(x.num * 4, x.exp + 2)
    assert 0 <= as_fraction(x) <= 1


def test_range_is_unit_interval():
    with pytest.raises(ValueError):
        Dyadic(-1, 2)
    with pytest.raises(ValueError):
        Dyadic(5, 2)
    with pytest.raises(ValueError):
        Dyadic(1, -1)
    with pytest.raises(ValueError):
        Dyadic(8, 2)
    assert Dyadic(4, 2) == ONE


def test_huge_exponents_normalize_at_once():
    # neither the range check nor the normalization walks the exponent
    assert Dyadic(0, 10**12) == Dyadic(0, 0)
    assert Dyadic(3 << 40, 50) == Dyadic(3, 10)
    assert Dyadic(1 << 64, 64) == ONE
    with pytest.raises(ValueError):
        Dyadic((1 << 64) + 1, 64)
    a, b = Dyadic(1, 10**12), Dyadic(3, 10**12 + 1)
    assert a < b and a <= b and b > a and b >= a
    assert a <= a and a >= a and not a < a and not a > a


def test_comparison_shifts_by_the_exponents_difference():
    # a shift by a whole exponent would build 2^(10^7) here
    a, b = Dyadic(1, 10**7), Dyadic(3, 10**7 + 1)
    tracemalloc.start()
    try:
        assert a < b and a <= a and b > a and b >= b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_comparison_decides_distant_magnitudes_without_shifting():
    # a shift by the exponents' difference would build 2^(10^8) (12.5 MB) for
    # the first pair and 2^(10^12) (125 GB) for the second, which is why the
    # first pair is compared first
    for small, large in ((Dyadic(1, 10**8), Dyadic(1, 1)), (Dyadic(3, 10**12), Dyadic(1, 2))):
        for x, y in ((small, large), (large, small)):
            tracemalloc.start()
            try:
                less = x < y
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10**6
            assert less is (x is small)


def test_display():
    assert str(Dyadic(1, 1)) == "1/2"
    assert str(Dyadic(3, 2)) == "3/4"
    assert str(ONE) == "1"
    assert str(ZERO) == "0"
    assert Dyadic(5, 3).binary_str() == ".101"
    assert Dyadic(5, 3).to_word() == "101"
    assert Dyadic(1, 1).to_word() == "1"
    with pytest.raises(ValueError):
        ONE.to_word()


def test_display_past_the_int_to_str_limit_reads_back():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this Python converts ints of any size to decimal")
    e = (10**limit).bit_length()  # the least exponent whose 2^e passes the limit
    below, past, full = Dyadic(3, e - 1), Dyadic(3, e), Dyadic((1 << e) - 1, e)
    assert str(below) == f"3/{1 << (e - 1)}"
    assert str(past) == past.binary_str()
    for d in (below, past, full):
        assert parse_dyadic(str(d)) == d


@pytest.mark.parametrize(
    "text, num, exp",
    [
        ("0", 0, 0),
        ("1", 1, 0),
        ("1/2", 1, 1),
        ("3/8", 3, 3),
        ("5/2^4", 5, 4),
        ("2/4", 1, 1),
        (".101", 5, 3),
        (".0", 0, 0),
    ],
)
def test_parse_dyadic(text, num, exp):
    assert parse_dyadic(text) == Dyadic(num, exp)


@pytest.mark.parametrize(
    "text",
    ["1/3", "2/5", "x", "", ".", "1/0", "9/8", "2", "1_0/2^4", "\u0661/2", "1/2^0_4", "1/ 2"],
)
def test_parse_dyadic_rejects(text):
    with pytest.raises(ValueError):
        parse_dyadic(text)


def test_parse_int_reads_ascii_digits_with_an_optional_sign():
    assert [parse_int(t) for t in ("0", "-12", "+3", "007")] == [0, -12, 3, 7]
    for text in ("", "+", " 1", "1 ", "1_0", "\u0663", "1.0", "0x1"):
        with pytest.raises(ValueError):
            parse_int(text)


@given(st.text(alphabet="01", min_size=0, max_size=12))
def test_word_interval_consistency(u):
    lo, hi = interval_endpoints(u)
    assert lo == word_to_dyadic(u)
    assert as_fraction(hi) - as_fraction(lo) == Fraction(1, 2 ** len(u))


@given(st.text(alphabet="01", max_size=8), st.text(alphabet="01", max_size=8))
def test_prefix_relations(u, v):
    assert is_prefix(u, v) == v.startswith(u)


def test_complete_prefix_codes():
    assert is_complete_prefix_code([""])
    assert is_complete_prefix_code(["0", "10", "11"])
    assert not is_complete_prefix_code(["0", "10"])
    assert not is_complete_prefix_code(["0", "1", "11"])
    assert not is_complete_prefix_code([])


def test_B_prime_membership():
    assert in_B_prime("01")
    assert in_B_prime("10")
    assert in_B_prime("101")
    assert not in_B_prime("0")
    assert not in_B_prime("11")
    assert not in_B_prime("")
