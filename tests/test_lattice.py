import math
import time
from math import gcd

import pytest
from hypothesis import given, strategies as st

from thompsonf.lattice import (
    INFINITE,
    NotUnimodular,
    RectangularForm,
    companion_rectangular,
    complete_basis,
    index_of,
)

from oracles import lattice_contains, reference_rectangular_split

vecs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


def brute_index(v1, v2) -> float:
    """Count cosets of span(v1, v2) in Z^2 inside a box of full periods."""
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det == 0:
        return INFINITE
    box = abs(det)
    members = set()
    for i in range(-box, box + 1):
        for j in range(-box, box + 1):
            x = i * v1[0] + j * v2[0]
            y = i * v1[1] + j * v2[1]
            members.add((x % box, y % box))
    return box * box // len(members)


@given(vecs, vecs)
def test_index_matches_coset_count(v1, v2):
    assert index_of((v1, v2)) == brute_index(v1, v2)


def test_index_examples():
    assert index_of(((1, 0), (0, 1))) == 1
    assert index_of(((2, 0), (0, 3))) == 6
    assert index_of(((2, 4), (1, 2))) == INFINITE
    assert index_of(((0, 0), (0, 0))) == INFINITE
    assert index_of(((6, 4), (4, 3))) == 2


@given(vecs, vecs, vecs)
def test_lattice_contains_is_linear_combination(v1, v2, target):
    got = lattice_contains((v1, v2), target)
    # oracle: scan small coefficient boxes, plus the determinant criterion
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det != 0:
        # Cramer: target in lattice iff both solved coefficients are integral
        s = target[0] * v2[1] - target[1] * v2[0]
        t = v1[0] * target[1] - v1[1] * target[0]
        assert got == (s % det == 0 and t % det == 0)
    elif got:
        found = any(
            (i * v1[0] + j * v2[0], i * v1[1] + j * v2[1]) == tuple(target)
            for i in range(-40, 41)
            for j in range(-40, 41)
        )
        assert found


def test_companion_examples():
    assert companion_rectangular(6, 4) == (4, 3, RectangularForm(2, 1))
    assert companion_rectangular(1, 1) == (0, 1, RectangularForm(1, 1))
    assert companion_rectangular(1, 0) == (0, 1, RectangularForm(1, 1))
    assert companion_rectangular(0, -5) == (1, 0, RectangularForm(1, 5))


@given(vecs)
def test_companion_contract(v):
    a, b = v
    if a == 0 and b == 0:
        with pytest.raises(ValueError):
            companion_rectangular(a, b)
        return
    c, d, form = companion_rectangular(a, b)
    g = gcd(a, b)
    assert form.p * form.q == g
    basis = ((a, b), (c, d))
    assert index_of(basis) == g
    # lattice equality with pZ x qZ by mutual generator membership
    rect = ((form.p, 0), (0, form.q))
    assert lattice_contains(basis, (form.p, 0))
    assert lattice_contains(basis, (0, form.q))
    assert lattice_contains(rect, (a, b))
    assert lattice_contains(rect, (c, d))
    if a:
        # c = n*p with n the least non-negative Bezout solution, below |q*a'|
        assert 0 <= c // form.p < abs(form.q * (a // g))


def test_companion_split_matches_factoring():
    for a in range(-60, 61):
        for b in range(-60, 61):
            if a and b:
                form = companion_rectangular(a, b)[2]
                assert (form.p, form.q) == reference_rectangular_split(a, b), (a, b)


def test_companion_of_a_large_prime_gcd_is_fast():
    # gcd 2^61 - 1 is prime: trial division would run to its square root
    m = 2**61 - 1
    start = time.perf_counter()
    assert companion_rectangular(m, m) == (0, 1, RectangularForm(m, 1))
    assert companion_rectangular(12 * m, 18 * m)[2] == RectangularForm(3 * m, 2)
    assert time.perf_counter() - start < 0.5


@given(vecs)
def test_complete_basis_contract(v):
    a, b = v
    if gcd(a, b) != 1:
        with pytest.raises((NotUnimodular, ValueError)):
            complete_basis(a, b)
        return
    c, d = complete_basis(a, b)
    assert abs(a * d - b * c) == 1
    assert index_of(((a, b), (c, d))) == 1


def test_infinite_is_math_inf():
    assert INFINITE == math.inf
