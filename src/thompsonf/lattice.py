"""Exact rank-2 integer lattice computations.

Abelianization images of elements of F live in Z^2; the subgroup
generated by two images is a lattice whose index in Z^2 is |det|. The
rectangularizing companion turns one non-zero vector (a,b) into a pair
spanning exactly pZ x qZ with pq = gcd(a,b).
"""

from __future__ import annotations

import math
from typing import NamedTuple

INFINITE = math.inf

Vec = tuple[int, int]
LatticeBasis = tuple[Vec, Vec]


class ZeroInput(ValueError):
    pass


class NotUnimodular(ValueError):
    pass


class RectangularForm(NamedTuple):
    p: int
    q: int


def index_of(basis: LatticeBasis):
    """|det| as the subgroup index in Z^2; INFINITE when degenerate."""
    (a, b), (c, d) = basis
    det = a * d - b * c
    return abs(det) if det else INFINITE


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def companion_rectangular(a: int, b: int) -> tuple[int, int, RectangularForm]:
    """(c, d, (p, q)) with <(a,b),(c,d)> = pZ x qZ and pq = gcd(a,b).

    Construction: split g = gcd(a,b) as g = pq where q collects the prime
    powers of g whose prime divides a' = a/g (and p the rest); qa' and pb'
    are then coprime, so m(qa') - n(pb') = 1 is solvable; (c,d) = (np, mq).
    n is the least non-negative solution, read off the inverse of pb' mod |qa'|.
    """
    if a == 0 and b == 0:
        raise ZeroInput("(0,0) spans nothing")
    if a == 0:
        return 1, 0, RectangularForm(1, abs(b))
    if b == 0:
        return 0, 1, RectangularForm(abs(a), 1)
    g = math.gcd(a, b)
    ap, bp = a // g, b // g
    # peel q off g by gcds: d holds every prime of a' still dividing p
    p, q, d = g, 1, math.gcd(g, ap)
    while d > 1:
        p //= d
        q *= d
        d = math.gcd(p, d)
    # the least n >= 0 with m*A - n*B = 1 is -B^-1 mod |A|; A and B are coprime
    A, B = q * ap, p * bp
    n = -pow(B, -1, abs(A)) % abs(A)
    m = (1 + n * B) // A
    return n * p, m * q, RectangularForm(p, q)


def complete_basis(a: int, b: int) -> tuple[int, int]:
    """A companion (c, d) with |ad - bc| = 1; requires gcd(a, b) = 1."""
    g, x, y = _egcd(a, b)
    if g != 1:
        raise NotUnimodular(f"gcd({a},{b}) = {g} != 1")
    # a*x + b*y = 1 and det((a,b),(-y,x)) = a*x + b*y = 1
    return -y, x

