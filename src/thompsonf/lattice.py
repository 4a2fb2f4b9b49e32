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


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def companion_rectangular(a: int, b: int) -> tuple[int, int, RectangularForm]:
    """(c, d, (p, q)) with <(a,b),(c,d)> = pZ x qZ and pq = gcd(a,b).

    Construction: split g = gcd(a,b) as g = pq where q collects the prime
    powers of g whose prime divides a' = a/g (and p the rest); qa' and pb'
    are then coprime, so m(qa') - n(pb') = 1 is solvable; (c,d) = (np, mq).
    The Euclid solution is pinned to minimal non-negative n.
    """
    if a == 0 and b == 0:
        raise ZeroInput("(0,0) spans nothing")
    if a == 0:
        return 1, 0, RectangularForm(1, abs(b))
    if b == 0:
        return 0, 1, RectangularForm(abs(a), 1)
    g = math.gcd(a, b)
    ap, bp = a // g, b // g
    q = 1
    for prime, mult in _prime_factors(g).items():
        if ap % prime == 0:
            q *= prime**mult
    p = g // q
    # solve m*(q*ap) - n*(p*bp) = 1 with minimal non-negative n
    A, B = q * ap, p * bp
    gg, x, y = _egcd(A, -B)  # A*x + (-B)*y = 1, so (m, n) = (x, y)
    if gg != 1:
        raise AssertionError(f"gcd({A}, {B}) = {gg}, expected coprime")
    m0, n0 = x, y
    # general solution: (m, n) = (m0 + t*B, n0 + t*A); pick minimal n >= 0
    n = n0 % abs(A)
    m = m0 + ((n - n0) // A) * B
    if n < 0 or m * A - n * B != 1:
        raise AssertionError(f"bad Bezout pair (m, n) = ({m}, {n})")
    return n * p, m * q, RectangularForm(p, q)


def complete_basis(a: int, b: int) -> tuple[int, int]:
    """A companion (c, d) with |ad - bc| = 1; requires gcd(a, b) = 1."""
    g, x, y = _egcd(a, b)
    if g != 1:
        raise NotUnimodular(f"gcd({a},{b}) = {g} != 1")
    # a*x + b*y = 1 and det((a,b),(-y,x)) = a*x + b*y = 1
    return -y, x


def _primitive(v: Vec) -> tuple[Vec, int]:
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g), g


def lattice_contains(basis: LatticeBasis, v: Vec) -> bool:
    """Whether v is an integer combination of the basis vectors."""
    (a, b), (c, d) = basis
    det = a * d - b * c
    if det:
        # Cramer: s*(a,b) + t*(c,d) = v
        s_num = v[0] * d - v[1] * c
        t_num = a * v[1] - b * v[0]
        return s_num % det == 0 and t_num % det == 0
    # degenerate: the span is a subgroup of a line (or trivial)
    if (a, b) == (0, 0) and (c, d) == (0, 0):
        return v == (0, 0)
    if v == (0, 0):
        return True
    w = (a, b) if (a, b) != (0, 0) else (c, d)
    e, alpha = _primitive(w)
    beta = 0
    if (c, d) != (0, 0) and w == (a, b):
        # parallel by det == 0; coefficient of (c,d) along e
        beta = (c, d)[0] // e[0] if e[0] else (c, d)[1] // e[1]
    gamma = math.gcd(alpha, beta)
    # v must be an integer multiple of gamma*e
    if v[0] * e[1] != v[1] * e[0]:
        return False
    k = v[0] // e[0] if e[0] else v[1] // e[1]
    return k * e[0] == v[0] and k * e[1] == v[1] and k % gamma == 0
