"""Branch-level dynamics: fixed boundaries, tail pairs and the moved triple.

These are the extractions the synthesis needs from an input element f:
the maximal left interval [0, alpha] that f fixes pointwise, the pair of
branches .s0^n -> .s0^m starting at alpha, and the interval triple
[u] < [v] < [w] carried by f or its inverse. The tail pair at 1 is the
one at 0 of the flipped element (`synthesis._tail_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .element import Element, _find_branch, has_branch_pair, invert
from .words import Word, in_B_prime, interval_less


class IdentityInput(ValueError):
    """The operation needs a non-trivial element."""


class PreconditionViolated(ValueError):
    """The element does not satisfy the operation's stated precondition."""


@dataclass(frozen=True, slots=True)
class UVWTriple:
    """sign picks h = f (+1) or h = f^-1 (-1); h has pairs u->v and v->w."""

    sign: int
    u: Word
    v: Word
    w: Word


def left_fixed_boundary(f: Element) -> Word:
    """Word s (trailing zeros stripped) with .s the maximal fixed left boundary.

    alpha = max { t : f fixes [0, t] pointwise }; the empty word encodes
    alpha = 0. Scans the reduced diagram while u_i == v_i; alpha is the right
    endpoint of the last fixed interval.
    """
    if f.is_identity():
        raise IdentityInput("identity fixes everything")
    last_fixed: Word | None = None
    for u, v in f.pairs:
        if u != v:
            break
        last_fixed = u
    if last_fixed is None:
        return ""
    # right endpoint of [last_fixed]: binary-increment, strip trailing zeros
    k = int(last_fixed, 2) + 1
    return format(k, f"0{len(last_fixed)}b").rstrip("0")


def zero_tail_pair(f: Element, s: Word) -> tuple[int, int]:
    """(n, m) with n > m >= 0 and f carrying the branch pair s'0^n -> s'0^m.

    s' is s with trailing zeros stripped. Requires f to fix .s and to have a
    branch starting at .s with slope-log >= 1; reads the reduced pair off
    directly rather than searching.
    """
    sp = s.rstrip("0")
    # the branch containing .sp from the right: u prefixes sp or u == sp0^n
    u, v = f.pairs[_find_branch(f.pairs, sp, "0")]
    if not u.startswith(sp):
        raise PreconditionViolated(f"no branch starts at .{sp or '0'}")
    if not (v.startswith(sp) and set(v[len(sp):]) <= {"0"}):
        raise PreconditionViolated(f"element does not fix .{sp or '0'}")
    n, m = len(u) - len(sp), len(v) - len(sp)
    if n <= m:
        raise PreconditionViolated(f"slope at .{sp or '0'}+ is 2^{m - n}, need >= 2")
    return n, m


def find_uvw(f: Element) -> UVWTriple:
    """The triple [u] < [v] < [w] in B' with h in {f, f^-1} mapping u->v->w.

    With alpha the maximal fixed left boundary and s its word: h is whichever
    of f, f^-1 has slope >= 2 just right of alpha; with (n, m) its tail pair
    at alpha, u = s'0^{2n-m}1, v = s'0^n1, w = s'0^m1. Then
    h: s'0^n -> s'0^m extends to u -> v (suffix 0^{n-m}1) and v -> w
    (suffix 1).
    """
    if f.is_identity():
        raise IdentityInput("cannot extract a moved interval from the identity")
    sp = left_fixed_boundary(f)
    try:
        n, m = zero_tail_pair(f, sp)
        sign, h = 1, f
    except PreconditionViolated:
        h = invert(f)
        n, m = zero_tail_pair(h, sp)
        sign = -1
    u = sp + "0" * (2 * n - m) + "1"
    v = sp + "0" * n + "1"
    w = sp + "0" * m + "1"
    if not (in_B_prime(u) and in_B_prime(v) and in_B_prime(w)):
        raise PreconditionViolated(f"triple escaped B': {u!r}, {v!r}, {w!r}")
    if not (interval_less(u, v) and interval_less(v, w)):
        raise PreconditionViolated(
            f"triple is not in interval order: {u!r}, {v!r}, {w!r}"
        )
    if not (has_branch_pair(h, u, v) and has_branch_pair(h, v, w)):
        raise PreconditionViolated(f"element does not carry {u!r} -> {v!r} -> {w!r}")
    return UVWTriple(sign, u, v, w)
