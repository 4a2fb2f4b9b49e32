"""Branch-level dynamics: the moved triple.

The synthesis needs three germs of an input element f, each one row of its
reduced table: the first row that moves, which starts at the right end
alpha of the maximal interval [0, alpha] that f fixes and gives the
interval triple [u] < [v] < [w] carried by f or its inverse (`find_uvw`),
and the first and last rows, which give the tail pairs at 0 and at 1
(`synthesis._tail_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .element import Element
from .words import Word


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


def find_uvw(f: Element) -> UVWTriple:
    """The triple [u] < [v] < [w] in B' with h in {f, f^-1} mapping u->v->w.

    Read off f's first row (x, y) with x != y. Every earlier row is fixed,
    so this one starts and lands at alpha, the right end of the maximal
    interval [0, alpha] that f fixes, and |x| != |y|: h is f when x is the
    longer, else f^-1, whose row is (y, x). Either way h carries the tail
    pair s'0^n -> s'0^m, n > m, with s' the word of alpha. Then
    u = s'0^{2n-m}1, v = s'0^n1, w = s'0^m1, and h: s'0^n -> s'0^m extends
    to u -> v (suffix 0^{n-m}1) and v -> w (suffix 1). 2n-m > n > m puts
    them in interval order and in B', w too when m = 0: only a code's last
    word has no 0, and y shares its row with x, which ends in 0. f^-1 is
    never built: it carries p -> q iff f carries q -> p.
    """
    if f.is_identity():
        raise IdentityInput("cannot extract a moved interval from the identity")
    x, y = next((x, y) for x, y in f.pairs if x != y)
    sign = 1
    if len(x) < len(y):
        x, y, sign = y, x, -1
    sp = x.rstrip("0")
    n, m = len(x) - len(sp), len(y) - len(sp)
    u = sp + "0" * (2 * n - m) + "1"
    v = sp + "0" * n + "1"
    w = sp + "0" * m + "1"
    return UVWTriple(sign, u, v, w)
