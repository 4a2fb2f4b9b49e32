"""Elements of Thompson's group F as reduced branch-pair tables.

An element is stored as its unique reduced tree diagram: an ordered tuple of
branch pairs (u_i, v_i) where the u_i and the v_i each form a complete prefix
code and the element maps [u_i] linearly onto [v_i]. Composition is written
left to right: (fg)(t) = g(f(t)).

The generators:

    x0: 00 -> 0, 01 -> 10, 1 -> 11
    x1: 0 -> 0, 100 -> 10, 101 -> 110, 11 -> 111
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .words import (
    Dyadic,
    Word,
    check_word,
    is_complete_prefix_code,
    word_from_text,
    word_to_dyadic,
    word_to_text,
)


class InvalidCode(ValueError):
    """A branch list is not a complete prefix code."""


class LengthMismatch(ValueError):
    """Domain and range codes have different sizes."""


class UnknownSymbol(KeyError):
    """A group word uses a symbol with no assigned element."""


_FLIP = str.maketrans("01", "10")


def _reduce_pairs(pairs: list[tuple[Word, Word]]) -> tuple[tuple[Word, Word], ...]:
    # stack-based removal of common carets: adjacent pairs (p0,q0),(p1,q1)
    # collapse to (p,q); collapsing may expose a new caret below the stack top
    stack: list[tuple[Word, Word]] = []
    for pair in pairs:
        stack.append(pair)
        while len(stack) >= 2:
            u1, v1 = stack[-2]
            u2, v2 = stack[-1]
            if (
                u1[-1:] == "0"
                and u2[-1:] == "1"
                and v1[-1:] == "0"
                and v2[-1:] == "1"
                and u1[:-1] == u2[:-1]
                and v1[:-1] == v2[:-1]
            ):
                stack[-2:] = [(u1[:-1], v1[:-1])]
            else:
                break
    return tuple(stack)


class Element:
    """Immutable element of F; equality is reduced-diagram identity."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "_hash", hash(self.pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __eq__(self, other):
        return isinstance(other, Element) and self.pairs == other.pairs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(
            f"{word_to_text(u)}->{word_to_text(v)}" for u, v in self.pairs
        )
        return f"Element({body})"

    @property
    def domain(self) -> tuple[Word, ...]:
        return tuple(u for u, _ in self.pairs)

    @property
    def range(self) -> tuple[Word, ...]:
        return tuple(v for _, v in self.pairs)

    def is_identity(self) -> bool:
        return self.pairs == (("", ""),)


def from_branch_pairs(pairs) -> Element:
    """Validate a branch-pair table and return the reduced canonical element."""
    pairs = [(check_word(u), check_word(v)) for u, v in pairs]
    domain = [u for u, _ in pairs]
    rng = [v for _, v in pairs]
    if not is_complete_prefix_code(domain):
        raise InvalidCode(f"domain is not a complete prefix code: {domain}")
    if not is_complete_prefix_code(rng):
        raise InvalidCode(f"range is not a complete prefix code: {rng}")
    return Element(_reduce_pairs(pairs))


def from_codes(domain, rng) -> Element:
    """Order-aligned domain/range branch lists; sizes must match."""
    domain, rng = list(domain), list(rng)
    if len(domain) != len(rng):
        raise LengthMismatch(
            f"domain has {len(domain)} branches, range has {len(rng)}"
        )
    return from_branch_pairs(zip(domain, rng))


IDENTITY = Element((("", ""),))
X0 = from_branch_pairs([("00", "0"), ("01", "10"), ("1", "11")])
X1 = from_branch_pairs([("0", "0"), ("100", "10"), ("101", "110"), ("11", "111")])


def _merge(fp, gp) -> list[tuple[Word, Word]]:
    """Unreduced pairs of f then g, from their tables fp and gp.

    One two-pointer pass over f's range against g's domain, the leaves of
    their coarsest common refinement. Both codes are sorted in interval
    order and the two current words share a left endpoint, so the shorter
    one prefixes the longer: the longer is pulled back through f or pushed
    forward through g, and the pointer of the longer advances.
    """
    out = []
    i = j = 0
    n1, n2 = len(fp), len(gp)
    while i < n1 and j < n2:
        u, v = fp[i]
        p, q = gp[j]
        if len(v) <= len(p):
            out.append((u + p[len(v):], q))
            j += 1
            if j == n2 or not gp[j][0].startswith(v):
                i += 1
        else:
            out.append((u, q + v[len(p):]))
            i += 1
            if i == n1 or not fp[i][1].startswith(p):
                j += 1
    return out


def common_refinement(code1, code2) -> list[Word]:
    """Leaves of the union of the two codes' trees (coarsest common refinement).

    Both codes must be complete prefix codes listed in interval order, as the
    domain and range of an Element are; anything else raises InvalidCode.
    """
    code1, code2 = list(code1), list(code2)
    for code in (code1, code2):
        if not is_complete_prefix_code(code):
            raise InvalidCode(f"not a complete prefix code in interval order: {code}")
    # merging two identity tables puts each refinement leaf on both sides
    return [s for s, _ in _merge([(c, c) for c in code1], [(c, c) for c in code2])]


def compose(f: Element, g: Element) -> Element:
    """The element acting as f then g (left-to-right composition)."""
    return Element(_reduce_pairs(_merge(f.pairs, g.pairs)))


def invert(f: Element) -> Element:
    return Element(_reduce_pairs([(v, u) for u, v in f.pairs]))


def power(f: Element, k: int) -> Element:
    """f^k by repeated squaring: O(log |k|) composes."""
    if k < 0:
        f, k = invert(f), -k
    out = None
    while k:
        if k & 1:
            out = f if out is None else compose(out, f)
        k >>= 1
        if k:
            f = compose(f, f)
    return IDENTITY if out is None else out


_DOMAIN = itemgetter(0)


def _find_branch(pairs, stem: Word, tail: str) -> int:
    """Index of the pair whose domain interval contains .stem tail tail ...

    That domain word u either prefixes stem or equals stem + tail*e. Domain
    words are sorted in interval order, so one bisect finds it: for tail 0 it
    is the last u <= stem if that u prefixes stem, else the next one; for
    tail 1 it is the last u below stem + "2", i.e. the last word before the
    block of words extending stem ends.
    """
    if tail == "1":
        return bisect_left(pairs, stem + "2", key=_DOMAIN) - 1
    i = bisect_right(pairs, stem, key=_DOMAIN)
    return i - 1 if i and stem.startswith(pairs[i - 1][0]) else i


def evaluate(f: Element, t: Dyadic) -> Dyadic:
    """Exact image of a dyadic point."""
    if t.num == (1 << t.exp):  # t == 1
        return t
    s = t.to_word()
    # u prefixes s (t inside [u]) or u == s0^e (t is the left endpoint of [u])
    u, v = f.pairs[_find_branch(f.pairs, s, "0")]
    return word_to_dyadic(v + s[len(u):])


def slope_right(f: Element, t: Dyadic) -> int:
    """log2 of the slope on [t, t+eps); requires 0 <= t < 1."""
    if t.num == (1 << t.exp):
        raise ValueError("no right slope at t = 1")
    s = t.to_word()
    u, v = f.pairs[_find_branch(f.pairs, s, "0")]
    return len(u) - len(v)


def slope_left(f: Element, t: Dyadic) -> int:
    """log2 of the slope on (t-eps, t]; requires 0 < t <= 1."""
    if t.num == 0:
        raise ValueError("no left slope at t = 0")
    if t.num == (1 << t.exp):
        stem: Word = ""
    else:
        s = t.to_word()  # ends in 1
        stem = s[:-1] + "0"
    u, v = f.pairs[_find_branch(f.pairs, stem, "1")]
    return len(u) - len(v)


class AbelianImage(tuple):
    """(log2 slope at 0+, log2 slope at 1-); the abelianization in Z^2."""

    __slots__ = ()

    def __new__(cls, at_zero: int, at_one: int):
        return super().__new__(cls, (at_zero, at_one))

    @property
    def at_zero(self) -> int:
        return self[0]

    @property
    def at_one(self) -> int:
        return self[1]

    def __repr__(self):
        return f"({self[0]},{self[1]})"


def abelianize(f: Element) -> AbelianImage:
    u0, v0 = f.pairs[0]
    un, vn = f.pairs[-1]
    return AbelianImage(len(u0) - len(v0), len(un) - len(vn))


def in_derived(f: Element) -> bool:
    return abelianize(f) == (0, 0)


def image_of_interval(f: Element, u: Word) -> Word | None:
    """The word v with f mapping [u] linearly onto [v], or None.

    None means [u] is not carried linearly onto a single dyadic interval,
    i.e. u -> v is not a branch pair of any diagram of f.
    """
    check_word(u)
    pairs = f.pairs
    first = _find_branch(pairs, u, "0")
    u0, v0 = pairs[first]
    if u.startswith(u0):
        return v0 + u[len(u0):]
    # u is a proper ancestor of several branches: they must all translate
    covering = pairs[first + 1 : _find_branch(pairs, u, "1") + 1]
    sigma = u0[len(u):]
    if not v0.endswith(sigma):
        return None
    v = v0[: len(v0) - len(sigma)] if sigma else v0
    for ui, vi in covering:
        if vi != v + ui[len(u):]:
            return None
    return v


def has_branch_pair(f: Element, u: Word, v: Word) -> bool:
    """True iff some (equivalent) diagram of f has the pair u -> v."""
    return image_of_interval(f, u) == check_word(v)


def flip(f: Element) -> Element:
    """Conjugation by t -> 1-t: complement every word, reverse the order."""
    pairs = [(u.translate(_FLIP), v.translate(_FLIP)) for u, v in reversed(f.pairs)]
    return Element(_reduce_pairs(pairs))


# --- group words ------------------------------------------------------------

GroupWord = tuple[tuple[str, int], ...]


def parse_group_word(text: str) -> GroupWord:
    """Whitespace-separated tokens 'name' or 'name^k' with k a non-zero integer."""
    letters: list[tuple[str, int]] = []
    for token in text.split():
        name, _, exp_s = token.partition("^")
        if not name:
            raise ValueError(f"bad group-word token: {token!r}")
        exp = int(exp_s) if exp_s else 1
        if exp == 0:
            raise ValueError(f"zero exponent in group word: {token!r}")
        letters.append((name, exp))
    return tuple(letters)


def format_group_word(word: GroupWord) -> str:
    return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


def eval_word(word: GroupWord, assignment: dict[str, Element]) -> Element:
    out = None
    for name, exp in word:
        if name not in assignment:
            raise UnknownSymbol(name)
        step = power(assignment[name], exp)
        out = step if out is None else compose(out, step)
    return IDENTITY if out is None else out


# --- text codec -------------------------------------------------------------


def format_element(f: Element) -> str:
    """One 'u -> v' line per reduced branch pair."""
    return "\n".join(
        f"{word_to_text(u)} -> {word_to_text(v)}" for u, v in f.pairs
    ) + "\n"


def parse_element(text: str) -> Element:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u -> v', got {raw!r}")
        pairs.append((word_from_text(parts[0].strip()), word_from_text(parts[1].strip())))
    if not pairs:
        raise ValueError("no branch pairs found")
    return from_branch_pairs(pairs)
