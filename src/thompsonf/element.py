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
from typing import NamedTuple

from .words import (
    Dyadic,
    Word,
    _are_complete_codes,
    check_word,
    flip_word,
    is_complete_prefix_code,
    parse_int,
    word_to_dyadic,
    word_to_text,
    words_from_texts,
)


class InvalidCode(ValueError):
    """A branch list is not a complete prefix code."""


class LengthMismatch(ValueError):
    """Domain and range codes have different sizes."""


class UnknownSymbol(KeyError):
    """A group word uses a symbol with no assigned element."""


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

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __eq__(self, other):
        return isinstance(other, Element) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

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
    pairs = list(pairs)
    domain = [u for u, _ in pairs]
    rng = [v for _, v in pairs]
    if not _are_complete_codes((domain, rng)):  # then check the domain alone, to name the code
        if not is_complete_prefix_code(domain):
            raise InvalidCode(f"domain is not a complete prefix code: {domain}")
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


def compose(f: Element, g: Element) -> Element:
    """The element acting as f then g (left-to-right composition)."""
    return Element(_reduce_pairs(_merge(f.pairs, g.pairs)))


def invert(f: Element) -> Element:
    """f^-1: swapping each row's sides maps carets to carets, so the table stays reduced."""
    return Element([(v, u) for u, v in f.pairs])


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


class AbelianImage(NamedTuple):
    """(log2 slope at 0+, log2 slope at 1-); the abelianization in Z^2."""

    at_zero: int
    at_one: int

    def __repr__(self):
        return f"({self.at_zero},{self.at_one})"


def abelianize(f: Element) -> AbelianImage:
    u0, v0 = f.pairs[0]
    un, vn = f.pairs[-1]
    return AbelianImage(len(u0) - len(v0), len(un) - len(vn))


def image_of_interval(f: Element, u: Word) -> Word | None:
    """The word v with f mapping [u] linearly onto [v], or None.

    Every diagram of f expands its reduced one, so u -> v is a branch pair
    of f iff u lies inside one row (u0, v0) and v = v0 + u[len(u0):]. Over
    two or more rows, [u] is never carried affinely: those rows would be a
    translated subtree, which holds a reducible caret.
    """
    check_word(u)
    u0, v0 = f.pairs[_find_branch(f.pairs, u, "0")]
    return v0 + u[len(u0):] if u.startswith(u0) else None


def has_branch_pair(f: Element, u: Word, v: Word) -> bool:
    """True iff some diagram of f has the pair u -> v: u lies in a row carrying it to v."""
    return image_of_interval(f, u) == check_word(v)


def flip(f: Element) -> Element:
    """Conjugation by t -> 1-t: complement every word, reverse the order. It maps
    a caret's rows p0, p1 to the complements' p'1, p'0: the table stays reduced."""
    pairs = [(flip_word(u), flip_word(v)) for u, v in reversed(f.pairs)]
    return Element(pairs)


# --- group words ------------------------------------------------------------

GroupWord = tuple[tuple[str, int], ...]


def _parse_token(token: str) -> tuple[str, int]:
    """One token 'name' or 'name^k' with k a non-zero integer, read by
    parse_int (so 'x0^' is refused, not read as x0)."""
    name, caret, exp_s = token.partition("^")
    if not name:
        raise ValueError(f"bad group-word token: {token!r}")
    try:
        exp = parse_int(exp_s) if caret else 1
    except ValueError:
        raise ValueError(f"bad exponent in group word: {token!r}") from None
    if exp == 0:
        raise ValueError(f"zero exponent in group word: {token!r}")
    return name, exp


def parse_group_word(text: str) -> GroupWord:
    """Whitespace-separated tokens, each parsed by _parse_token.

    The text is split once and each distinct token parsed once, in order of
    first occurrence, so the first bad token in the text is the one reported.
    """
    tokens = text.split()
    letters = {token: _parse_token(token) for token in dict.fromkeys(tokens)}
    return tuple(map(letters.__getitem__, tokens))


def format_group_word(word: GroupWord) -> str:
    return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


def _leaves(tree) -> list[tuple[int, Word]]:
    """(leaf id, word) for each leaf of a nested-list tree, in interval order."""
    out, stack = [], [(tree, "")]
    while stack:
        node, w = stack.pop()
        while node.__class__ is not int:  # down the left edge, right children to the stack
            stack.append((node[1], w + "1"))
            node = node[0]
            w += "0"
        out.append((node, w))
    return out


def _split(where, leaf: int) -> list:
    """Split domain leaf `leaf` into leaves `leaf` and a new id, in place, and
    return the range tree's caret over the same two ids."""
    parent, side = where[leaf]
    new = len(where)
    parent[side] = split = [leaf, new]
    where[leaf] = (split, 0)
    where.append((split, 1))
    return [leaf, new]


def _tree_product(steps) -> Element:
    """The left-to-right product of x_gen^k over the (gen, k) steps, gen 0 or 1,
    by rotations of a tree pair.

    One tree pair of nested [left, right] lists, domain leaf i onto range leaf
    i. x0 turns the range tree's root from [[a, b], c] into [a, [b, c]], x1
    does the same at the root's right child, and k < 0 turns it back, |k|
    times. Where a rotation needs a caret the range tree lacks, _split splits
    that leaf and its domain partner, so the unreduced table has at most
    1 + sum |k| carets(x_gen) pairs.
    """
    top, box = [0], [None, 0]  # the domain tree is top[0], the range tree box[1]
    where = [(top, 0)]  # leaf id -> (parent list, side) in the domain tree
    for gen, k in steps:
        holder = box
        if gen:
            holder = box[1]
            if holder.__class__ is int:
                holder = box[1] = _split(where, holder)
        if k > 0:
            for _ in range(k):
                node = holder[1]
                if node.__class__ is int:
                    node = _split(where, node)
                left = node[0]
                if left.__class__ is int:
                    left = _split(where, left)
                holder[1] = [left[0], [left[1], node[1]]]
        else:
            for _ in range(-k):
                node = holder[1]
                if node.__class__ is int:
                    node = _split(where, node)
                right = node[1]
                if right.__class__ is int:
                    right = _split(where, right)
                holder[1] = [[node[0], right[0]], right[1]]
    image = dict(_leaves(box[1]))
    return Element(_reduce_pairs([(u, image[i]) for i, u in _leaves(top[0])]))


def _runs(word: GroupWord, assignment: dict[str, Element]) -> list[tuple[str, int]]:
    """eval_word's runs of `word`, each name checked and each run folded."""
    runs: list[tuple[str, int]] = []
    for name, exp in word:
        if name not in assignment:
            raise UnknownSymbol(name)
        if runs and runs[-1][0] == name:
            exp += runs.pop()[1]
        if exp:
            runs.append((name, exp))
    return runs


def caret_bound(word: GroupWord, assignment: dict[str, Element]) -> int:
    """An upper bound on the carets of eval_word(word, assignment), found
    without evaluating: sum |k| carets(f) over the runs f^k of `word`, as a
    product has at most the sum of its factors' carets (the identity 0)."""
    runs = _runs(word, assignment)
    return sum(abs(k) * (len(assignment[name].pairs) - 1) for name, k in runs)


def eval_word(word: GroupWord, assignment: dict[str, Element]) -> Element:
    """The element a group word names, each name standing for its assignment.

    Every name is checked first, so UnknownSymbol is raised even for a letter
    that would cancel. Adjacent letters with the same name are then folded
    into one run on a stack: x^a x^b becomes x^(a+b), a run summing to 0 is
    dropped and the fold cascades, so x0 x1 x1^-1 x0 gives x0^2. Each distinct
    name is classified once: identity runs are dropped, a name whose table is
    x0's or x1's rotates, and any other run f^k is the piece power(f, k).
    Consecutive rotation runs are one _tree_product piece, O(sum |k|) list
    moves. The pieces are multiplied pairwise, level by level, left to right,
    so each takes part in at most ceil(log2 n) composes for n pieces.
    """
    kinds: dict[str, int | Element | None] = {}  # 0 or 1 rotates, None is dropped
    pieces, steps = [], []
    for name, k in _runs(word, assignment):
        if name not in kinds:
            f = assignment[name]
            kinds[name] = (0 if f.pairs == X0.pairs else 1 if f.pairs == X1.pairs
                           else None if f.is_identity() else f)
        kind = kinds[name]
        if kind.__class__ is int:
            steps.append((kind, k))
        elif kind is not None:
            if steps:
                pieces.append(_tree_product(steps))
                steps = []
            pieces.append(power(kind, k))
    if steps:
        pieces.append(_tree_product(steps))
    while len(pieces) > 1:
        paired = [compose(a, b) for a, b in zip(pieces[::2], pieces[1::2])]
        if len(pieces) & 1:
            paired.append(pieces[-1])
        pieces = paired
    return pieces[0] if pieces else IDENTITY


# --- text codec -------------------------------------------------------------


def format_element(f: Element) -> str:
    """One 'u -> v' line per reduced branch pair."""
    return "\n".join(
        f"{word_to_text(u)} -> {word_to_text(v)}" for u, v in f.pairs
    ) + "\n"


def parse_element(text: str) -> Element:
    """The element of a branch-pair table, read back from format_element's text.

    One 'u -> v' pair per line; '#' starts a comment and blank lines are
    skipped. The words are checked in one C scan at the end, or, at a line
    without exactly one '->', the words before it first: the first fault in
    the text is the one reported.
    """
    sides = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        parts = line.split("->")
        if len(parts) != 2:
            words_from_texts(sides)
            raise ValueError(f"line {lineno}: expected 'u -> v', got {raw!r}")
        sides += (parts[0].strip(), parts[1].strip())
    if not sides:
        raise ValueError("no branch pairs found")
    words = words_from_texts(sides)
    return from_codes(words[::2], words[1::2])
