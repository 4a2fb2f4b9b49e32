"""Slow reference implementations the tests check the package against.

None of these is used by the package itself: the checker decides the
closure with `SuffixCongruence`, and synthesis certifies the result it
returns. They stay small and obviously correct instead of fast.
`ReferenceCongruence` is the closure engine with one child dict per trie
node, which the flat, prefix-indexed `SuffixCongruence` replaced,
`reference_is_complete_prefix_code` the scan that the C-loop check replaced,
`reference_rectangular_split` the trial division that the lattice's
gcd peeling replaced, `balanced_product` the pairwise product over every
run's power, which `eval_word` (and so `thompsonf compose`) keeps only for
runs of elements other than x0 and x1, rotating those two instead, and
`reference_parse_element` / `reference_parse_group_word` the line-by-line and
token-by-token loops that the split-once text parsers replaced.
`lattice_contains`, `in_derived`, `common_refinement`, `interval_endpoints`
and `is_prefix` were public functions that nothing in the package called;
the tests that check with them or check them keep them here.
`left_fixed_boundary` and `zero_tail_pair` are the searches that reading
f's first moving row and its end rows replaced; `reference_uvw` and
`reference_tail_pair` derive the moved triple and the tail pairs with them.
`left_block`, `basic_block` and `right_block` write out the rows of the
partner's blocks A, B and C from the scaffold, w and the target, and
`reference_blocks` assembles them; `self_check_blocks` checks a synthesis
result's g and its g-witnesses against them. The package keeps no block
table of its own.
"""

import re
from collections import defaultdict, deque
from dataclasses import replace
from math import gcd

from thompsonf.certify import SlopeWitness, Witness
from thompsonf.dynamics import IdentityInput, PreconditionViolated
from thompsonf.element import (
    IDENTITY,
    AbelianImage,
    Element,
    GroupWord,
    InvalidCode,
    _find_branch,
    _merge,
    abelianize,
    compose,
    flip,
    from_branch_pairs,
    from_codes,
    image_of_interval,
    invert,
)
from thompsonf.words import (
    Dyadic,
    Word,
    check_word,
    is_complete_prefix_code,
    word_from_text,
)

Relation = tuple[Word, Word]


def relation(u: Word, v: Word) -> Relation:
    """Canonical orientation: lexicographic min first."""
    return (u, v) if u <= v else (v, u)


def saturate(seeds, L: int) -> frozenset[Relation]:
    """Length-bounded least fixpoint of the three closure rules.

    Materializes every derivable relation between words of length <= L;
    exponential in L, intended for small bounds (the certifier itself uses
    SuffixCongruence, which needs no bound).
    """
    rels: set[Relation] = set()
    adj: dict[Word, set[Word]] = defaultdict(set)
    queue: deque[Relation] = deque()
    for u, v in seeds:
        if max(len(u), len(v)) > L:
            raise ValueError(f"seed longer than bound {L}: ({u!r}, {v!r})")
        queue.append(relation(u, v))
    while queue:
        pair = queue.popleft()
        if pair in rels:
            continue
        rels.add(pair)
        u, v = pair
        adj[u].add(v)
        adj[v].add(u)
        if max(len(u), len(v)) + 1 <= L:
            queue.append(relation(u + "0", v + "0"))
            queue.append(relation(u + "1", v + "1"))
        for z in adj[v]:
            queue.append(relation(u, z))
        for z in adj[u]:
            queue.append(relation(z, v))
    return frozenset(rels)


class ReferenceCongruence:
    """The rollback closure with a dict of children per trie node.

    Same surface and same partition as `SuffixCongruence`: the trie of every
    seed and weighted word, built one letter at a time from the root, folds
    logged as (root, merged, child keys the root gained), union by size and
    no path compression.
    """

    def __init__(self, seeds, weighted=()):
        self._children: list[dict[str, int]] = [{}]  # trie; roots gain folded keys
        self._pairs = [(self._node(u), self._node(v)) for u, v in seeds]
        heavy = {self._node(x) for x in weighted}
        self._parent = list(range(len(self._children)))
        self._size = [1] * len(self._parent)
        self._weight = [int(i in heavy) for i in range(len(self._parent))]
        self._log: list[tuple[int, int, list[str]]] = []  # (root, merged, keys)
        self.add(range(len(self._pairs)))

    def _node(self, word: Word) -> int:
        children, cur = self._children, 0
        for ch in word:
            nxt = children[cur].get(ch)
            if nxt is None:
                nxt = children[cur][ch] = len(children)
                children.append({})
            cur = nxt
        return cur

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            i = parent[i]
        return i

    def add(self, indices) -> None:
        parent, size, weight = self._parent, self._size, self._weight
        children, log, find = self._children, self._log, self._find
        stack = [self._pairs[k] for k in indices]
        while stack:
            a, b = stack.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            weight[ra] += weight[rb]
            into = children[ra]
            keys = []
            for ch, node in children[rb].items():
                other = into.get(ch)
                if other is None:
                    into[ch] = node
                    keys.append(ch)
                else:
                    stack.append((other, node))
            log.append((ra, rb, keys))

    def mark(self) -> int:
        return len(self._log)

    def rollback(self, mark: int) -> None:
        parent, size, weight = self._parent, self._size, self._weight
        children, log = self._children, self._log
        while len(log) > mark:
            ra, rb, keys = log.pop()
            for ch in keys:
                del children[ra][ch]
            parent[rb] = rb
            size[ra] -= size[rb]
            weight[ra] -= weight[rb]

    def weight(self, word: Word) -> int:
        cur, rest = self.walk(word)
        return 0 if rest else self._weight[cur]

    def walk(self, word: Word, state: tuple[int, Word] | None = None) -> tuple[int, Word]:
        cur, rest = (self._find(0), "") if state is None else state
        if rest:
            return cur, rest + word
        children, find = self._children, self._find
        for i, ch in enumerate(word):
            nxt = children[cur].get(ch)
            if nxt is None:
                return cur, word[i:]
            cur = find(nxt)
        return cur, ""

    def same(self, u: Word, v: Word) -> bool:
        return self.walk(u) == self.walk(v)


def enumerate_ball(f: Element, g: Element, word_len: int):
    """All products of f, g and their inverses up to word_len, as (word, element).

    Breadth-first in deterministic order; words are not freely reduced, so
    the same element may appear under several words.
    """
    letters = [(("f", 1),), (("f", -1),), (("g", 1),), (("g", -1),)]
    values = [f, invert(f), g, invert(g)]
    layer: list[tuple[GroupWord, Element]] = [((), IDENTITY)]
    yield ((), IDENTITY)
    for _ in range(word_len):
        nxt = []
        for word, h in layer:
            for letter, value in zip(letters, values):
                item = (word + letter, compose(h, value))
                nxt.append(item)
                yield item
        layer = nxt


def brute_force_relations(
    f: Element, g: Element, word_len: int, word_depth: int
) -> frozenset[Relation]:
    """Every relation u ~ v with |u|,|v| <= word_depth realized by a product
    of at most word_len generator letters."""
    if word_len < 1 or word_depth < 1:
        raise ValueError("bounds must be >= 1")
    intervals: list[Word] = [""]
    frontier = [""]
    for _ in range(word_depth):
        frontier = [u + ch for u in frontier for ch in "01"]
        intervals.extend(frontier)
    rels: set[Relation] = set()
    seen: set[Element] = set()
    for _, h in enumerate_ball(f, g, word_len):
        if h in seen:
            continue
        seen.add(h)
        for u in intervals:
            v = image_of_interval(h, u)
            if v is not None and len(v) <= word_depth:
                rels.add(relation(u, v))
    return frozenset(rels)


def balanced_product(elements: list[Element]) -> Element:
    """The left-to-right product, multiplied pairwise level by level.

    Each level composes neighbours, [e0 e1, e2 e3, ...], so every element
    takes part in at most ceil(log2 n) composes. Up to three elements are
    composed in left-fold order, ((e0 e1) e2).
    """
    if not elements:
        return IDENTITY
    while len(elements) > 1:
        paired = [compose(a, b) for a, b in zip(elements[::2], elements[1::2])]
        if len(elements) & 1:
            paired.append(elements[-1])
        elements = paired
    return elements[0]


def reference_is_complete_prefix_code(branches) -> bool:
    """The endpoint scan `is_complete_prefix_code` replaced: each word's left
    endpoint .u must be the running position, which then moves on by 2^-|u|,
    and the scan must end at 1."""
    branches = list(branches)
    if not branches:
        return False
    pos_num, pos_exp = 0, 0  # running left endpoint as num/2^exp, unnormalized
    for u in branches:
        if not set(u) <= {"0", "1"}:
            return False
        e = max(pos_exp, len(u))
        if (pos_num << (e - pos_exp)) != ((int(u, 2) if u else 0) << (e - len(u))):
            return False
        pos_num = (pos_num << (e - pos_exp)) + (1 << (e - len(u)))
        pos_exp = e
    return pos_num == (1 << pos_exp)


_EXPONENT = re.compile(r"[+-]?[0-9]+")


def reference_parse_group_word(text: str) -> GroupWord:
    """Each whitespace-separated token 'name' or 'name^k' parsed in turn."""
    letters: list[tuple[str, int]] = []
    for token in text.split():
        name, caret, exp_s = token.partition("^")
        if not name:
            raise ValueError(f"bad group-word token: {token!r}")
        if caret and not _EXPONENT.fullmatch(exp_s):
            raise ValueError(f"bad exponent in group word: {token!r}")
        exp = int(exp_s) if caret else 1
        if exp == 0:
            raise ValueError(f"zero exponent in group word: {token!r}")
        letters.append((name, exp))
    return tuple(letters)


def reference_parse_element(text: str) -> Element:
    """Each 'u -> v' line read in turn, '#' comments and blank lines skipped."""
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


def prime_factors(n: int) -> dict[int, int]:
    """n's prime factorization by trial division up to sqrt(n)."""
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


def reference_rectangular_split(a: int, b: int) -> tuple[int, int]:
    """(p, q) with g = gcd(a, b) = pq, q collecting the prime powers of g
    whose prime divides a / g, read off g's factorization."""
    g = gcd(a, b)
    q = 1
    for prime, mult in prime_factors(g).items():
        if (a // g) % prime == 0:
            q *= prime**mult
    return g // q, q


def lattice_contains(basis, v) -> bool:
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
    alpha = gcd(*w)
    e = (w[0] // alpha, w[1] // alpha)  # w = alpha * e, e primitive
    beta = 0
    if (c, d) != (0, 0) and w == (a, b):
        # parallel by det == 0; coefficient of (c,d) along e
        beta = (c, d)[0] // e[0] if e[0] else (c, d)[1] // e[1]
    gamma = gcd(alpha, beta)
    # v must be an integer multiple of gamma*e
    if v[0] * e[1] != v[1] * e[0]:
        return False
    k = v[0] // e[0] if e[0] else v[1] // e[1]
    return k * e[0] == v[0] and k * e[1] == v[1] and k % gamma == 0


def in_derived(f: Element) -> bool:
    return abelianize(f) == (0, 0)


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


def interval_endpoints(u: Word) -> tuple[Dyadic, Dyadic]:
    """Both endpoints of [u] = [.u, .u + 2^-|u|]."""
    check_word(u)
    k = int(u, 2) if u else 0
    return Dyadic(k, len(u)), Dyadic(k + 1, len(u))


def is_prefix(u: Word, v: Word) -> bool:
    """True iff u is an initial segment of v (non-strict)."""
    return v.startswith(u)


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
    branch starting at .s with slope-log >= 1; found by the bisect locator.
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


def reference_uvw(f: Element) -> tuple[int, Word, Word, Word]:
    """(sign, u, v, w) as `find_uvw` derived them by search: the tail pair at
    the fixed boundary of f, or of f^-1 where f's fails."""
    sp = left_fixed_boundary(f)
    try:
        sign, (n, m) = 1, zero_tail_pair(f, sp)
    except PreconditionViolated:
        sign, (n, m) = -1, zero_tail_pair(invert(f), sp)
    return sign, sp + "0" * (2 * n - m) + "1", sp + "0" * n + "1", sp + "0" * m + "1"


def reference_tail_pair(f: Element, t: str) -> tuple[GroupWord, int, int]:
    """`synthesis._tail_pair` by search: the tail pair at 0 of h, or of
    flip(h) for the end at 1, h = f or f^-1 as f's slope there says."""
    sign = 1 if abelianize(f)[int(t)] > 0 else -1
    h = f if sign > 0 else invert(f)
    n, m = zero_tail_pair(flip(h) if t == "1" else h, "")
    return (("f", sign),), n, m


def left_block(T, w, c):
    # slope 2^c at 0 (c = 0: leftmost branch pinned), then transport
    # u_2 .. u_{k-1} under [w0]
    u1 = T[0]
    iw0 = T.index(w + "0")
    if c:
        rows = [(u1 + "0" * (c + 1), u1 + "0")]
        for i in range(1, c):
            rows.append((u1 + "0" * (c + 1 - i) + "1", u1 + "1" * i + "0"))
        rows.append((u1 + "01", u1 + "1" * c))
        rows.append((u1 + "1", T[1]))
    else:
        rows = [(u1 + "0", u1 + "0"), (u1 + "10", u1 + "1"), (u1 + "11", T[1])]
    for j in range(1, iw0 - 1):
        rows.append((T[j], T[j + 1]))
    rows.append((T[iw0 - 1], w + "00"))
    rows.append((w + "0", w + "01"))
    return rows


def basic_block(w):
    # copy of x1 inside [w10]; fixes .w101 with slopes (1, 2)
    return [
        (w + "100", w + "100"),
        (w + "10100", w + "1010"),
        (w + "10101", w + "10110"),
        (w + "1011", w + "10111"),
    ]


def right_block(T, w, d):
    # interior transported down toward [w1], then slope 2^-d at 1
    # (d = 0: rightmost branch pinned up to one caret)
    iw0 = T.index(w + "0")
    n = len(T)
    un = T[-1]
    rows = [(w + "11", w + "110"), (T[iw0 + 3], w + "111")]
    for j in range(iw0 + 4, n - 1):
        rows.append((T[j], T[j - 1]))
    if not d:
        rows.append((un + "00", T[n - 2]))
        rows.append((un + "01", un + "0"))
        rows.append((un + "1", un + "1"))
        return rows
    rows.append((un + "0", T[n - 2]))
    rows.append((un + "10", un + "0" * d))
    for i in range(2, d + 1):
        rows.append((un + "1" * i + "0", un + "0" * (d + 1 - i) + "1"))
    rows.append((un + "1" * (d + 1), un + "1"))
    return rows


def reference_blocks(T, w, c, d):
    """Blocks of the partner for (c, d) on scaffold T, as the builders give them."""
    if (c or d) < 0:
        c, d = -c, -d
    c_rows = right_block(T, w, abs(d))
    if d < 0:
        c_rows = [(q, p) for p, q in c_rows]
    return (
        ("A" if c else "A''", tuple(left_block(T, w, c))),
        ("B", tuple(basic_block(w))),
        ("C" if d else "C'", tuple(c_rows)),
    )


def self_check_blocks(result) -> None:
    """Check a synthesis result against the builders' rows on its own
    scaffold, moved word and target: the rows tile [0,1] on both sides and
    rebuild g (g^-1 when the target's first non-zero coordinate is
    negative), every emitted witness of that g-letter is one of the rows,
    and g hits its target."""
    cert = result.certificate
    c, d = result.target
    rows = [row for _, block in reference_blocks(cert.tree, cert.w, c, d) for row in block]
    dom = [p for p, _ in rows]
    rng = [q for _, q in rows]
    if not is_complete_prefix_code(dom):
        raise AssertionError("block domains do not tile [0,1]")
    if not is_complete_prefix_code(rng):
        raise AssertionError("block ranges do not tile [0,1]")
    sign = -1 if (c or d) < 0 else 1
    if from_codes(dom, rng) != (result.g if sign > 0 else invert(result.g)):
        raise AssertionError("block tables do not rebuild the partner")
    table = set(rows)
    stray = [x for x in cert.witnesses if x.word == (("g", sign),)
             and (x.lhs, x.rhs) not in table]
    if stray:
        raise AssertionError(f"g-witnesses off the block tables: {stray}")
    if abelianize(result.g) != result.target:
        raise AssertionError("partner misses its abelianization target")


def invert_result(res):
    """Partner for the negated target, copied field by field: same subgroup,
    inverse element.

    Tree, w and schemas carry over; every witness word just swaps g for
    g^-1, since the new g's inverse has exactly the old g's table."""

    def inv_word(word: GroupWord) -> GroupWord:
        return tuple((name, -k if name == "g" else k) for name, k in word)

    def inv_witness(wit: Witness) -> Witness:
        return Witness(inv_word(wit.word), wit.lhs, wit.rhs)

    cert = res.certificate
    new_cert = replace(
        cert,
        g=invert(res.g),
        witnesses=tuple(inv_witness(x) for x in cert.witnesses),
        left_schema=replace(cert.left_schema, witness=inv_witness(cert.left_schema.witness)),
        right_schema=replace(cert.right_schema, witness=inv_witness(cert.right_schema.witness)),
        slope=SlopeWitness(inv_word(cert.slope.word), cert.slope.alpha),
    )
    return replace(
        res,
        certificate=new_cert,
        target=AbelianImage(-res.target.at_zero, -res.target.at_one),
    )
