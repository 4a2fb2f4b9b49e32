"""Partner construction: given a non-trivial f and a target abelianization
image (c, d), build g by tree surgery so that <f, g> contains every element
of slope 1 at both endpoints, and emit the certificate proving it.

Every target goes through one layout. A scaffold tree is completed around
the moved triple u -> v -> w of f; the partner's domain and range trees are
the scaffold with small standard subtrees hung at a handful of branches.
The branch-pair table is the leaf-by-leaf pairing of those two surgered
trees, and it falls into three blocks of rows, cut after the row (w0, w01)
and after the four rows under [w10]:

  (A)  the end at 0, then the interior moved right;
  (B)  a copy of the basic generator x1 inside [w10], providing the
       fixed point with one-sided slopes (1, 2);
  (C)  the end at 1.

t -> 1 - t swaps the two ends and the two coordinates, so one builder,
`_end`, makes both. At its outer all-t branch g shifts, realizing slope
2^c at 0 (A) or 2^-d at 1 (C), or, where that coordinate is 0, stays
rigid (A'', C'). A rigid end cannot prove its own one-sided branch
family, so its shift schema leans on f's tail pair there (`_tail_pair`) -
which is why a zero coordinate needs f to have non-trivial slope at that
endpoint. A target whose first non-zero coordinate is negative builds the
surgery for (-c, -d) and takes g as its inverse, a sign on every g-letter
of the certificate since <f, g> = <f, g^-1>; so c = 0 takes the sign of d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .certify import (
    Certificate,
    ShiftSchema,
    SlopeWitness,
    SuffixCongruence,
    Witness,
    certify_normal_generation,
    closure_seeds,
    queried_words,
)
from .dynamics import IdentityInput, PreconditionViolated, find_uvw
from .element import X1, AbelianImage, Element, GroupWord, abelianize, from_codes
from .lattice import companion_rectangular, complete_basis, index_of
from .words import Word

Tree = tuple[Word, ...]
TailPair = tuple[GroupWord, int, int]  # (f or f^-1 as a word, n, m): t^n -> t^m

CARET: Tree = ("0", "1")


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    certificate: Certificate
    target: AbelianImage

    @property
    def part(self) -> int:  # 1: (c, d), 2: (c, 0), 3: (0, d), 4: (0, 0)
        c, d = self.target
        return 4 - 2 * (c != 0) - (d != 0)

    @property
    def g(self) -> Element:
        return self.certificate.g

    @property
    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:  # images of f and g
        return tuple(abelianize(self.certificate.f)), tuple(self.target)

    @property
    def index(self) -> int | float:
        return index_of(self.basis)


# --- tree carpentry -----------------------------------------------------------


def complete_tree(required) -> Tree:
    """Smallest complete prefix code having the given pairwise-incomparable
    words among its branches: every child of a proper prefix of a required
    word, unless that child is itself such a prefix."""
    inner = {x[:i] for x in required for i in range(len(x))}
    clash = inner.intersection(required)
    if clash:
        raise AssertionError(f"comparable input words at {min(clash)!r}")
    if not inner:
        return ("",)
    return tuple(sorted({p + b for p in inner for b in "01"} - inner))


def attach_all(tree, attachments: dict[Word, Tree]) -> Tree:
    """Replace each named branch by the subtree hung at it."""
    missing = set(attachments) - set(tree)
    if missing:
        raise AssertionError(f"not branches of the tree: {sorted(missing)}")
    out: list[Word] = []
    for b in tree:
        sub = attachments.get(b)
        if sub is None:
            out.append(b)
        else:
            out.extend(b + s for s in sub)
    return tuple(out)


def build_scaffold_tree(
    u: Word, v: Word, w: Word, right_chain: int = 0, left_chain: int = 0
) -> Tree:
    """Scaffold around the moved triple: branches u, v0, v1, w0, w10, w11,
    with the all-ones branch 3 longer when fewer than three branches follow
    w11, then right_chain longer, and the all-zeros branch left_chain longer
    (the rigid ends of the boundary constructions shift along these chains).
    The tree around the six words alone sizes the two outer words; one more
    `complete_tree` call grows the tree with them among its required words."""
    words = [u, v + "0", v + "1", w + "0", w + "10", w + "11"]
    T = complete_tree(words)
    after = len(T) - T.index(w + "11") - 1
    right = len(T[-1]) + right_chain + (3 if after < 3 else 0)
    T = complete_tree([*words, "1" * right, "0" * (len(T[0]) + left_chain)])
    k, n = T.index(w + "0") + 1, len(T)
    if not 5 <= k <= n - 5:
        raise AssertionError(f"scaffold too small around w0: {(k, n)}")
    return T


# --- certificate assembly -----------------------------------------------------


def _obligations(cert: Certificate) -> list[Word]:
    """w and every word `conditions_error` requires to be related to it:
    the checker's queried words and the base members of both schemas."""
    words = queried_words(cert)
    for sch in (cert.left_schema, cert.right_schema):
        words.extend(sch.stem + sch.tail * i + sch.suffix for i in range(sch.base_count))
    return words


def _required_depth(cert: Certificate) -> int:
    # Longest word named anywhere in the certificate, plus slack for the
    # short transitivity chains the condition derivations route through.
    words = [*_obligations(cert), *cert.tree]
    words.extend(x for pair in closure_seeds(cert) for x in pair)
    return max(map(len, words)) + 4


class _PruningCongruence(SuffixCongruence):
    """The checker's engine with its weighted nodes counted and its folds
    undone, newest first, each at its merged root: `rollback` undoes those
    since a `mark`, `rollback(0)` all of them; `add` folds seeds back in."""

    __slots__ = ("_heavy",)

    def __init__(self, seeds, weighted=()):
        super().__init__(seeds, weighted := list(weighted))
        self._heavy = {self._node[x] for x in weighted}

    def mark(self) -> int:
        """The point `rollback` returns to: the folds made so far."""
        return len(self._log)

    def rollback(self, mark: int) -> None:
        """Undo every fold made since `mark`, newest first."""
        parent, size, weight = self._parent, self._size, self._weight
        kids, log = self._kids, self._log
        for entry in reversed(log[mark:]):
            b = entry >> 2
            a = parent[b]
            if entry & 1:
                kids[2 * a] = -1
            if entry & 2:
                kids[2 * a + 1] = -1
            parent[b] = b
            size[a] -= size[b]
            weight[a] -= weight[b]
        del log[mark:]

    def needed_seeds(self, w: Word, limit: int) -> list[int]:
        """Seeds below `limit` that every closure of fewer seeds needs to
        hold every weighted word in w's class, read off the closed partition.

        A node's class grows only when a seed names it or when its trie
        parent's class merges with one that has a child on the same letter,
        and the closure of fewer seeds refines this one. So a weighted node
        other than w's that one non-trivial seed alone names, and whose
        parent is alone in its class here, stays alone without that seed.
        A parent is read from the child slots; one a fold filled names a
        merged root, which is never alone, so that read only proves less."""
        namer: dict[int, int] = {}  # node -> the one non-trivial seed naming it, or -1
        for k, (u, v) in enumerate(self._pairs):
            if u != v:
                namer[u] = -1 if u in namer else k
                namer[v] = -1 if v in namer else k
        slot = dict(zip(self._kids, range(len(self._kids))))
        home, parent, size = self._node.get(w), self._parent, self._size
        needed = set()
        for x in self._heavy:
            k = namer.get(x, -1)
            if 0 <= k < limit and x != home and x in slot:
                p = slot[x] >> 1
                if parent[p] == p and size[p] == 1:
                    needed.add(k)
        return sorted(needed)

    def weight(self, word: Word) -> int:
        """How many weighted nodes the class of `word` holds."""
        cur, rest = self.walk(word)
        return 0 if rest else self._weight[cur]


def _prune_witnesses(cert: Certificate) -> Certificate:
    """Greedily drop plain witnesses whose pair the rest already implies.

    Necessity is judged at the certificate's own depth bound, the same
    closure the checker uses. Scanning left to right, witness i is dropped
    iff the conditions hold on the survivors before i, every witness after
    i and the schema pairs. That closure grows with its seed set, so once
    dropping a witness breaks a condition it stays broken for every later
    (smaller) seed set, and every survivor is necessary.

    The surgery makes the conditions hold on every seed; where they do not,
    they fail on every subset too, and `_certified` rejects the result. They
    hold on a subset iff w's class holds every obligation word: their shapes
    and length bounds do not depend on the seeds. The witnesses
    `needed_seeds` proves necessary are kept, and are in the seeds of every
    other witness's trial, so they are folded once, with the schema pairs.
    A witness with lhs == rhs, or whose pair, either way round, is that of
    a later witness, a proven one or a schema pair, is dropped with no
    trial: that pair is in every trial state that holds the witness, so
    dropping it leaves the closure as it is, and the state with it holds
    the conditions. Distinct words are distinct nodes, so word pairs decide
    this. The other trials are decided offline on one rolled-back closure:
    `solve(lo, hi)` starts from the survivors before lo and every undecided
    witness from hi on, so each is folded O(log R) times for R undecided."""
    n = len(cert.witnesses)  # seeds n and n + 1 are the schema pairs
    seeds = closure_seeds(cert)
    cong = _PruningCongruence(seeds, _obligations(cert))
    total = cong.weight(cert.w)  # every obligation node, since all are ~ w
    kept = cong.needed_seeds(cert.w, n)
    known = {pair for k in (*kept, n, n + 1) for pair in (seeds[k], seeds[k][::-1])}
    rest = []
    for k in sorted(set(range(n)).difference(kept), reverse=True):
        u, v = seeds[k]
        if u != v and (u, v) not in known:
            rest.append(k)
            known.update(((u, v), (v, u)))
    rest.reverse()
    cong.rollback(0)
    cong.add([*kept, n, n + 1])

    def solve(lo: int, hi: int) -> None:
        if hi - lo == 1:
            if cong.weight(cert.w) != total:
                kept.append(rest[lo])
            return
        mid, mark, before = (lo + hi) // 2, cong.mark(), len(kept)
        cong.add(rest[mid:hi])
        solve(lo, mid)
        cong.rollback(mark)
        cong.add(kept[before:])  # the survivors in [lo, mid)
        solve(mid, hi)

    if rest:
        solve(0, len(rest))
    return replace(cert, witnesses=tuple(cert.witnesses[k] for k in sorted(kept)))


def _certified(result: SynthesisResult) -> SynthesisResult:
    """The one check of a result, made on what is returned: g hits the
    target it is labelled with, and the emitted certificate passes.

    Pruning only drops witnesses, so the unpruned certificate needs no
    check of its own: a fault in the surgery or the pruner shows up here."""
    if abelianize(result.g) != result.target:
        raise AssertionError("partner misses its abelianization target")
    check = certify_normal_generation(result.certificate)
    if not check.ok:
        raise AssertionError(f"pruned certificate rejected: {check}")
    return result


# --- the constructions --------------------------------------------------------


def _tail_pair(f: Element, t: str) -> TailPair:
    """(h's one-letter word, n, m): h is whichever of f, f^-1 has slope > 1
    at end t, with tail pair t^n -> t^m, n > m >= 0. It is f's end row, the
    first at 0 and the last at 1, read toward its longer word: f^-1 swaps
    the row's sides. Needs slope != 1 at t."""
    x, y = f.pairs[0] if t == "0" else f.pairs[-1]
    n, m = sorted((len(x), len(y)), reverse=True)
    return (("f", 1 if len(x) > len(y) else -1),), n, m


def _end(
    t: str, branch: Word, k: int, gword: GroupWord, tail: TailPair | None
) -> tuple[Tree, Tree, ShiftSchema]:
    """g's domain and range subtrees at the outer all-t branch, and that
    end's shift schema. k > 0 shifts along gword, t^(k+1) -> t under the
    branch; k = 0 is rigid and the schema shifts along f's `tail` pair."""
    s = "1" if t == "0" else "0"  # the letter pointing inward
    if k:
        shift = Witness(gword, branch + t * (k + 1), branch + t)
        dom, ran, count = complete_tree([t * (k + 1)]), complete_tree([s * k]), k + 1
    else:
        word, n, m = tail
        shift = Witness(word, t * n, t * m)
        dom, ran, count = complete_tree([s * 2]), CARET, n - m
    return dom, ran, ShiftSchema(t, branch, s, shift, count)


def _construct(f: Element, c: int, d: int) -> SynthesisResult:
    """The one tree-surgery layout, with each end built by `_end`.

    An end whose coordinate is non-zero shifts along g: slope 2^c at 0,
    2^-d at 1, where d < 0 is the same surgery with domain and range
    swapped right of [w1], its shift witness carried by g^-1. An end whose
    coordinate is 0 is rigid: the scaffold grows a chain there as long as
    f's tail pair, along which the schema shifts. A negative first non-zero
    coordinate (c < 0, or c = 0 and d < 0) builds the surgery for (-c, -d)
    and takes g as its inverse: <f, g> = <f, g^-1>, so the certificate is
    the same but for the sign of every g-letter."""
    target = AbelianImage(c, d)
    sign = -1 if (c or d) < 0 else 1
    c, d = sign * c, sign * d
    left_tail = None if c else _tail_pair(f, "0")
    right_tail = None if d else _tail_pair(f, "1")
    triple = find_uvw(f)
    w = triple.w
    T = build_scaffold_tree(
        triple.u, triple.v, w,
        right_chain=right_tail[1] if right_tail else 0,
        left_chain=left_tail[1] if left_tail else 0,
    )
    gword: GroupWord = (("g", sign),)
    left_plus, left_minus, left = _end("0", T[0], c, gword, left_tail)
    right_plus, right_minus, right = _end(
        "1", T[-1], abs(d), (("g", sign if d > 0 else -sign),), right_tail
    )
    plus = {T[0]: left_plus, w + "10": X1.domain, T[-1]: right_plus}
    minus = {T[0]: left_minus, w + "0": CARET, w + "10": X1.range, w + "11": CARET,
             T[-1]: right_minus}
    if d < 0:  # domain and range trade places right of [w1]
        plus[T[-1]], minus[T[-1]] = right_minus, right_plus
        plus[w + "11"] = minus.pop(w + "11")

    rp = attach_all(T, plus)
    rm = attach_all(T, minus)
    if len(rp) != len(rm):
        raise AssertionError("caret imbalance between domain and range")
    fword: GroupWord = (("f", triple.sign),)
    witnesses = [Witness(fword, triple.u, triple.v), Witness(fword, triple.v, triple.w)]
    witnesses.extend(Witness(gword, p, q) for p, q in zip(rp, rm))
    cert = Certificate(
        f=f,
        g=from_codes(rp, rm) if sign > 0 else from_codes(rm, rp),
        tree=T,
        w=w,
        witnesses=tuple(witnesses),
        left_schema=left,
        right_schema=right,
        slope=SlopeWitness(gword, w + "101"),
        depth=1,
    )
    # Depth is fixed before pruning and kept afterwards, which pins the
    # certificate's bytes. A bound recomputed after pruning would pass too:
    # it only filters query lengths, and _required_depth covers every word
    # the conditions query.
    cert = replace(cert, depth=_required_depth(cert))
    return SynthesisResult(_prune_witnesses(cert), target)


def synthesize(f: Element, c: int, d: int) -> SynthesisResult:
    """Partner g with abelianization image exactly (c, d), checked once.

    Feasible iff f is non-trivial and each zero coordinate of the target is
    backed by a non-trivial slope of f at that endpoint (c = 0 needs
    slope-log a != 0 at 0+, d = 0 needs b != 0 at 1-), along whose tail
    pair the rigid end shifts. Every target goes through the one surgery;
    with c = 0 the sign of d picks between g and g^-1."""
    if f.is_identity():
        raise IdentityInput("no partner for the identity")
    a, b = abelianize(f)
    if c == 0 and a == 0:
        raise PreconditionViolated("target c = 0 needs f of non-trivial slope at 0+")
    if d == 0 and b == 0:
        raise PreconditionViolated("target d = 0 needs f of non-trivial slope at 1-")
    return _certified(_construct(f, c, d))


def complete_generating_pair(f: Element) -> SynthesisResult:
    """Partner making <f, g> the whole group; needs f's image (a, b) of gcd 1."""
    a, b = abelianize(f)
    k = gcd(a, b)  # 0 exactly on [F, F]
    if k != 1:
        why = "f is in [F, F] (image (0,0))" if k == 0 else (
            f"gcd({a},{b}) = {k} divides det[(a,b),(c,d)] for every partner (c,d),"
            " so the images never span Z^2")
        raise PreconditionViolated(f"{why}: no g gives <f, g> = F")
    return synthesize(f, *complete_basis(a, b))


def finite_index_pair(f: Element) -> SynthesisResult:
    """Partner of least possible finite joint-image index.

    The index equals pq from the rectangular form of the image of f;
    requires that image to be non-zero, i.e. f outside [F, F]."""
    a, b = abelianize(f)
    if (a, b) == (0, 0):
        raise PreconditionViolated("f is in [F, F] (image (0,0)): no g gives finite index")
    c, d, _ = companion_rectangular(a, b)
    return synthesize(f, c, d)
