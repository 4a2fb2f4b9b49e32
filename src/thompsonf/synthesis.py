"""Partner construction: given a non-trivial f and a target abelianization
image (c, d), build g by tree surgery so that <f, g> contains every element
of slope 1 at both endpoints, and emit the certificate proving it.

All four constructions share one layout, built by one body with a choice
at each end. A scaffold tree is completed around the moved triple
u -> v -> w of f; the partner's domain and range trees are the scaffold
with small standard subtrees hung at a handful of branches.
The branch-pair table is the leaf-by-leaf pairing of those two surgered
trees, and the blocks are read off it, cut after the row (w0, w01) and
after the four rows under [w10]:

  (A)  a shift along the leftmost branch realizing slope 2^c at 0,
       or (A'') a rigid version for c = 0, then the interior moved right;
  (B)  a copy of the basic generator x1 inside [w10], providing the
       fixed point with one-sided slopes (1, 2);
  (C)  a shift along the rightmost branch realizing slope 2^-d at 1,
       or (C') a rigid version for d = 0.

Rigid ends cannot prove their own one-sided branch family, so there the
certificate's shift schema leans on a branch pair of f itself - which is
why the boundary targets need f to have non-trivial slope at that endpoint.
A target whose first non-zero coordinate is negative builds the surgery
for (-c, -d) and takes g as its inverse, a sign on every g-letter of the
certificate since <f, g> = <f, g^-1>; so c = 0 takes the sign of d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .certify import (
    Certificate,
    ShiftSchema,
    SlopeWitness,
    SuffixCongruence,
    Witness,
    certify_normal_generation,
    closure_seeds,
    conditions_error,
    queried_words,
)
from .dynamics import IdentityInput, PreconditionViolated, find_uvw, one_tail_pair, zero_tail_pair
from .element import (
    AbelianImage,
    Element,
    GroupWord,
    abelianize,
    from_codes,
    invert,
)
from .lattice import companion_rectangular, complete_basis, index_of
from .words import Word

Tree = tuple[Word, ...]
Row = tuple[Word, Word]
Blocks = tuple[tuple[str, tuple[Row, ...]], ...]

CARET: Tree = ("0", "1")
X1_DOMAIN: Tree = ("0", "100", "101", "11")
X1_RANGE: Tree = ("0", "10", "110", "111")


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    certificate: Certificate
    target: AbelianImage
    part: int
    blocks: Blocks
    block_word: GroupWord  # g or g^-1: the orientation whose table the blocks list

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
    padded so at least three branches follow w11, then optional all-ones /
    all-zeros chains hung at the outer branches (the rigid ends of the
    boundary constructions shift along these)."""
    T = complete_tree([u, v + "0", v + "1", w + "0", w + "10", w + "11"])
    after = len(T) - T.index(w + "11") - 1
    if after < 3:
        T = attach_all(T, {T[-1]: complete_tree(["111"])})
    if right_chain:
        T = attach_all(T, {T[-1]: complete_tree(["1" * right_chain])})
    if left_chain:
        T = attach_all(T, {T[0]: complete_tree(["0" * left_chain])})
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


def _prune_witnesses(cert: Certificate) -> Certificate:
    """Greedily drop plain witnesses whose pair the rest already implies.

    Necessity is judged at the certificate's own depth bound, the same
    closure the checker uses. Scanning left to right, witness i is dropped
    iff the conditions hold on the survivors before i, every witness after
    i and the schema pairs. That closure grows with its seed set, so once
    dropping a witness breaks a condition it stays broken for every later
    (smaller) seed set, and every survivor is necessary.

    If the conditions hold on every seed, they hold on a subset iff w's
    class holds every obligation word: their shapes and length bounds do not
    depend on the seeds. The witnesses `needed_seeds` proves necessary are
    kept, and are in the seeds of every other witness's trial, so they are
    folded once, with the schema pairs. The other trials are decided offline on one
    rolled-back closure: `solve(lo, hi)` starts from the survivors before
    lo and every undecided witness from hi on, so each is folded O(log R)
    times for R undecided."""
    n = len(cert.witnesses)  # seeds n and n + 1 are the schema pairs
    cong = SuffixCongruence(closure_seeds(cert), _obligations(cert))
    if conditions_error(cert, cong, cert.depth) is not None:
        return cert  # no trial can pass on fewer seeds
    total = cong.weight(cert.w)  # every obligation node, since all are ~ w
    kept = cong.needed_seeds(cert.w, n)
    rest = sorted(set(range(n)).difference(kept))
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


def _construct(f: Element, c: int, d: int) -> SynthesisResult:
    """The one tree-surgery layout, with a choice made at each end.

    An end whose coordinate is non-zero shifts along g: slope 2^c at 0,
    2^-d at 1, where d < 0 is the same surgery with domain and range
    swapped right of [w1], its shift witness carried by g^-1. An end whose
    coordinate is 0 is rigid: the scaffold grows a chain there and the
    schema shifts along f's own tail pair instead. A negative first non-zero
    coordinate (c < 0, or c = 0 and d < 0) builds the surgery for (-c, -d)
    and takes g as its inverse: <f, g> = <f, g^-1>, so the certificate is
    the same but for the sign of every g-letter."""
    target = AbelianImage(c, d)
    part = 4 - 2 * (c != 0) - (d != 0)  # 1: (c, d), 2: (c, 0), 3: (0, d), 4: (0, 0)
    sign = -1 if (c or d) < 0 else 1
    c, d = sign * c, sign * d
    if not d:
        tail_sign, m, ell = one_tail_pair(f)
    if not c:
        a = abelianize(f).at_zero
        n0, m0 = zero_tail_pair(f if a > 0 else invert(f), "")
    triple = find_uvw(f)
    w = triple.w
    T = build_scaffold_tree(
        triple.u, triple.v, w,
        right_chain=0 if d else m,
        left_chain=0 if c else n0,
    )
    u1, un = T[0], T[-1]
    gword: GroupWord = (("g", sign),)
    plus = {w + "10": X1_DOMAIN}
    minus = {w + "0": CARET, w + "10": X1_RANGE}

    if c:
        plus[u1] = complete_tree(["0" * (c + 1)])
        minus[u1] = complete_tree(["1" * c])
        left = ShiftSchema(
            "0", u1, "1", Witness(gword, u1 + "0" * (c + 1), u1 + "0"), c + 1
        )
    else:
        plus[u1] = complete_tree(["11"])
        minus[u1] = CARET
        left = ShiftSchema(
            "0", u1, "1",
            Witness((("f", 1 if a > 0 else -1),), "0" * n0, "0" * m0),
            n0 - m0,
        )

    dd = abs(d)
    if d:
        right_plus = {un: complete_tree(["1" * (dd + 1)])}
        right_minus = {w + "11": CARET, un: complete_tree(["0" * dd])}
        right = ShiftSchema(
            "1", un, "0",
            Witness((("g", sign if d > 0 else -sign),), un + "1" * (dd + 1), un + "1"),
            dd + 1,
        )
    else:
        right_plus = {un: complete_tree(["00"])}
        right_minus = {w + "11": CARET, un: CARET}
        right = ShiftSchema(
            "1", un, "0", Witness((("f", tail_sign),), "1" * m, "1" * (m - ell)), ell
        )
    if d < 0:
        right_plus, right_minus = right_minus, right_plus
    plus.update(right_plus)
    minus.update(right_minus)

    rp = attach_all(T, plus)
    rm = attach_all(T, minus)
    if len(rp) != len(rm):
        raise AssertionError("caret imbalance between domain and range")
    flat = list(zip(rp, rm))
    # A ends at the row (w0, w01); B is the x1 copy under [w10]
    a_end = rp.index(w + "0") + 1
    b_end = a_end + len(X1_DOMAIN)
    blocks: Blocks = (
        ("A" if c else "A''", tuple(flat[:a_end])),
        ("B", tuple(flat[a_end:b_end])),
        ("C" if d else "C'", tuple(flat[b_end:])),
    )
    fword: GroupWord = (("f", triple.sign),)
    witnesses = [Witness(fword, triple.u, triple.v), Witness(fword, triple.v, triple.w)]
    witnesses.extend(Witness(gword, p, q) for p, q in flat)
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
    return SynthesisResult(_prune_witnesses(cert), target, part, blocks, gword)


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
    """Partner making <f, g> the whole group: joint image unimodular.

    Requires gcd of the image of f to be 1."""
    a, b = abelianize(f)
    return synthesize(f, *complete_basis(a, b))


def finite_index_pair(f: Element) -> SynthesisResult:
    """Partner of least possible finite joint-image index.

    The index equals pq from the rectangular form of the image of f;
    requires that image to be non-zero."""
    a, b = abelianize(f)
    c, d, _ = companion_rectangular(a, b)
    return synthesize(f, c, d)
