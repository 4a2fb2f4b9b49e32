"""Partner construction: given a non-trivial f and a target abelianization
image (c, d), build g by tree surgery so that <f, g> contains every element
of slope 1 at both endpoints, and emit the certificate proving it.

All four constructions share one layout, built by one body with a choice
at each end. A scaffold tree is completed around
the moved triple u -> v -> w of f; the partner's domain and range trees are
the scaffold with small standard subtrees hung at a handful of branches, and
the branch-pair table splits into contiguous blocks:

  (A)  a shift along the leftmost branch realizing slope 2^c at 0,
       or (A'') a rigid version for c = 0;
  (B)  a copy of the basic generator x1 inside [w10], providing the
       fixed point with one-sided slopes (1, 2);
  (C)  a shift along the rightmost branch realizing slope 2^-d at 1,
       or (C') a rigid version for d = 0.

Rigid ends cannot prove their own one-sided branch family, so there the
certificate's shift schema leans on a branch pair of f itself - which is
why the boundary targets need f to have non-trivial slope at that endpoint.
Negative c is handled by building the partner for (-c, -d) and inverting;
c = 0 with d != 0 by mirroring everything through t -> 1 - t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .certify import (
    Certificate,
    ShiftSchema,
    SlopeWitness,
    Witness,
    certify_normal_generation,
    closure_seeds,
    conditions_error,
)
from .dynamics import IdentityInput, PreconditionViolated, find_uvw, one_tail_pair, zero_tail_pair
from .element import (
    AbelianImage,
    Element,
    GroupWord,
    abelianize,
    eval_word,
    flip,
    from_codes,
    invert,
)
from .lattice import companion_rectangular, complete_basis, index_of
from .words import Word, is_complete_prefix_code

Tree = tuple[Word, ...]
Row = tuple[Word, Word]
Blocks = tuple[tuple[str, tuple[Row, ...]], ...]

CARET: Tree = ("0", "1")
X1_DOMAIN: Tree = ("0", "100", "101", "11")
X1_RANGE: Tree = ("0", "10", "110", "111")

_COMPLEMENT = str.maketrans("01", "10")


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    g: Element
    certificate: Certificate
    target: AbelianImage
    part: int
    blocks: Blocks
    block_word: GroupWord  # g or g^-1: the orientation whose table the blocks list
    basis: tuple[tuple[int, int], tuple[int, int]]
    index: int | float


# --- tree carpentry -----------------------------------------------------------


def minimal_tree_with_branch(branch: Word) -> Tree:
    """Branches of the smallest tree containing `branch`: the branch itself
    plus the sibling hanging off each proper prefix."""
    if not branch:
        return ("",)
    other = {"0": "1", "1": "0"}
    leaves = [branch[:i] + other[branch[i]] for i in range(len(branch))]
    leaves.append(branch)
    return tuple(sorted(leaves))


def complete_tree(required) -> Tree:
    """Smallest complete prefix code having the given pairwise-incomparable
    words among its branches."""
    out: list[Word] = []

    def descend(prefix: Word, words: list[Word]) -> None:
        if not words or words == [prefix]:
            out.append(prefix)
            return
        if prefix in words:
            raise AssertionError(f"comparable input words at {prefix!r}")
        at = len(prefix)
        descend(prefix + "0", [x for x in words if x[at] == "0"])
        descend(prefix + "1", [x for x in words if x[at] == "1"])

    descend("", sorted(set(required)))
    return tuple(out)


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
        T = attach_all(T, {T[-1]: minimal_tree_with_branch("111")})
    if right_chain:
        T = attach_all(T, {T[-1]: minimal_tree_with_branch("1" * right_chain)})
    if left_chain:
        T = attach_all(T, {T[0]: minimal_tree_with_branch("0" * left_chain)})
    k, n = T.index(w + "0") + 1, len(T)
    if not 5 <= k <= n - 5:
        raise AssertionError(f"scaffold too small around w0: {(k, n)}")
    return T


# --- block tables -------------------------------------------------------------
#
# Each block lists consecutive (domain, range) rows of the partner's table.
# Row order must match the leaf order of the surgered trees; _construct
# checks that the concatenated blocks equal the zipped leaf lists.


def _left_block(T: Tree, w: Word, c: int) -> list[Row]:
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


def _basic_block(w: Word) -> list[Row]:
    # copy of x1 inside [w10]; fixes .w101 with slopes (1, 2)
    return [
        (w + "100", w + "100"),
        (w + "10100", w + "1010"),
        (w + "10101", w + "10110"),
        (w + "1011", w + "10111"),
    ]


def _right_block(T: Tree, w: Word, d: int) -> list[Row]:
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


# --- certificate assembly -----------------------------------------------------


def _invert_g_word(word: GroupWord) -> GroupWord:
    return tuple((name, -k if name == "g" else k) for name, k in word)


def _invert_g_witness(wit: Witness) -> Witness:
    return Witness(_invert_g_word(wit.word), wit.lhs, wit.rhs)


def _flip_word(u: Word) -> Word:
    return u.translate(_COMPLEMENT)


def _flip_witness(wit: Witness) -> Witness:
    # mirroring is an automorphism, so the same group word carries the
    # complemented pair
    return Witness(wit.word, _flip_word(wit.lhs), _flip_word(wit.rhs))


def _required_depth(cert: Certificate) -> int:
    # Longest word named anywhere in the certificate, plus slack for the
    # short transitivity chains the condition derivations route through.
    words = [cert.w + "0", cert.w + "1"]
    words.extend(cert.tree)
    for sch in (cert.left_schema, cert.right_schema):
        words.append(sch.stem + sch.tail * max(sch.base_count - 1, 0) + sch.suffix)
    for x, y in closure_seeds(cert):
        words.append(x)
        words.append(y)
    return max(len(x) for x in words) + 4


def _prune_witnesses(cert: Certificate) -> Certificate:
    """Greedily drop plain witnesses whose pair the rest already implies.

    Necessity is judged at the certificate's own depth bound, the same
    closure the checker uses. That closure grows with its seed set, so once
    dropping a witness breaks a condition it stays broken for every later
    (smaller) seed set; a single left-to-right pass therefore leaves every
    survivor necessary."""
    schema_pairs = [
        cert.left_schema.witness.pair,
        cert.right_schema.witness.pair,
    ]
    kept = list(cert.witnesses)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        seeds = [x.pair for x in trial] + schema_pairs
        if conditions_error(cert, seeds, cert.depth) is None:
            kept = trial
        else:
            i += 1
    return replace(cert, witnesses=tuple(kept))


def self_check_blocks(result: SynthesisResult) -> None:
    """Re-derive the partner from the block tables alone and compare."""
    rows = [row for _, block in result.blocks for row in block]
    dom = [p for p, _ in rows]
    rng = [q for _, q in rows]
    if not is_complete_prefix_code(dom):
        raise AssertionError("block domains do not tile [0,1]")
    if not is_complete_prefix_code(rng):
        raise AssertionError("block ranges do not tile [0,1]")
    if from_codes(dom, rng) != eval_word(result.block_word, {"g": result.g}):
        raise AssertionError("block tables do not rebuild the partner")
    if abelianize(result.g) != result.target:
        raise AssertionError("partner misses its abelianization target")


def _finish(
    cert: Certificate,
    target: AbelianImage,
    part: int,
    blocks: Blocks,
    block_word: GroupWord,
    what: str,
) -> SynthesisResult:
    """The one tail every result goes through: certify, then wrap."""
    check = certify_normal_generation(cert)
    if not check.ok:
        raise AssertionError(f"{what} certificate rejected: {check}")
    basis = (tuple(abelianize(cert.f)), tuple(target))
    result = SynthesisResult(
        g=cert.g,
        certificate=cert,
        target=target,
        part=part,
        blocks=blocks,
        block_word=block_word,
        basis=basis,
        index=index_of(basis),
    )
    self_check_blocks(result)
    return result


def _invert_result(res: SynthesisResult) -> SynthesisResult:
    """Partner for the negated target: same subgroup, inverse element.

    Tree, w and schemas carry over; every witness word just swaps g for
    g^-1, since the new g's inverse has exactly the old g's table."""
    cert = res.certificate
    new_cert = replace(
        cert,
        g=invert(res.g),
        witnesses=tuple(_invert_g_witness(x) for x in cert.witnesses),
        left_schema=replace(
            cert.left_schema, witness=_invert_g_witness(cert.left_schema.witness)
        ),
        right_schema=replace(
            cert.right_schema, witness=_invert_g_witness(cert.right_schema.witness)
        ),
        slope=SlopeWitness(_invert_g_word(cert.slope.word), cert.slope.alpha),
    )
    target = AbelianImage(-res.target.at_zero, -res.target.at_one)
    return _finish(
        new_cert, target, res.part, res.blocks, _invert_g_word(res.block_word), "inverted"
    )


def _flip_result(res: SynthesisResult, f: Element) -> SynthesisResult:
    """Mirror a partner for flip(f) through t -> 1 - t.

    Mirroring complements every word and reverses branch order, swaps the
    two schemas, and swaps one-sided slopes - so the slope witness cannot
    carry over. A fresh one exists at .0^R 1 (R the mirrored tree's leftmost
    branch length): the rigid right end of the original partner mirrors to
    rows fixing [0^{R+1}] pointwise and mapping [0^R 10] onto [0^R 1]."""
    cert = res.certificate
    tree = tuple(_flip_word(b) for b in reversed(cert.tree))
    left = ShiftSchema(
        "0",
        tree[0],
        "1",
        _flip_witness(cert.right_schema.witness),
        cert.right_schema.base_count,
    )
    right = ShiftSchema(
        "1",
        tree[-1],
        "0",
        _flip_witness(cert.left_schema.witness),
        cert.left_schema.base_count,
    )
    gamma = "0" * len(cert.tree[-1]) + "1"
    new_cert = Certificate(
        f=f,
        g=flip(res.g),
        tree=tree,
        w=_flip_word(cert.w),
        witnesses=tuple(_flip_witness(x) for x in cert.witnesses),
        left_schema=left,
        right_schema=right,
        slope=SlopeWitness(cert.slope.word, gamma),
        depth=cert.depth,
    )
    new_cert = replace(new_cert, depth=_required_depth(new_cert))
    target = AbelianImage(res.target.at_one, res.target.at_zero)
    blocks = tuple(
        (name, tuple((_flip_word(p), _flip_word(q)) for p, q in reversed(rows)))
        for name, rows in reversed(res.blocks)
    )
    return _finish(new_cert, target, 3, blocks, res.block_word, "mirrored")


# --- the constructions --------------------------------------------------------


def _construct(f: Element, c: int, d: int, part: int) -> SynthesisResult:
    """The one tree-surgery layout, with a choice made at each end.

    An end whose coordinate is non-zero shifts along g: slope 2^c at 0,
    2^-d at 1, where d < 0 is the same surgery with domain and range
    swapped right of [w1], its shift witness carried by g^-1. An end whose
    coordinate is 0 is rigid: the scaffold grows a chain there and the
    schema shifts along f's own tail pair instead. Negative c is built for
    (-c, -d) and inverted."""
    if c < 0:
        return _invert_result(_construct(f, -c, -d, part))
    if not d:
        tail_sign, m, ell = one_tail_pair(f)
    if not c:
        a = abelianize(f).at_zero
        if a == 0:
            raise PreconditionViolated("slope at 0+ is trivial")
        n0, m0 = zero_tail_pair(f if a > 0 else invert(f), "")
    triple = find_uvw(f)
    w = triple.w
    T = build_scaffold_tree(
        triple.u, triple.v, w,
        right_chain=0 if d else m,
        left_chain=0 if c else n0,
    )
    u1, un = T[0], T[-1]
    gword: GroupWord = (("g", 1),)
    plus = {w + "10": X1_DOMAIN}
    minus = {w + "0": CARET, w + "10": X1_RANGE}

    if c:
        plus[u1] = minimal_tree_with_branch("0" * (c + 1))
        minus[u1] = minimal_tree_with_branch("1" * c)
        left = ShiftSchema(
            "0", u1, "1", Witness(gword, u1 + "0" * (c + 1), u1 + "0"), c + 1
        )
    else:
        plus[u1] = minimal_tree_with_branch("11")
        minus[u1] = CARET
        left = ShiftSchema(
            "0", u1, "1",
            Witness((("f", 1 if a > 0 else -1),), "0" * n0, "0" * m0),
            n0 - m0,
        )

    dd = abs(d)
    if d:
        right_plus = {un: minimal_tree_with_branch("1" * (dd + 1))}
        right_minus = {w + "11": CARET, un: minimal_tree_with_branch("0" * dd)}
        right = ShiftSchema(
            "1", un, "0",
            Witness((("g", 1 if d > 0 else -1),), un + "1" * (dd + 1), un + "1"),
            dd + 1,
        )
    else:
        right_plus = {un: minimal_tree_with_branch("00")}
        right_minus = {w + "11": CARET, un: CARET}
        right = ShiftSchema(
            "1", un, "0", Witness((("f", tail_sign),), "1" * m, "1" * (m - ell)), ell
        )
    c_rows = _right_block(T, w, dd)
    if d < 0:
        c_rows = [(q, p) for p, q in c_rows]
        right_plus, right_minus = right_minus, right_plus
    plus.update(right_plus)
    minus.update(right_minus)
    blocks: Blocks = (
        ("A" if c else "A''", tuple(_left_block(T, w, c))),
        ("B", tuple(_basic_block(w))),
        ("C" if d else "C'", tuple(c_rows)),
    )

    rp = attach_all(T, plus)
    rm = attach_all(T, minus)
    if len(rp) != len(rm):
        raise AssertionError("caret imbalance between domain and range")
    flat = [row for _, rows in blocks for row in rows]
    if list(zip(rp, rm)) != flat:
        raise AssertionError("block tables disagree with the surgery")
    fword: GroupWord = (("f", triple.sign),)
    witnesses = [Witness(fword, triple.u, triple.v), Witness(fword, triple.v, triple.w)]
    witnesses.extend(Witness(gword, p, q) for p, q in flat)
    cert = Certificate(
        f=f,
        g=from_codes(rp, rm),
        tree=T,
        w=w,
        witnesses=tuple(witnesses),
        left_schema=left,
        right_schema=right,
        slope=SlopeWitness(gword, w + "101"),
        depth=1,
    )
    # Depth is fixed before pruning and kept afterwards: pruning judges
    # necessity at this bound, so shrinking the bound later could orphan a
    # derivation that was in range when the drop was accepted.
    cert = replace(cert, depth=_required_depth(cert))
    fresh = certify_normal_generation(cert)
    if not fresh.ok:
        raise AssertionError(f"construction produced a rejected certificate: {fresh}")
    return _finish(
        _prune_witnesses(cert), AbelianImage(c, d), part, blocks, gword, "pruned"
    )


def construct_part1(f: Element, c: int, d: int) -> SynthesisResult:
    """Partner with image (c, d), both non-zero; works for every f != 1."""
    if c == 0 or d == 0:
        raise PreconditionViolated("interior construction needs c != 0 and d != 0")
    return _construct(f, c, d, part=1)


def construct_part2(f: Element, c: int) -> SynthesisResult:
    """Partner with image (c, 0), c != 0; needs f of non-trivial slope at 1.

    The right end is rigid, so the rightmost branch family cannot shift
    along g; instead the scaffold grows an all-ones chain of length m and
    the schema shifts along f's own tail pair 1^m -> 1^{m-l}."""
    if c == 0:
        raise PreconditionViolated("boundary construction needs c != 0")
    return _construct(f, c, 0, part=2)


def construct_part3(f: Element, d: int) -> SynthesisResult:
    """Partner with image (0, d), d != 0; needs f of non-trivial slope at 0.

    Mirror image of the (d, 0) construction applied to flip(f)."""
    if d == 0:
        raise PreconditionViolated("boundary construction needs d != 0")
    return _flip_result(construct_part2(flip(f), d), f)


def construct_part4(f: Element) -> SynthesisResult:
    """Partner inside the derived subgroup: image (0, 0); needs f of
    non-trivial slope at both endpoints. Both ends are rigid and both
    schemas shift along branch pairs of f."""
    return _construct(f, 0, 0, part=4)


def synthesize(f: Element, c: int, d: int) -> SynthesisResult:
    """Partner g with abelianization image exactly (c, d).

    Feasible iff f is non-trivial and each zero coordinate of the target is
    backed by a non-trivial slope of f at that endpoint (c = 0 needs
    slope-log a != 0 at 0+, d = 0 needs b != 0 at 1-)."""
    if f.is_identity():
        raise IdentityInput("no partner for the identity")
    a, b = abelianize(f)
    if c == 0 and a == 0:
        raise PreconditionViolated("target c = 0 needs f of non-trivial slope at 0+")
    if d == 0 and b == 0:
        raise PreconditionViolated("target d = 0 needs f of non-trivial slope at 1-")
    if c != 0 and d != 0:
        result = construct_part1(f, c, d)
    elif c != 0:
        result = construct_part2(f, c)
    elif d != 0:
        result = construct_part3(f, d)
    else:
        result = construct_part4(f)
    if result.target != (c, d):
        raise AssertionError(f"partner hits {result.target}, not {(c, d)}")
    return result


def complete_generating_pair(f: Element) -> SynthesisResult:
    """Partner making <f, g> the whole group: joint image unimodular.

    Requires gcd of the image of f to be 1."""
    a, b = abelianize(f)
    c, d = complete_basis(a, b)
    result = synthesize(f, c, d)
    if result.index != 1:
        raise AssertionError(f"joint image has index {result.index}, not 1")
    return result


def finite_index_pair(f: Element) -> SynthesisResult:
    """Partner of least possible finite joint-image index.

    The index equals pq from the rectangular form of the image of f;
    requires that image to be non-zero."""
    a, b = abelianize(f)
    c, d, form = companion_rectangular(a, b)
    result = synthesize(f, c, d)
    if result.index != form.p * form.q:
        raise AssertionError(f"joint image has index {result.index}, not {form.p * form.q}")
    return result
