"""Independent verification that <f,g> contains the derived subgroup of F.

The certificate carries finitely many branch-pair witnesses, two inductive
shift schemas for the infinite word families, and a slope witness. The
checker re-derives everything from the certificate alone:

  * each witness word is evaluated and its claimed branch pair re-checked;
  * the relation closure (symmetry, transitivity, suffix extension) is
    decided exactly by congruence folding on a prefix trie: merge the
    classes of seed pairs, then the classes of same-symbol children of
    merged classes, never creating nodes (the resulting partition is exactly
    the restriction of the smallest right congruence containing the seeds);
  * the four tree conditions (w ~ w0 ~ w1; interior branches ~ w; the two
    one-sided families via schema induction) and the slope-2 fixed point
    are checked against that closure.

FAIL is a value carrying a machine-readable reason code, never an exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .element import (
    Element,
    GroupWord,
    IDENTITY,
    compose,
    eval_word,
    evaluate,
    format_group_word,
    from_codes,
    has_branch_pair,
    image_of_interval,
    invert,
    parse_group_word,
    slope_left,
    slope_right,
)
from .words import (
    Word,
    in_B_prime,
    is_complete_prefix_code,
    word_from_text,
    word_to_dyadic,
    word_to_text,
)

Relation = tuple[Word, Word]


def relation(u: Word, v: Word) -> Relation:
    """Canonical orientation: lexicographic min first."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, slots=True)
class Witness:
    """A group word over {f, g} claimed to carry the branch pair lhs -> rhs."""

    word: GroupWord
    lhs: Word
    rhs: Word

    @property
    def pair(self) -> Relation:
        return (self.lhs, self.rhs)


@dataclass(frozen=True, slots=True)
class ShiftSchema:
    """Induction schema covering the family stem + tail^i + suffix for all i >= 0.

    The witness pair must parse as (y t^a, y t^b) with a > b; members with
    i >= base_count reduce by the shift, members below are base cases that
    must be in the closure.
    """

    tail: str
    stem: Word
    suffix: Word
    witness: Witness
    base_count: int


@dataclass(frozen=True, slots=True)
class SlopeWitness:
    """Element word that fixes .alpha with slope 1 on the left, 2 on the right."""

    word: GroupWord
    alpha: Word


@dataclass(frozen=True, slots=True)
class Certificate:
    f: Element
    g: Element
    tree: tuple[Word, ...]
    w: Word
    witnesses: tuple[Witness, ...]
    left_schema: ShiftSchema
    right_schema: ShiftSchema
    slope: SlopeWitness
    depth: int

    def assignment(self) -> dict[str, Element]:
        return {"f": self.f, "g": self.g}


class CertifyResult(NamedTuple):
    ok: bool
    code: str
    detail: str

    def __str__(self):
        if self.ok:
            return "PASS"
        return f"FAIL {self.code}: {self.detail}"


def _pass() -> CertifyResult:
    return CertifyResult(True, "PASS", "")


def _fail(code: str, detail: str) -> CertifyResult:
    return CertifyResult(False, code, detail)


# --- closure engine ----------------------------------------------------------


class SuffixCongruence:
    """Smallest right congruence on binary words containing the seed pairs.

    Equivalently: the closure of the seeds under symmetry, transitivity and
    the suffix rule (u ~ v implies u0 ~ v0, u1 ~ v1). Built by congruence
    folding over the trie of all seed-word prefixes; `same` decides
    membership exactly for arbitrary words, including words outside the trie
    (their class is determined by the longest materialized prefix).
    """

    __slots__ = ("_parent", "_size", "_children", "_root")

    def __init__(self, seeds):
        self._parent: list[int] = [0]
        self._size: list[int] = [1]
        self._children: list[dict[str, int] | None] = [{}]
        self._root = 0
        pending: list[tuple[int, int]] = []
        for u, v in seeds:
            pending.append((self._add(u), self._add(v)))
        for i, j in pending:
            self._union(i, j)

    def _add(self, word: Word) -> int:
        cur = self._root
        for ch in word:
            kids = self._children[cur]
            nxt = kids.get(ch)
            if nxt is None:
                nxt = len(self._parent)
                self._parent.append(nxt)
                self._size.append(1)
                self._children.append({})
                kids[ch] = nxt
            cur = nxt
        return cur

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _union(self, i: int, j: int) -> None:
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue
            if self._size[ra] < self._size[rb]:
                ra, rb = rb, ra
            self._parent[rb] = ra
            self._size[ra] += self._size[rb]
            merged = self._children[rb]
            self._children[rb] = None
            keep = self._children[ra]
            for ch, node in merged.items():
                other = keep.get(ch)
                if other is None:
                    keep[ch] = node
                else:
                    stack.append((other, node))

    def _walk(self, word: Word) -> tuple[int, Word]:
        cur = self._find(self._root)
        for i, ch in enumerate(word):
            nxt = self._children[cur].get(ch)
            if nxt is None:
                return cur, word[i:]
            cur = self._find(nxt)
        return cur, ""

    def same(self, u: Word, v: Word) -> bool:
        cu, ru = self._walk(u)
        cv, rv = self._walk(v)
        return cu == cv and ru == rv


def saturate(seeds, L: int) -> frozenset[Relation]:
    """Length-bounded least fixpoint of the three closure rules.

    Materializes every derivable relation between words of length <= L;
    exponential in L, intended for small bounds (the certifier itself uses
    SuffixCongruence, which needs no bound).
    """
    from collections import defaultdict, deque

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


# --- certificate checks -------------------------------------------------------


def _eval(cert: Certificate, word: GroupWord, memo: dict[GroupWord, Element]) -> Element:
    """eval_word over the certificate's pair, at most once per word in memo."""
    h = memo.get(word)
    if h is None:
        h = memo[word] = eval_word(word, cert.assignment())
    return h


def verify_witness(
    cert: Certificate, wit: Witness, memo: dict[GroupWord, Element] | None = None
) -> bool:
    """Evaluate the witness word and re-check its claimed branch pair.

    `memo` maps already evaluated words to their elements; pass one dict
    for a whole check so that each distinct word is evaluated once.
    """
    h = _eval(cert, wit.word, {} if memo is None else memo)
    return has_branch_pair(h, wit.lhs, wit.rhs)


def _all_witnesses(cert: Certificate) -> list[Witness]:
    return [
        *cert.witnesses,
        cert.left_schema.witness,
        cert.right_schema.witness,
    ]


def closure_seeds(cert: Certificate) -> list[Relation]:
    """Every verified-relation seed available to the closure: the witness
    pairs plus the two schema shift pairs."""
    return [wit.pair for wit in _all_witnesses(cert)]


def _schema_error(
    cert: Certificate, schema: ShiftSchema, cong: SuffixCongruence, side: str
) -> str | None:
    t = schema.tail
    expected_stem = cert.tree[0] if side == "left" else cert.tree[-1]
    expected_tail = "0" if side == "left" else "1"
    expected_suffix = "1" if side == "left" else "0"
    if (schema.stem, t, schema.suffix) != (expected_stem, expected_tail, expected_suffix):
        return (
            f"{side} schema must cover {word_to_text(expected_stem)}"
            f"{expected_tail}^i{expected_suffix}"
        )
    x, y = schema.witness.lhs, schema.witness.rhs
    base = x.rstrip(t)
    a = len(x) - len(base)
    if not (y.startswith(base) and set(y[len(base):]) <= {t}):
        return f"shift pair {word_to_text(x)} -> {word_to_text(y)} has mismatched bases"
    b = len(y) - len(base)
    if a <= b:
        return f"shift pair does not strictly shorten the tail ({a} -> {b})"
    if not (schema.stem.startswith(base) and set(schema.stem[len(base):]) <= {t}):
        return "stem is not a tail extension of the shift pair's base"
    j = len(schema.stem) - len(base)
    need = max(a - b, a - j)
    if schema.base_count < need:
        return f"base_count {schema.base_count} < required {need}"
    for i in range(schema.base_count):
        member = schema.stem + t * i + schema.suffix
        if not cong.same(member, cert.w):
            return f"base relation {word_to_text(member)} ~ {word_to_text(cert.w)} unproved"
    return None


def _slope_error(cert: Certificate, memo: dict[GroupWord, Element]) -> str | None:
    alpha_word = cert.slope.alpha
    if "1" not in alpha_word:
        return "alpha must lie in (0,1)"
    h = _eval(cert, cert.slope.word, memo)
    alpha = word_to_dyadic(alpha_word)
    if evaluate(h, alpha) != alpha:
        return f"element does not fix .{alpha_word}"
    if slope_left(h, alpha) != 0:
        return "left slope is not 1"
    if slope_right(h, alpha) != 1:
        return "right slope is not 2"
    return None


def _structural_error(cert: Certificate) -> str | None:
    if not cert.tree:
        return "empty tree"
    if not is_complete_prefix_code(cert.tree):
        return "tree branches are not a complete prefix code"
    if not in_B_prime(cert.w):
        return "w must contain both digits"
    if set(cert.tree[0]) - {"0"} or set(cert.tree[-1]) - {"1"}:
        return "tree must start at the all-zeros branch and end at the all-ones branch"
    if cert.depth < 1:
        return "depth must be positive"
    if cert.left_schema.base_count < 0 or cert.right_schema.base_count < 0:
        return "negative base_count"
    symbols = cert.assignment()
    for word in [wit.word for wit in _all_witnesses(cert)] + [cert.slope.word]:
        for name, _ in word:
            if name not in symbols:
                return f"unknown symbol {name!r} in '{format_group_word(word)}'"
    return None


class _BoundedRelation:
    """Membership test for the length-bounded saturation, without building it.

    The bounded closure stabilizes once the bound reaches the longest seed
    word: every merge the congruence engine performs joins two trie nodes,
    which are no longer than the longest seed, so any congruence-equal pair
    (u, v) has a pair derivation whose intermediates stay within
    max(longest seed, |u|, |v|). For bounds at or above the longest seed,
    membership in saturate(seeds, L) is therefore the congruence relation
    restricted to words of length <= L. Bounds below the longest seed are
    rejected, matching saturate. Cross-checked against the materialized
    saturation in the test suite."""

    __slots__ = ("_cong", "_bound")

    def __init__(self, seeds, bound: int):
        seeds = list(seeds)
        longest = max((max(len(p), len(q)) for p, q in seeds), default=0)
        if longest > bound:
            raise ValueError(
                f"closure bound {bound} is below the longest seed word ({longest})"
            )
        self._cong = SuffixCongruence(seeds)
        self._bound = bound

    def same(self, u: Word, v: Word) -> bool:
        if len(u) > self._bound or len(v) > self._bound:
            return False
        return self._cong.same(u, v)


def conditions_error(cert: Certificate, seeds, bound: int) -> tuple[str, str] | None:
    """Check tree conditions (1)-(4) against the closure of the given seeds.

    Returns (code, detail) for the first violated condition, None if all
    hold. Witness verification and the slope check live elsewhere; this is
    the piece that depends on which relation seeds are available. The
    closure is the length-`bound` saturation, queried through
    `_BoundedRelation` without materializing it; a bound below the longest
    seed word raises ValueError.
    """
    cong = _BoundedRelation(seeds, bound)
    w = cert.w
    if not cong.same(w, w + "0"):
        return "condition-1", f"{word_to_text(w)} ~ {word_to_text(w)}0 unproved"
    if not cong.same(w, w + "1"):
        return "condition-1", f"{word_to_text(w)} ~ {word_to_text(w)}1 unproved"
    for u in cert.tree[1:-1]:
        if not cong.same(u, w):
            return "condition-2", f"{word_to_text(u)} ~ {word_to_text(w)} unproved"
    err = _schema_error(cert, cert.left_schema, cong, "left")
    if err:
        return "condition-3", err
    err = _schema_error(cert, cert.right_schema, cong, "right")
    if err:
        return "condition-4", err
    return None


def certify_normal_generation(
    cert: Certificate, bound: int | None = None
) -> CertifyResult:
    """PASS iff the certificate proves <f,g> contains the derived subgroup.

    Checks, in order: structural sanity, every witness (including the two
    schema shift witnesses), the four tree conditions against the closure of
    the witness pairs, and the slope witness. The checker never consults how
    the certificate was produced.

    The closure is the saturation bounded at cert.depth; `bound` overrides
    that. A condition that fails reports the bound in its detail so the
    caller can retry higher; a bound below the certificate's own seed words
    is unusable and is reported as invalid-certificate.
    """
    err = _structural_error(cert)
    if err:
        return _fail("invalid-certificate", err)
    memo: dict[GroupWord, Element] = {}  # this check's evaluations, never shared
    for wit in _all_witnesses(cert):
        if not verify_witness(cert, wit, memo):
            return _fail(
                "witness-failed",
                f"word '{format_group_word(wit.word)}' does not carry "
                f"{word_to_text(wit.lhs)} -> {word_to_text(wit.rhs)}",
            )
    effective = cert.depth if bound is None else bound
    try:
        violated = conditions_error(cert, closure_seeds(cert), effective)
    except ValueError as exc:
        return _fail("invalid-certificate", str(exc))
    if violated:
        code, detail = violated
        return _fail(code, f"{detail} at closure bound {effective}")
    err = _slope_error(cert, memo)
    if err:
        return _fail("slope", err)
    return _pass()


# --- brute-force oracle -------------------------------------------------------


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


# --- JSON codec ---------------------------------------------------------------

FORMAT_TAG = "thompsonf.certificate/1"


class CertificateFormatError(ValueError):
    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _element_to_obj(e: Element) -> dict:
    return {
        "domain": [word_to_text(u) for u in e.domain],
        "range": [word_to_text(v) for v in e.range],
    }


def _witness_to_obj(wit: Witness) -> dict:
    return {
        "word": format_group_word(wit.word),
        "lhs": word_to_text(wit.lhs),
        "rhs": word_to_text(wit.rhs),
    }


def _schema_to_obj(s: ShiftSchema) -> dict:
    return {
        "tail": s.tail,
        "stem": word_to_text(s.stem),
        "suffix": word_to_text(s.suffix),
        "base_count": s.base_count,
        "witness": _witness_to_obj(s.witness),
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "format": FORMAT_TAG,
        "f": _element_to_obj(cert.f),
        "g": _element_to_obj(cert.g),
        "tree": [word_to_text(u) for u in cert.tree],
        "w": word_to_text(cert.w),
        "witnesses": [_witness_to_obj(wit) for wit in cert.witnesses],
        "left_schema": _schema_to_obj(cert.left_schema),
        "right_schema": _schema_to_obj(cert.right_schema),
        "slope": {
            "word": format_group_word(cert.slope.word),
            "alpha": word_to_text(cert.slope.alpha),
        },
        "depth": cert.depth,
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def _element_from_obj(obj, where: str) -> Element:
    try:
        domain = [word_from_text(t) for t in obj["domain"]]
        rng = [word_from_text(t) for t in obj["range"]]
        return from_codes(domain, rng)
    except (KeyError, TypeError) as exc:
        raise CertificateFormatError("invalid-certificate", f"{where}: {exc}") from exc
    except ValueError as exc:
        raise CertificateFormatError("invalid-element", f"{where}: {exc}") from exc


def _group_word_from_obj(text) -> GroupWord:
    if not isinstance(text, str):
        raise TypeError(f"group word must be a string, got {text!r}")
    word = parse_group_word(text)
    for name, _ in word:
        if name not in ("f", "g"):
            raise ValueError(f"unknown symbol {name!r} in group word {text!r}")
    return word


def _int_from_obj(value, field: str) -> int:
    # bool is an int subclass and a float would be silently truncated
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _witness_from_obj(obj, where: str) -> Witness:
    try:
        return Witness(
            word=_group_word_from_obj(obj["word"]),
            lhs=word_from_text(obj["lhs"]),
            rhs=word_from_text(obj["rhs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError("invalid-certificate", f"{where}: {exc}") from exc


def _schema_from_obj(obj, where: str) -> ShiftSchema:
    try:
        tail = obj["tail"]
        if tail not in ("0", "1"):
            raise ValueError(f"tail must be '0' or '1', got {tail!r}")
        return ShiftSchema(
            tail=tail,
            stem=word_from_text(obj["stem"]),
            suffix=word_from_text(obj["suffix"]),
            base_count=_int_from_obj(obj["base_count"], "base_count"),
            witness=_witness_from_obj(obj["witness"], where + ".witness"),
        )
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError("invalid-certificate", f"{where}: {exc}") from exc


def certificate_from_dict(obj) -> Certificate:
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_TAG:
        raise CertificateFormatError(
            "invalid-certificate", f"expected format tag {FORMAT_TAG!r}"
        )
    try:
        tree = tuple(word_from_text(t) for t in obj["tree"])
        w = word_from_text(obj["w"])
        witnesses = tuple(
            _witness_from_obj(o, f"witnesses[{i}]")
            for i, o in enumerate(obj["witnesses"])
        )
        slope_obj = obj["slope"]
        slope = SlopeWitness(
            word=_group_word_from_obj(slope_obj["word"]),
            alpha=word_from_text(slope_obj["alpha"]),
        )
        depth = _int_from_obj(obj["depth"], "depth")
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError("invalid-certificate", str(exc)) from exc
    return Certificate(
        f=_element_from_obj(obj["f"], "f"),
        g=_element_from_obj(obj["g"], "g"),
        tree=tree,
        w=w,
        witnesses=witnesses,
        left_schema=_schema_from_obj(obj["left_schema"], "left_schema"),
        right_schema=_schema_from_obj(obj["right_schema"], "right_schema"),
        slope=slope,
        depth=depth,
    )


def certificate_from_json(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError("invalid-certificate", f"bad JSON: {exc}") from exc
    return certificate_from_dict(obj)
