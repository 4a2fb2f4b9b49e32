"""Independent verification that <f,g> contains the derived subgroup of F.

The certificate carries finitely many branch-pair witnesses, two inductive
shift schemas for the infinite word families, and a slope witness. The
checker re-derives everything from the certificate alone:

  * each group word's caret bound is held to a budget the certificate's
    size sets, then the word is evaluated and its claimed branch pair
    re-checked;
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
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .element import (
    Element,
    GroupWord,
    caret_bound,
    eval_word,
    evaluate,
    format_group_word,
    from_codes,
    has_branch_pair,
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
    words_from_texts,
)

Relation = tuple[Word, Word]


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

    The trie is built once and closed over every seed (union by size, no
    path compression). Extra nodes change no answer, as folding on any
    prefix-closed trie holding the seed words decides the same congruence;
    so `weighted` words are materialized too, each a node of weight 1. `add`
    logs each fold and sums class weights for the pruner, which undoes folds
    (`synthesis._PruningCongruence`).

    Layout: every table is a flat int list indexed by node, node 0 being the
    empty word. Node n's children are `_kids[2n]` and `_kids[2n + 1]`, for
    the letters 0 and 1, with -1 for none; a class root's two slots hold a
    node of each child class its members have. One fold-log entry is one
    int: the merged root times 4, plus 1 if the fold filled its new root's
    0-slot and 2 if it filled the 1-slot. The build inserts the distinct
    words in sorted order, each from the end of its common prefix with the
    word before it, along that word's path of nodes; so one step is taken
    per node, and it keeps no string but the words themselves. The common
    prefix with the word before, prev, is read in C calls: it is all of
    prev if word starts with prev; else the two part at a 0 of prev and a 1
    of word, which is prev's last 0 if word starts with the letters of prev
    before it and a 1. For a word that parts earlier, the parting is
    bisected between the start and that 0, in O(log |prev|) C comparisons.
    """

    __slots__ = ("_node", "_pairs", "_parent", "_size", "_weight", "_kids", "_log")

    def __init__(self, seeds, weighted=()):
        seeds, weighted = list(seeds), list(weighted)
        kids = self._kids = [-1, -1]
        node = self._node = {}  # distinct word -> its node, kept for queries
        path, prev = [0], ""  # path[i]: the node of prev[:i]
        for word in sorted({w for pair in seeds for w in pair}.union(weighted)):
            # In sorted order, the prefixes of word in the trie are exactly
            # those it shares with the word before it; where the two part,
            # prev has a 0 and word a 1, most often at prev's last 0.
            if word.startswith(prev):
                i = len(prev)
            else:
                i = len(prev.rstrip("1")) - 1  # >= 0: an all-1 prev prefixes every later word
                if not word.startswith(prev[:i] + "1"):
                    # they part before that 0: at the first m with prev[:m + 1] no prefix of word
                    i = bisect_left(range(i), True, key=lambda m: not word.startswith(prev[:m + 1]))
            del path[i + 1:]
            cur = path[i]
            for ch in word[i:]:
                new = len(kids) >> 1
                kids[2 * cur + (ch == "1")] = new
                kids.extend((-1, -1))
                path.append(new)
                cur = new
            node[word] = cur
            prev = word
        self._pairs = [(node[u], node[v]) for u, v in seeds]
        n = len(kids) >> 1
        self._parent = list(range(n))
        self._size = [1] * n
        self._weight = [0] * n
        for x in weighted:
            self._weight[node[x]] = 1
        self._log: list[int] = []
        self.add(range(len(self._pairs)))

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            i = parent[i]
        return i

    def add(self, indices) -> None:
        """Fold the seed pairs at the given indices into the closure."""
        parent, size, weight = self._parent, self._size, self._weight
        kids, log, pairs = self._kids, self._log, self._pairs
        stack = [pairs[k] for k in indices]
        while stack:
            a, b = stack.pop()
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            weight[a] += weight[b]
            i, j, entry = 2 * a, 2 * b, 4 * b
            child = kids[j]
            if child >= 0:
                if kids[i] < 0:
                    kids[i] = child
                    entry += 1
                else:
                    stack.append((kids[i], child))
            child = kids[j + 1]
            if child >= 0:
                if kids[i + 1] < 0:
                    kids[i + 1] = child
                    entry += 2
                else:
                    stack.append((kids[i + 1], child))
            log.append(entry)

    def walk(self, word: Word) -> tuple[int, Word]:
        """(class, unread rest) reached by reading `word` from the empty word.

        Two words are congruent iff their walks agree. Reading `x` on from
        the walk of `p` gives the walk of `p + x`: once a walk leaves the
        materialized classes, the rest of the word just accumulates. A word
        the build inserted is not read: on the closed partition its class
        is its node's root."""
        i = self._node.get(word)
        if i is not None:
            return self._find(i), ""
        kids, find = self._kids, self._find
        cur = find(0)
        for i, ch in enumerate(word):
            nxt = kids[2 * cur + (ch == "1")]
            if nxt < 0:
                return cur, word[i:]
            cur = find(nxt)
        return cur, ""

    def same(self, u: Word, v: Word) -> bool:
        return self.walk(u) == self.walk(v)

    def first_unrelated(
        self, stem: Word, t: str, suffix: Word, count: int, w: Word
    ) -> int | None:
        """Least i < count with not same(stem + t*i + suffix, w), else None.

        `t` and `suffix` are single letters, as in every shift schema the
        checker accepts. One walk reads stem + t^i one t at a time, so each
        member costs one step through its suffix instead of a walk from
        the root. A step on the trie reads one child slot and walks up to
        its root; off the trie it appends the letter to the unread rest. A
        member's verdict depends only on the state its stem + t^i reaches,
        so the walk stops at the first repeated state. A state off the trie
        never repeats, but its unread rest grows a letter a step, so at most
        one of its members reaches w's state: the walk takes at most one
        step per trie node and two more, whatever `count` is."""
        kids, parent = self._kids, self._parent
        target = self.walk(w)
        cur, rest = self.walk(stem)
        tb, sb = t == "1", suffix == "1"
        seen = set()
        for i in range(count):
            if rest:
                member = cur, rest + suffix
            else:
                nxt = kids[2 * cur + sb]
                if nxt < 0:
                    member = cur, suffix
                else:
                    while parent[nxt] != nxt:
                        nxt = parent[nxt]
                    member = nxt, ""
            if member != target:
                return i
            seen.add((cur, rest))
            if rest:
                rest += t
            else:
                nxt = kids[2 * cur + tb]
                if nxt < 0:
                    rest = t
                else:
                    while parent[nxt] != nxt:
                        nxt = parent[nxt]
                    cur = nxt
            if (cur, rest) in seen:  # every later member passes too
                return None
        return None


# --- certificate checks -------------------------------------------------------


Evaluated = tuple[Element, frozenset[Relation]]


def _eval(cert: Certificate, word: GroupWord, memo: dict[GroupWord, Evaluated]) -> Evaluated:
    """eval_word over the certificate's pair, with the set of its reduced
    table's rows, at most once per word in memo."""
    entry = memo.get(word)
    if entry is None:
        h = eval_word(word, cert.assignment())
        entry = memo[word] = h, frozenset(h.pairs)
    return entry


def verify_witness(
    cert: Certificate, wit: Witness, memo: dict[GroupWord, Evaluated] | None = None
) -> bool:
    """Evaluate the witness word and re-check its claimed branch pair.

    `memo` maps already evaluated words to their elements and table rows;
    pass one dict for a whole check so that each distinct word is evaluated
    once. A row of the table is a branch pair by definition, so only other
    pairs are traced through the element.
    """
    h, rows = _eval(cert, wit.word, {} if memo is None else memo)
    return wit.pair in rows or has_branch_pair(h, wit.lhs, wit.rhs)


def _all_witnesses(cert: Certificate) -> list[Witness]:
    return [
        *cert.witnesses,
        cert.left_schema.witness,
        cert.right_schema.witness,
    ]


def _group_words(cert: Certificate) -> list[GroupWord]:
    return [wit.word for wit in _all_witnesses(cert)] + [cert.slope.word]


def queried_words(cert: Certificate) -> list[Word]:
    """w and the words conditions 1 and 2 relate to it: w0, w1 and the
    inner branches. The certificate spells each of them out."""
    return [cert.w, cert.w + "0", cert.w + "1", *cert.tree[1:-1]]


def closure_seeds(cert: Certificate) -> list[Relation]:
    """Every verified-relation seed available to the closure: the witness
    pairs plus the two schema shift pairs."""
    return [wit.pair for wit in _all_witnesses(cert)]


def _schema_error(
    cert: Certificate, schema: ShiftSchema, cong: SuffixCongruence, bound: int, side: str
) -> str | None:
    t = schema.tail
    stem, tail, suffix = (cert.tree[0], "0", "1") if side == "left" else (cert.tree[-1], "1", "0")
    if (schema.stem, t, schema.suffix) != (stem, tail, suffix):
        return f"{side} schema must cover {word_to_text(stem)}{tail}^i{suffix}"
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
    # Members from `need` on follow by the shift, but all below base_count are
    # checked: they are the pruner's obligations, and stopping at `need` would
    # let it drop more witnesses and change the emitted certificates. Members
    # past `room` letters of tail are longer than the bound, and so unproved.
    room = bound - len(schema.stem) - len(schema.suffix) if len(cert.w) <= bound else -1
    count = max(0, min(schema.base_count, room + 1))
    i = cong.first_unrelated(schema.stem, t, schema.suffix, count, cert.w)
    if i is None and count < schema.base_count:
        i = count
    if i is not None:
        member = schema.stem + t * i + schema.suffix
        return f"base relation {word_to_text(member)} ~ {word_to_text(cert.w)} unproved"
    return None


def _slope_error(cert: Certificate, memo: dict[GroupWord, Evaluated]) -> str | None:
    alpha_word = cert.slope.alpha
    if "1" not in alpha_word:
        return "alpha must lie in (0,1)"
    h = _eval(cert, cert.slope.word, memo)[0]
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
    if cert.depth < 1:
        return "depth must be positive"
    if cert.left_schema.base_count < 0 or cert.right_schema.base_count < 0:
        return "negative base_count"
    symbols = cert.assignment()
    for word in _group_words(cert):
        for name, _ in word:
            if name not in symbols:
                return f"unknown symbol {name!r} in '{format_group_word(word)}'"
    return None


def _budget_error(cert: Certificate) -> str | None:
    """Names the first group word whose `caret_bound` passes the budget
    L max(carets(f), carets(g)), L the letters the certificate's group words
    spell; None if none does. Nothing is evaluated. A letter of exponent +-1
    adds at most that max, so no word of such letters, as `synthesize`
    emits, passes it."""
    words, symbols = _group_words(cert), cert.assignment()
    budget = sum(map(len, words)) * max(len(h.pairs) - 1 for h in symbols.values())
    for word in dict.fromkeys(words):
        bound = caret_bound(word, symbols)
        if bound > budget:
            return f"word '{format_group_word(word)}' has caret bound {bound} > budget {budget}"
    return None


def conditions_error(
    cert: Certificate, cong: SuffixCongruence, bound: int
) -> tuple[str, str] | None:
    """Check tree conditions (1)-(4) against a closure of relation seeds,
    relating only words of at most `bound` letters.

    Returns (code, detail) for the first violated condition, None if all
    hold. Witness verification and the slope check live elsewhere; this is
    the piece that depends on which relation seeds are available, so the
    caller builds the closure from every seed of the certificate. The
    pruner does not call it: it tracks the weight of w's class instead.

    This is the saturation of the seeds bounded at `bound` once `bound`
    reaches the longest seed word, which the checker requires: every merge
    folding makes on the trie of the seed words joins two nodes no longer
    than the longest seed, so any congruent pair (u, v) has a pair
    derivation whose intermediates stay within max(longest seed, |u|, |v|).
    The bounded saturation is therefore the congruence restricted to words
    of length <= bound, and any subset of the seeds meets the bound too.
    """
    w = cert.w

    def related(u: Word) -> bool:
        return max(len(u), len(w)) <= bound and cong.same(u, w)

    for ch in "01":
        if not related(w + ch):
            return "condition-1", f"{word_to_text(w)} ~ {word_to_text(w)}{ch} unproved"
    for u in cert.tree[1:-1]:
        if not related(u):
            return "condition-2", f"{word_to_text(u)} ~ {word_to_text(w)} unproved"
    left, right = cert.left_schema, cert.right_schema
    for code, side, schema in (("condition-3", "left", left), ("condition-4", "right", right)):
        err = _schema_error(cert, schema, cong, bound, side)
        if err:
            return code, err
    return None


def certify_normal_generation(
    cert: Certificate, bound: int | None = None
) -> CertifyResult:
    """PASS iff the certificate proves <f,g> contains the derived subgroup.

    Checks, in order: structural sanity, the caret budget of every group
    word, every witness (including the two schema shift witnesses), the four
    tree conditions against the closure of the witness pairs, and the slope
    witness. The checker never consults how the certificate was produced.

    The conditions relate only words of at most cert.depth letters; `bound`
    overrides that. A condition that fails reports the bound in its detail
    so the caller can retry higher; a bound below the certificate's own
    seed words is unusable and is reported as invalid-certificate.
    """
    err = _structural_error(cert)
    if err:
        return _fail("invalid-certificate", err)
    err = _budget_error(cert)
    if err:
        return _fail("over-budget", err)
    # this check's evaluations, never shared. The bare words f and g name
    # the certificate's own elements: eval_word would rebuild equal ones
    memo: dict[GroupWord, Evaluated] = {
        (("f", 1),): (cert.f, frozenset(cert.f.pairs)),
        (("g", 1),): (cert.g, frozenset(cert.g.pairs)),
    }
    for wit in _all_witnesses(cert):
        if not verify_witness(cert, wit, memo):
            return _fail(
                "witness-failed",
                f"word '{format_group_word(wit.word)}' does not carry "
                f"{word_to_text(wit.lhs)} -> {word_to_text(wit.rhs)}",
            )
    effective = cert.depth if bound is None else bound
    seeds = closure_seeds(cert)
    longest = max(len(x) for pair in seeds for x in pair)
    if longest > effective:
        return _fail(
            "invalid-certificate",
            f"closure bound {effective} is below the longest seed word ({longest})",
        )
    # not the schema members: there are base_count of them, an untrusted number
    cong = SuffixCongruence(seeds, queried_words(cert))
    violated = conditions_error(cert, cong, effective)
    if violated:
        code, detail = violated
        return _fail(code, f"{detail} at closure bound {effective}")
    err = _slope_error(cert, memo)
    if err:
        return _fail("slope", err)
    return CertifyResult(True, "PASS", "")


# --- JSON codec ---------------------------------------------------------------

FORMAT_TAG = "thompsonf.certificate/1"


class CertificateFormatError(ValueError):
    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


# json.dumps(..., indent=2) runs CPython's pure-Python encoder, one call per
# value; certificate_to_json fills the same fixed layout in a few C calls.
_str = json.encoder.encode_basestring_ascii
_WITNESS = '{\n      "word": %s,\n      "lhs": %s,\n      "rhs": %s\n    }'


def _array_json(items: list[str], pad: str) -> str:
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[2:]}]" if items else "[]"


def _words_json(words, pad: str = " " * 6) -> str:
    return _array_json([_str(word_to_text(u)) for u in words], pad)


def _witness_json(wit: Witness) -> str:
    lhs, rhs = _str(word_to_text(wit.lhs)), _str(word_to_text(wit.rhs))
    return _WITNESS % (_str(format_group_word(wit.word)), lhs, rhs)


def _schema_json(s: ShiftSchema) -> str:
    return (
        '{\n    "tail": %s,\n    "stem": %s,\n    "suffix": %s,\n    "base_count": %s,\n'
        '    "witness": %s\n  }'
    ) % (_str(s.tail), _str(word_to_text(s.stem)), _str(word_to_text(s.suffix)),
         json.dumps(s.base_count), _witness_json(s.witness))


def certificate_to_json(cert: Certificate) -> str:
    """The package's one writer of the certificate format: the certificate's
    object laid out byte for byte as `json.dumps(obj, indent=2) + "\\n"` lays it out."""
    return (
        '{\n  "format": %s,\n  "f": {\n    "domain": %s,\n    "range": %s\n  },\n'
        '  "g": {\n    "domain": %s,\n    "range": %s\n  },\n  "tree": %s,\n  "w": %s,\n'
        '  "witnesses": %s,\n  "left_schema": %s,\n  "right_schema": %s,\n'
        '  "slope": {\n    "word": %s,\n    "alpha": %s\n  },\n  "depth": %s\n}\n'
    ) % (
        _str(FORMAT_TAG), _words_json(cert.f.domain), _words_json(cert.f.range),
        _words_json(cert.g.domain), _words_json(cert.g.range), _words_json(cert.tree, " " * 4),
        _str(word_to_text(cert.w)), _array_json(list(map(_witness_json, cert.witnesses)), " " * 4),
        _schema_json(cert.left_schema), _schema_json(cert.right_schema),
        _str(format_group_word(cert.slope.word)), _str(word_to_text(cert.slope.alpha)),
        json.dumps(cert.depth),
    )


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate's object: the writer's text, parsed."""
    return json.loads(certificate_to_json(cert))


def _field(obj, key: str, where: str = "", kind=None):
    """obj[key], with a missing key reported as a missing field of `where`
    (the top level when empty) and, for `kind` list or int, a value of
    another type refused with a TypeError. Any other fault is left to the caller."""
    if isinstance(obj, dict) and key not in obj:
        prefix = f"{where}: " if where else ""
        raise CertificateFormatError("invalid-certificate", f"{prefix}missing field {key!r}")
    value = obj[key]
    # a string would otherwise be read one character per item
    if kind is list and not isinstance(value, list):
        raise TypeError(f"{key} must be an array, got {value!r}")
    # bool is an int subclass and a float would be silently truncated
    if kind is int and type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _read(where: str, read, value_code: str = "invalid-certificate"):
    """read(), with each fault it raises as a CertificateFormatError located at
    `where` (the top level when empty): a KeyError or TypeError is
    invalid-certificate, a ValueError is `value_code`. Every decoder returns
    through this one function, so it alone decides a fault's code and detail."""
    try:
        return read()
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        code = "invalid-certificate" if isinstance(exc, (KeyError, TypeError)) else value_code
        raise CertificateFormatError(code, f"{where}: {exc}" if where else str(exc)) from exc


def _element_from_obj(obj, where: str) -> Element:
    return _read(where, lambda: from_codes(
        words_from_texts(_field(obj, "domain", where, list)),
        words_from_texts(_field(obj, "range", where, list)),
    ), "invalid-element")


def _group_word_from_obj(text) -> GroupWord:
    """The group word `text` spells, which must be its canonical spelling:
    the one `format_group_word` gives back, so a certificate that decodes
    re-encodes to the same text."""
    if not isinstance(text, str):
        raise TypeError(f"group word must be a string, got {text!r}")
    word = parse_group_word(text)
    if format_group_word(word) != text:
        raise ValueError(
            f"group word {text!r} is not canonical (expected {format_group_word(word)!r})"
        )
    for name, _ in word:
        if name not in ("f", "g"):
            raise ValueError(f"unknown symbol {name!r} in group word {text!r}")
    return word


def _witness_from_obj(obj, where: str) -> Witness:
    return _read(where, lambda: Witness(
        word=_group_word_from_obj(_field(obj, "word", where)),
        lhs=word_from_text(_field(obj, "lhs", where)),
        rhs=word_from_text(_field(obj, "rhs", where)),
    ))


def _slope_from_obj(obj, where: str) -> SlopeWitness:
    return _read(where, lambda: SlopeWitness(
        word=_group_word_from_obj(_field(obj, "word", where)),
        alpha=word_from_text(_field(obj, "alpha", where)),
    ))


def _witnesses_from_objs(objs: list) -> tuple[Witness, ...]:
    """The witness list, each distinct group-word text parsed once and no
    location formatted. On a fault, the witness-by-witness read raises it."""
    try:
        texts = [obj["word"] for obj in objs]
        words = {text: _group_word_from_obj(text) for text in set(texts)}
        return tuple(map(
            Witness,
            map(words.__getitem__, texts),
            words_from_texts([obj["lhs"] for obj in objs]),
            words_from_texts([obj["rhs"] for obj in objs]),
        ))
    except (KeyError, TypeError, ValueError):
        return tuple(_witness_from_obj(obj, f"witnesses[{i}]") for i, obj in enumerate(objs))


def _schema_from_obj(obj, where: str) -> ShiftSchema:
    def read():
        tail = _field(obj, "tail", where)
        if tail not in ("0", "1"):
            raise ValueError(f"tail must be '0' or '1', got {tail!r}")
        return ShiftSchema(
            tail=tail,
            stem=word_from_text(_field(obj, "stem", where)),
            suffix=word_from_text(_field(obj, "suffix", where)),
            base_count=_field(obj, "base_count", where, int),
            witness=_witness_from_obj(_field(obj, "witness", where), where + ".witness"),
        )

    return _read(where, read)


def certificate_from_dict(obj) -> Certificate:
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_TAG:
        raise CertificateFormatError(
            "invalid-certificate", f"expected format tag {FORMAT_TAG!r}"
        )
    # keyword order is decoding order: it fixes which fault a certificate
    # with several is reported for. Each field is read before the _read of
    # its value, so a missing or mistyped field keeps the detail naming it
    return _read("", lambda: Certificate(
        tree=tuple(_read("tree", partial(words_from_texts, _field(obj, "tree", kind=list)))),
        w=_read("w", partial(word_from_text, _field(obj, "w"))),
        witnesses=_witnesses_from_objs(_field(obj, "witnesses", kind=list)),
        slope=_slope_from_obj(_field(obj, "slope"), "slope"),
        depth=_field(obj, "depth", kind=int),
        f=_element_from_obj(_field(obj, "f"), "f"),
        g=_element_from_obj(_field(obj, "g"), "g"),
        left_schema=_schema_from_obj(_field(obj, "left_schema"), "left_schema"),
        right_schema=_schema_from_obj(_field(obj, "right_schema"), "right_schema"),
    ))


def certificate_from_json(text: str | bytes) -> Certificate:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, undecodable bytes or an integer past the digit limit
        raise CertificateFormatError("invalid-certificate", f"bad JSON: {exc}") from exc
    return certificate_from_dict(obj)
