"""Finite binary words, exact dyadic rationals and complete prefix codes.

Binary words are plain strings over "0"/"1"; the empty word denotes the root
(the whole interval [0,1]). A word u addresses the dyadic interval
[u] = [.u, .u + 2^-|u|]. A complete prefix code is the ordered leaf list of a
finite full binary tree; everything downstream (tree diagrams, scaffolds,
certificates) lives in this address space.

No floating point anywhere: dyadics are normalized integer pairs.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import chain

Word = str

EMPTY: Word = ""


def _is_binary(text: str) -> bool:
    return text.count("0") + text.count("1") == len(text)  # two C scans


def check_word(u: Word) -> Word:
    if not isinstance(u, str):
        raise TypeError(f"a word must be a string, got {u!r}")
    if not _is_binary(u):
        raise ValueError(f"not a binary word: {u!r}")
    return u


def word_to_text(u: Word) -> str:
    """Render a word; the empty word prints as 'e'."""
    return u if u else "e"


def word_from_text(text: str) -> Word:
    return EMPTY if text == "e" else check_word(text)


def words_from_texts(texts: list) -> list[Word]:
    """[word_from_text(t) for t in texts], in one C scan when every text is
    a word; otherwise that loop runs and raises the first fault."""
    words = ["" if t == "e" else t for t in texts]
    try:
        if _is_binary("".join(words)):
            return words
    except TypeError:
        pass
    return [word_from_text(t) for t in texts]


_COMPLEMENT = str.maketrans("01", "10")


def flip_word(u: Word) -> Word:
    """The complement of u: [flip_word(u)] is the mirror of [u] under t -> 1 - t."""
    return u.translate(_COMPLEMENT)


def in_B_prime(u: Word) -> bool:
    """True iff u contains both digits (neither empty, all-0s nor all-1s)."""
    return "0" in u and "1" in u


# 0, no limit, where Python predates the int-to-str digit limit
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", int)


@lru_cache(maxsize=1)
def _decimal_overflow_exp(limit: int) -> int:
    """The least e with 2^e of more than `limit` decimal digits, i.e. 2^e >=
    10^limit; 10^limit is no power of two, so e is its bit length."""
    return (10**limit).bit_length()


@total_ordering
@dataclass(frozen=True, slots=True, init=False)
class Dyadic:
    """Exact k/2^n in [0,1], normalized (odd numerator unless exponent 0)."""

    num: int
    exp: int

    def __init__(self, num: int, exp: int):
        size = num.bit_length() - exp - 1  # 0 iff 2^exp <= num < 2^(exp + 1)
        if exp < 0 or num < 0 or size > 0 or (size == 0 and num & (num - 1)):
            raise ValueError(f"not a normalized dyadic in [0,1]: {num}/2^{exp}")
        # every trailing zero of num in one shift, at most exp; 0 becomes 0/2^0
        shift = min((num & -num).bit_length() - 1, exp) if num else exp
        object.__setattr__(self, "num", num >> shift)
        object.__setattr__(self, "exp", exp - shift)

    # by magnitude m = num.bit_length() - exp first: a non-zero value lies in
    # [2^(m-1), 2^m) and 0 below all. Only values of one magnitude are
    # cross-multiplied (tuple order would be wrong for fractions), by a shift
    # of at most the larger bit length, however huge the exponents
    def __lt__(self, other):
        if not (self.num and other.num):
            return self.num < other.num
        m, n = self.num.bit_length() - self.exp, other.num.bit_length() - other.exp
        if m != n:
            return m < n
        d = other.exp - self.exp
        return self.num << d < other.num if d >= 0 else self.num < other.num << -d

    @classmethod
    def from_fraction(cls, num: int, den: int) -> "Dyadic":
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator must be a positive power of two: {den}")
        return cls(num, den.bit_length() - 1)

    def to_word(self) -> Word:
        """The finite expansion .s = self with trailing zeros stripped.

        Requires self < 1 (the value 1 has no finite word form with .s = 1).
        """
        if self.num == (1 << self.exp):
            raise ValueError("1 has no finite binary-word expansion")
        s = format(self.num, f"0{self.exp}b") if self.exp else ""
        return s.rstrip("0")

    def binary_str(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return "." + format(self.num, f"0{self.exp}b")

    def __str__(self) -> str:
        """'num/den' in decimal, or binary_str() where den = 2^exp has more
        decimal digits than Python converts (sys.get_int_max_str_digits)."""
        if not self.exp:
            return str(self.num)
        limit = _int_max_str_digits()
        if limit and self.exp >= _decimal_overflow_exp(limit):
            return self.binary_str()
        return f"{self.num}/{1 << self.exp}"


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def word_to_dyadic(u: Word) -> Dyadic:
    """The left endpoint .u of [u]."""
    check_word(u)
    return Dyadic(int(u, 2) if u else 0, len(u))


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An integer in ASCII digits with an optional sign. int() alone would
    also take surrounding spaces, underscores and other scripts' digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_dyadic(text: str) -> Dyadic:
    """Accept 'k/2^n', 'k/m' (m a power of two), '.bits', '0' or '1'; the
    integers are read by parse_int, whitespace only around the whole point."""
    text = text.strip()
    if text.startswith("."):
        bits = check_word(text[1:])
        if not bits:
            raise ValueError("a point '.bits' needs at least one bit")
        return word_to_dyadic(bits)
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        num = parse_int(num_s)
        if den_s.startswith("2^"):
            return Dyadic(num, parse_int(den_s[2:]))
        return Dyadic.from_fraction(num, parse_int(den_s))
    value = parse_int(text)
    if value not in (0, 1):
        raise ValueError(f"integer dyadic must be 0 or 1: {text}")
    return Dyadic(value, 0)


def is_complete_prefix_code(branches) -> bool:
    """True iff branches are the left-to-right leaf list of a full binary tree.

    Equivalent characterization used here: binary words in lexicographic
    order (interval order, for incomparable words), none a prefix of the
    next (in sorted order a word's extensions follow it directly), whose
    interval lengths 2^-|u| sum to 1. Each pass but the sum is one C loop;
    tests/oracles.py keeps the endpoint scan as a reference.
    """
    return _are_complete_codes((list(branches),))


def _are_complete_codes(codes) -> bool:
    """True iff every list of words in codes passes is_complete_prefix_code.

    In a sorted code with no word a prefix of the next the interval lengths
    sum to at most 1 (Kraft), so they sum to 1 in each code iff they sum to
    len(codes) over all of them: one join, two counts and one length census
    serve every code, and only the sort and the prefix scan are per code.
    """
    if not all(codes):
        return False
    words = list(chain.from_iterable(codes))
    if not _is_binary("".join(words)):
        return False
    counts = Counter(map(len, words))  # one shift per distinct length below
    top = max(counts)
    return sum(n << (top - k) for k, n in counts.items()) == len(codes) << top and all(
        sorted(code) == code and not any(map(str.startswith, code[1:], code)) for code in codes
    )
