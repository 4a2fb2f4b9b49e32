"""Reference answers computed without the code under test.

The generators of F are written out here as piecewise-linear maps on exact
dyadics, so words can be evaluated letter by letter without any branch
table. Composition is left to right, as in the package: the word "a b" acts
as a, then b. Tables are read as plain (domain word, range word) pairs.
"""

from __future__ import annotations

from fractions import Fraction

# Each generator as pieces (lo, hi, shift, offset) with lo, hi, offset in
# eighths: t in [lo, hi] maps to t * 2^shift + offset
_PIECES = {
    ("x0", 1): ((0, 2, 1, 0), (2, 4, 0, 2), (4, 8, -1, 4)),
    ("x0", -1): ((0, 4, -1, 0), (4, 6, 0, -2), (6, 8, 1, -8)),
    ("x1", 1): ((0, 4, 0, 0), (4, 5, 1, -4), (5, 6, 0, 1), (6, 8, -1, 4)),
    ("x1", -1): ((0, 4, 0, 0), (4, 6, -1, 2), (6, 7, 0, -1), (7, 8, 1, -8)),
}

# log2 of each generator's slope at 0+ and at 1-; abelianization is additive
_ABEL = {"x0": (1, -1), "x1": (0, -1)}


def letters(word):
    """Expand ((name, exp), ...) into single letters (name, +-1)."""
    for name, exp in word:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield name, step


def abelianization(word) -> tuple[int, int]:
    """(log2 slope at 0+, log2 slope at 1-) of a word in x0, x1."""
    a = b = 0
    for name, exp in word:
        da, db = _ABEL[name]
        a += exp * da
        b += exp * db
    return a, b


def walk(word, t: Fraction) -> tuple[Fraction, int, int]:
    """(image of t, log2 slope left of t, log2 slope right of t), 0 < t < 1.

    Exact fixed point: t is held as T / 2^E with E large enough that no
    letter's halving or eighths offset ever leaves the integers.
    """
    steps = list(letters(word))
    exp = t.denominator.bit_length() - 1
    scale = exp + len(steps) + 3
    T = t.numerator << (scale - exp)
    unit = scale - 3  # one eighth is 1 << unit
    left = right = 0
    for letter in steps:
        pieces = _PIECES[letter]
        for i, (lo, hi, shift, offset) in enumerate(pieces):
            if T < hi << unit:
                break
        if T == lo << unit and i > 0:
            left += pieces[i - 1][2]
        else:
            left += shift
        right += shift
        T = (T << shift if shift >= 0 else T >> -shift) + (offset << unit)
    return Fraction(T, 1 << scale), left, right


def point_image(word, t: Fraction) -> Fraction:
    return walk(word, t)[0]


def moves_a_test_point(word, points) -> bool:
    return any(point_image(word, t) != t for t in points)


def table_image(pairs, t: Fraction) -> Fraction:
    """Image of t in [0, 1) under the element with branch table pairs."""
    exp = t.denominator.bit_length() - 1
    for u, v in pairs:
        n = len(u)
        # t lies in [u] iff floor(t * 2^|u|) is u read in binary
        if (t.numerator << n) >> exp == (int(u, 2) if u else 0):
            inside = t - Fraction(int(u, 2) if u else 0, 1 << n)
            return Fraction(int(v, 2) if v else 0, 1 << len(v)) + inside * (1 << n) / (1 << len(v))
    raise ValueError(f"{t} lies under no domain branch")


def table_abelianization(domain, rng) -> tuple[int, int]:
    """Endpoint slope logs read off the first and last rows of a table."""
    return (len(domain[0]) - len(rng[0]), len(domain[-1]) - len(rng[-1]))


def json_words(texts) -> list[str]:
    """Certificate JSON spells the empty word 'e'."""
    return ["" if t == "e" else t for t in texts]


def is_complete_prefix_code(code) -> bool:
    """Ordered leaves of a full binary tree: intervals abut and cover [0, 1]."""
    pos = Fraction(0)
    for u in code:
        if pos != Fraction(int(u, 2) if u else 0, 1 << len(u)):
            return False
        pos += Fraction(1, 1 << len(u))
    return bool(code) and pos == 1
