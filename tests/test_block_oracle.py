"""Differential tests of the partner's blocks against hand-written row builders.

`synthesis._construct` reads the blocks off the surgered leaf lists, cut
after the row (w0, w01) and after the four rows of the x1 copy under [w10].
The builders below are the earlier, independent derivation: each block's
rows written out from the scaffold T, the moved word w and the slopes, with
d < 0 swapping domain and range in the right block. They must give exactly
the blocks `synthesize` emits. A target whose first non-zero coordinate is
negative is built for (-c, -d) and inverted, which keeps the blocks.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from thompsonf import X0, invert, synthesize
from thompsonf.cli import corpus_entries, random_nontrivial
from thompsonf.dynamics import PreconditionViolated

# --- reference implementations -------------------------------------------------


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


def assert_blocks_match(result):
    """The emitted blocks equal the builders' rows on the result's own scaffold."""
    cert = result.certificate
    c, d = result.target
    assert result.blocks == reference_blocks(cert.tree, cert.w, c, d)


# --- properties ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 9, 10])
def test_corpus_blocks_match_builders(seed):
    for *_, result in corpus_entries(seed, 50):
        assert_blocks_match(result)


@pytest.mark.parametrize("k", [1, 6, 12, 24])
@pytest.mark.parametrize("f", [X0, invert(X0)], ids=["x0", "x0^-1"])
def test_x0_ladder_blocks_match_builders(f, k):
    for c in (k, -k):
        assert_blocks_match(synthesize(f, c, k))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    part=st.sampled_from((1, 2, 3, 4)),
    c=st.integers(1, 4),
    d=st.integers(1, 4),
    sc=st.sampled_from((1, -1)),
    sd=st.sampled_from((1, -1)),
)
def test_random_blocks_match_builders(seed, part, c, d, sc, sd):
    _, f = random_nontrivial(random.Random(seed))
    target = {1: (sc * c, sd * d), 2: (sc * c, 0), 3: (0, sd * d), 4: (0, 0)}[part]
    try:
        result = synthesize(f, *target)
    except PreconditionViolated:
        return  # a zero target coordinate needs a slope f does not have
    assert result.part == part
    assert_blocks_match(result)
