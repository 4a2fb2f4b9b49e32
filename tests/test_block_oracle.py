"""Differential tests of the partner against hand-written row builders.

`synthesis._construct` pairs the leaves of its two surgered trees. The
builders in `oracles` are the earlier, independent derivation: the rows of
blocks A, B and C written out from the scaffold T, the moved word w and the
slopes, with d < 0 swapping domain and range in the right block.
`self_check_blocks` checks that those rows, on the result's own scaffold,
give exactly the partner `synthesize` emits (g^-1 for a target whose first
non-zero coordinate is negative, which is built for (-c, -d) and inverted),
and that every emitted witness of that g-letter is one of them.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from thompsonf import X0, invert, synthesize
from thompsonf.cli import corpus_entries, random_nontrivial
from thompsonf.dynamics import PreconditionViolated

from oracles import self_check_blocks


@pytest.mark.parametrize("seed", [0, 9, 10])
def test_corpus_blocks_match_builders(seed):
    for *_, result in corpus_entries(seed, 50):
        self_check_blocks(result)


@pytest.mark.parametrize("k", [1, 6, 12, 24])
@pytest.mark.parametrize("f", [X0, invert(X0)], ids=["x0", "x0^-1"])
def test_x0_ladder_blocks_match_builders(f, k):
    for c in (k, -k):
        self_check_blocks(synthesize(f, c, k))


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
    self_check_blocks(result)
