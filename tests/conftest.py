import random

import pytest
from hypothesis import strategies as st

from thompsonf import IDENTITY, X0, X1, eval_word

GENS = {"x0": X0, "x1": X1, "id": IDENTITY}

binary_words = st.text(alphabet="01", min_size=0, max_size=10)

group_words = st.lists(
    st.tuples(st.sampled_from(("x0", "x1")), st.sampled_from((1, -1))),
    min_size=0,
    max_size=8,
).map(tuple)

elements = group_words.map(lambda w: eval_word(w, GENS))


@pytest.fixture
def rng():
    return random.Random(20240817)
