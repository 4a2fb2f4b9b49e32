"""The mutant table keeps step with the code: each entry's old text occurs
exactly once in its module and each test it names is defined. No mutant is
run here; `python tests/mutants.py` runs them."""

import pytest

from mutants import MUTANTS, stale


def test_mutant_table_names_each_mutant_once():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
    assert all(m.tests and m.old != m.new for m in MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_entry_fits_the_code(mutant):
    assert stale(mutant) == ""
