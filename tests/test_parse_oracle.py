"""The text parsers, which check words or tokens in bulk, against the
line-by-line and token-by-token loops they replaced (tests/oracles.py): for
every text, the same result, or an exception of the same type with the same
message."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from thompsonf import element, eval_word, format_element, parse_element, parse_group_word

from conftest import GENS
from oracles import reference_parse_element, reference_parse_group_word


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def assert_same(parse, reference, text):
    assert outcome(parse, text) == outcome(reference, text), repr(text)


X0_TABLE = "00 -> 0\n01 -> 10\n1 -> 11\n"

ELEMENT_TEXTS = [
    "",
    "\n\n",
    "# only a comment\n",
    "# generator\n" + X0_TABLE,
    "00 -> 0 # x0\n01 -> 10\n1 -> 11\n",
    "\n00 -> 0\n\n01 -> 10\n1 -> 11\n\n",
    "e -> e\n",
    "e -> 0\n",
    X0_TABLE,
    X0_TABLE.replace("\n", "\r\n"),
    X0_TABLE.rstrip("\n"),
    X0_TABLE.replace(" ", "\u3000"),
    X0_TABLE.replace("\n", "\u2028"),
    X0_TABLE.replace("\n", "\x85"),
    "00 ->  0\n01 -> 10\n1 -> 11\n",
    " 00 -> 0\n01 -> 10\n1 -> 11\n",
    "0->1 -> 0\n1 -> 1\n",
    "0 -> 1->0\n1 -> 1\n",
    "0 -> 0 -> 0\n1 -> 1\n",
    "0 -> 2\n1 -> 1\n",
    "0 -> 1x\n1 -> 0->1\n",
    "0 -> 0\n1 ->\n",
    "0 -> 0\n0 -> 1\n",
    "0 -> 0\n1 -> 1\n1 -> 1\n",
    "0 0 0\n",
    "0#1 -> 0\n",
    "00 -> 2\n01 -> 10\n1 -> 11 -> 0\n",
    "00 -> 0\n01 -> 10 -> 1\n1 -> 2\n",
    "00 -> 0\r\n\r\n# x0\r\n01 -> 10\r\n1 -> 11 # last\r\n",
    "->\n",
    "0 -> 1 -> 0\n",
]

GROUP_WORD_TEXTS = [
    "",
    "  \n",
    "x0",
    "x0 x1^-1 x0^2 x1",
    "x0\u3000x1^-1\u2028x0",
    "x0^0",
    "x0^-0",
    "x0^+2",
    "x0^01",
    "x0^\u0663",
    "x0^\u00b2",
    "x0^",
    "^2",
    "x0^1_0",
    "x0^^2",
    "x0 ^2 x1^0",
    "x1^0 ^2",
    "x0^0 x1 x0^0",
    "x0^-1 x0^1 x0^+1 x0^-1",
]


@pytest.mark.parametrize("text", ELEMENT_TEXTS)
def test_parse_element_cases(text):
    assert_same(parse_element, reference_parse_element, text)


@pytest.mark.parametrize("text", GROUP_WORD_TEXTS)
def test_parse_group_word_cases(text):
    assert_same(parse_group_word, reference_parse_group_word, text)


ELEMENT_PIECES = ["0", "1", "e", "01", "10", "->", "-", ">", " ", "  ", "\n", "\r\n", "\r",
                  "#", "\t", "\x0b", "\x1c", "\x85", "\u2028", "\u3000", "x", "00 -> 0\n",
                  "e -> e\n", "0 -> 0\n1 -> 1\n"]
GROUP_WORD_PIECES = ["x0", "x1", "f", "g", "^", "-", "+", "0", "1", "2", "00", "\u0663",
                     "\u00b2", "_", " ", "\n", "\t", "\u3000", "x0^-1", "x1^2", "^0", "id"]

words = st.lists(st.tuples(st.sampled_from(("x0", "x1")), st.sampled_from((1, -1))),
                 max_size=40).map(tuple)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ELEMENT_PIECES), max_size=24).map("".join))
def test_parse_element_matches_reference(text):
    assert_same(parse_element, reference_parse_element, text)


@settings(max_examples=300)
@given(words, st.integers(0, 10**6), st.sampled_from(("insert", "replace", "delete")),
       st.sampled_from(ELEMENT_PIECES))
@example((("x0", 1),), 0, "insert", "")
def test_parse_element_matches_reference_near_canonical(word, where, how, piece):
    text = format_element(eval_word(word, GENS))
    i = where % (len(text) + 1)
    j = i + (how != "insert")
    text = text[:i] + ("" if how == "delete" else piece) + text[j:]
    assert_same(parse_element, reference_parse_element, text)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(GROUP_WORD_PIECES), max_size=24).map("".join))
def test_parse_group_word_matches_reference(text):
    assert_same(parse_group_word, reference_parse_group_word, text)


def test_group_word_parses_each_distinct_token_once(monkeypatch):
    rng = random.Random(0)
    tokens = [rng.choice(("x0", "x1", "x0^-1", "x1^-1")) for _ in range(20000)]
    parse_token, calls = element._parse_token, []
    monkeypatch.setattr(element, "_parse_token", lambda t: calls.append(t) or parse_token(t))
    word = parse_group_word(" ".join(tokens))
    assert len(word) == len(tokens)
    assert sorted(calls) == sorted(set(tokens))
    assert word == reference_parse_group_word(" ".join(tokens))
