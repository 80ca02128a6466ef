import random
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lexlink.tokenizer import tokenize, tokenize_around


def test_cjk_characters_become_single_tokens():
    assert tokenize("中国银行") == ["中", "国", "银", "行"]


def test_latin_runs_are_lowercased_and_split_on_separators():
    assert tokenize("Apple Inc.") == ["apple", "inc"]


def test_mixed_script_splits_per_rule():
    assert tokenize("GPT-4中文") == ["gpt", "4", "中", "文"]


def test_empty_and_separator_only_inputs():
    assert tokenize("") == []
    assert tokenize(" .,;!？—…") == []


def test_digits_and_letters_share_a_run():
    assert tokenize("GPT4") == ["gpt4"]


def test_cjk_extension_blocks_are_cjk():
    # Extension A (U+3400) and Compatibility Ideographs (U+F900).
    assert tokenize("㐀a豈") == ["㐀", "a", "豈"]


def test_no_empty_tokens_and_order_preserved():
    tokens = tokenize("阿里巴巴 Alibaba 2014-IPO")
    assert tokens == ["阿", "里", "巴", "巴", "alibaba", "2014", "ipo"]
    assert all(tokens)


def test_idempotence_on_latin_text():
    rng = random.Random(4711)
    alphabet = string.ascii_letters + string.digits + " .,-_/"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


def test_determinism():
    text = "中国GPT-4 Bank 银行x9"
    assert tokenize(text) == tokenize(text)


# -- equivalence with the per-character reference ------------------------------

# CJK block edges on both sides, the underscore, case mappings that change
# length ('İ' lowercases to two codepoints, final sigma depends on context),
# and alphanumerics that are not letters or ASCII digits.
_TRICKY = (
    "\u33ff\u3400\u4dbf\u4dc0\u9fff\ua000\uf8ff\uf900\ufaff\ufb00"
    "_\u0130\u00df\u216b\u00bd\u03a3\u03c3A a-"
    + "".join(map(chr, range(0x660, 0x66A)))  # Arabic-Indic digits
)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=40))
def test_tokenize_matches_per_character_reference(text):
    assert tokenize(text) == oracles.tokenize(text)


def test_word_class_without_underscore_is_exactly_isalnum():
    alnum = re.compile(r"[^\W_]")
    mismatches = [
        cp
        for cp in range(sys.maxunicode + 1)
        if not 0xD800 <= cp <= 0xDFFF and bool(alnum.match(chr(cp))) != chr(cp).isalnum()
    ]
    assert mismatches == []


# -- one pass for the pieces around a span and the whole ---------------------

# Runs that a cut can split, lowercasings that depend on context ('Σ') or
# change length ('İ', 'ß' stays one codepoint), CJK, and a combining mark,
# which is not alphanumeric and so separates runs.
_AROUND = string.ascii_letters + string.digits + "_ .,-!?'" + "\u03a3\u0130\u00df\u4e2d\u6587\u0301"


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_tokenize_around_equals_tokenize_of_each_slice_and_of_the_whole(data):
    text = data.draw(st.text(alphabet=st.sampled_from(_AROUND), max_size=30), label="text")
    start = data.draw(st.integers(0, len(text)), label="start")
    end = data.draw(st.integers(start, len(text)), label="end")
    left, span, right, whole = tokenize_around(text, start, end)
    assert (left, span, right) == (tokenize(text[:start]), tokenize(text[start:end]), tokenize(text[end:]))
    assert whole == tokenize(text)


@pytest.mark.parametrize(
    "text,start,end,pieces,whole",
    [
        ("Parisian cafe", 0, 5, ([], ["paris"], ["ian", "cafe"]), ["parisian", "cafe"]),
        ("ΟΔΟΣ", 0, 3, ([], ["οδο"], ["σ"]), ["οδος"]),
        ("Paris, France", 7, 13, (["paris"], ["france"], []), ["paris", "france"]),
    ],
)
def test_tokenize_around_examples(text, start, end, pieces, whole):
    left, span, right, got_whole = tokenize_around(text, start, end)
    assert ((left, span, right), got_whole) == (pieces, whole)


@pytest.mark.parametrize("start,end", [(-2, 5), (5, 2), (3, 99), (99, 120)])
def test_tokenize_around_tokenizes_the_whole_when_the_slices_do_not_partition_the_text(start, end):
    text = "Apple pie, Banana split"
    assert tokenize_around(text, start, end)[3] == tokenize(text)
