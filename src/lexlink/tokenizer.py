"""Deterministic text segmentation shared by the BM25 indexes and the encoders.

CJK ideographs become single-character tokens, which keeps retrieval robust
for unseen names without pulling in a word-segmentation dependency. Every
other alphanumeric codepoint is grouped into maximal lowercased runs;
remaining codepoints separate tokens and are dropped.

The rule is one regular expression, ``[CJK]|[^\\W_CJK]+``: a single CJK
codepoint, or a maximal run of word characters that are neither ``_`` nor
CJK. Python's Unicode ``\\w`` minus ``_`` matches exactly the codepoints for
which ``str.isalnum()`` is true, so a run is a maximal alphanumeric run. Each
match is lowercased on its own: lowercasing the whole text first could shift
runs, because ``'İ'.lower()`` is two codepoints.

``tokenize_around`` tokenizes a document in three pieces around a mention span
and returns the whole document's tokens beside them, so one pass over the text
serves both a caller that needs the pieces and one that needs the whole.
"""

from __future__ import annotations

import re

TokenStream = list[str]

# CJK Unified Ideographs, Extension A, Compatibility Ideographs. Codepoints
# outside these blocks fall through to the run-based rule.
_CJK = "\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff"
_TOKEN = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


def tokenize(text: str) -> TokenStream:
    """Split ``text`` into single CJK characters and lowercased alphanumeric runs.

    >>> tokenize("GPT-4中文")
    ['gpt', '4', '中', '文']
    """
    return list(map(str.lower, _TOKEN.findall(text)))


def tokenize_around(text: str, start: int, end: int) -> tuple[TokenStream, TokenStream, TokenStream, TokenStream]:
    """``tokenize`` of ``text[:start]``, ``text[start:end]`` and ``text[end:]``,
    then of the whole ``text``.

    The whole is the three pieces joined unless a cut splits a run (both
    characters beside it are run characters) or the slices do not partition
    ``text``; then it is tokenized again. Splitting a run changes its tokens,
    and ``'Σ'.lower()`` depends on the letters around it.

    >>> tokenize_around("Paris, France", 7, 13)
    (['paris'], ['france'], [], ['paris', 'france'])
    """
    left, span, right = tokenize(text[:start]), tokenize(text[start:end]), tokenize(text[end:])
    if 0 <= start <= end <= len(text) and not _splits_run(text, start) and not _splits_run(text, end):
        return left, span, right, left + span + right
    return left, span, right, tokenize(text)


def _splits_run(text: str, cut: int) -> bool:
    # A CJK match is one character, so a two-character match is a run.
    return 0 < cut < len(text) and _TOKEN.fullmatch(text, cut - 1, cut + 1) is not None
