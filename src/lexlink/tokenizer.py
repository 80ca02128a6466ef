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
