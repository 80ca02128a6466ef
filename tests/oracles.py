"""Independent reference implementations used as test oracles.

These deliberately avoid the library's fast paths: BM25 evaluates the scoring
formula term by term over raw token lists, the tokenizer classifies text one
character at a time, and the featurizer hashes every n-gram of every token.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter

import numpy as np

from lexlink.reranker import (
    _IN_SPAN_PREFIX,
    MENTION_END,
    MENTION_START,
    NAME_DESC_SEP,
    EncoderConfig,
    MarkedSequence,
    SequenceFeatures,
)


def bm25_score(docs: list[list[str]], query: list[str], doc_index: int, k1: float, b: float) -> float:
    """Literal per-document evaluation of the Okapi BM25 formula."""
    n = len(docs)
    if n == 0:
        return 0.0
    avgdl = sum(len(d) for d in docs) / n
    doc = docs[doc_index]
    total = 0.0
    for term in dict.fromkeys(query):
        tf = doc.count(term)
        if tf == 0:
            continue
        df = sum(1 for d in docs if term in d)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
    return total


def bm25_ranking(docs: list[list[str]], query: list[str], k1: float, b: float, k: int) -> list[tuple[int, float]]:
    """Full sort of positive-scoring documents, ties by ascending index."""
    scored = [(i, bm25_score(docs, query, i, k1, b)) for i in range(len(docs))]
    positive = [(i, s) for i, s in scored if s > 0.0]
    positive.sort(key=lambda item: (-item[1], item[0]))
    return positive[:k]


# CJK Unified Ideographs, Extension A, Compatibility Ideographs.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def tokenize(text: str) -> list[str]:
    """Per-character tokenizer: each CJK codepoint is a token, maximal
    ``str.isalnum`` runs are lowercased tokens, everything else separates."""
    tokens: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if run:
            tokens.append("".join(run).lower())
            run.clear()

    for ch in text:
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES):
            flush()
            tokens.append(ch)
        elif ch.isalnum():
            run.append(ch)
        else:
            flush()
    flush()
    return tokens


def sequence_features(seq: MarkedSequence, cfg: EncoderConfig) -> SequenceFeatures:
    """Token-by-token featurizer: hashes every feature of every token in order."""
    counter: Counter[int] = Counter()
    in_span = False
    for token in seq.tokens:
        if token == MENTION_END:
            in_span = False
        if token in (MENTION_START, MENTION_END, NAME_DESC_SEP):
            features = [token]
        else:
            features = []
            for n in cfg.ngram_orders:
                for i in range(len(token) - n + 1):
                    features.append(token[i : i + n])
                    if in_span:
                        features.append(_IN_SPAN_PREFIX + token[i : i + n])
        for feature in features:
            counter[zlib.crc32(feature.encode("utf-8")) % cfg.hash_buckets] += 1
        if token == MENTION_START:
            in_span = True
    return SequenceFeatures(
        buckets=np.array(list(counter.keys()), dtype=np.int64),
        counts=np.array(list(counter.values()), dtype=np.float64),
        token_count=max(len(seq.tokens), 1),
    )
