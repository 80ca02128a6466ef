"""Okapi BM25 over token streams, backed by an inverted index.

The score of a document ``d`` for a query is

    sum over unique query terms t of
        IDF(t) * tf(t, d) * (k1 + 1) / (tf(t, d) + k1 * (1 - b + b * |d| / avgdl))

with ``IDF(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``. The +1-inside-log
IDF variant keeps every score non-negative, so zero-score documents can be
excluded from rankings and tie-breaking stays well defined.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DocOutOfRange, InvalidConfig
from .tokenizer import TokenStream


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self):
        if not 0 < self.k1 < math.inf:
            raise InvalidConfig(f"k1 must be finite and > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise InvalidConfig(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class ScoredDoc:
    doc_index: int
    score: float


def _unique(tokens: TokenStream) -> list[str]:
    # Duplicated query terms carry no extra signal for short mention queries.
    return list(dict.fromkeys(tokens))


class Bm25Index:
    """Immutable inverted index, made by ``build`` and never written to disk:
    the index artifacts hold the rows it is built from, and loading one builds
    it again. Safe for concurrent queries."""

    def __init__(self, postings: dict[str, list[tuple[int, int]]], doc_lengths: list[int], params: Bm25Params):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count if self.doc_count else 0.0
        self.params = params
        # Per-document length norm k1 * (1 - b + b * |d| / avgdl). An all-empty
        # corpus has no postings, so its norms are never read.
        k1, b, avgdl = params.k1, params.b, self.avg_doc_length or 1.0
        self.norms = [k1 * (1.0 - b + b * n / avgdl) for n in doc_lengths]

    @classmethod
    def build(cls, docs: list[TokenStream], params: Bm25Params = Bm25Params()) -> "Bm25Index":
        """One document per token stream. Each term's posting lists its
        documents in ascending order; terms keep first-occurrence order."""
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lengths: list[int] = []
        for doc_index, doc in enumerate(docs):
            doc_lengths.append(len(doc))
            # Linear like a Counter, and cheaper for short names and aliases.
            tfs = dict.fromkeys(doc, 0)
            for token in doc:
                tfs[token] += 1
            for token, tf in tfs.items():
                postings.setdefault(token, []).append((doc_index, tf))
        return cls(postings, doc_lengths, params)

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def score(self, query: TokenStream, doc_index: int) -> float:
        """Score one document; absent query terms contribute zero."""
        if not 0 <= doc_index < self.doc_count:
            raise DocOutOfRange(doc_index, self.doc_count)
        total = 0.0
        for token in _unique(query):
            posting = self.postings.get(token)
            if not posting:
                continue
            tf = next((f for d, f in posting if d == doc_index), 0)
            if tf == 0:
                continue
            total += self._idf(len(posting)) * tf * (self.params.k1 + 1.0) / (tf + self.norms[doc_index])
        return total

    def top_k(self, query: TokenStream, k: int) -> list[ScoredDoc]:
        """Up to ``k`` positive-scoring documents, score-descending, ties by
        ascending doc index."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores: dict[int, float] = {}
        norms, k1_plus_1 = self.norms, self.params.k1 + 1.0
        for token in _unique(query):
            posting = self.postings.get(token)
            if not posting:
                continue
            idf = self._idf(len(posting))
            for doc_index, tf in posting:
                scores[doc_index] = scores.get(doc_index, 0.0) + idf * tf * k1_plus_1 / (tf + norms[doc_index])
        # A list, not a generator: nsmallest then sorts inputs of at most k
        # items directly.
        ranked = heapq.nsmallest(
            k,
            [item for item in scores.items() if item[1] > 0.0],
            key=lambda item: (-item[1], item[0]),
        )
        return [ScoredDoc(doc_index=d, score=s) for d, s in ranked]
