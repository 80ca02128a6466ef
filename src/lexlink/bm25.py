"""Okapi BM25 over token streams, backed by an inverted index.

The score of a document ``d`` for a query is

    sum over unique query terms t of
        IDF(t) * tf(t, d) * (k1 + 1) / (tf(t, d) + k1 * (1 - b + b * |d| / avgdl))

with ``IDF(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``. The +1-inside-log
IDF variant keeps every score non-negative, so zero-score documents can be
excluded from rankings and tie-breaking stays well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

from .errors import InvalidConfig
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
    it again. Safe for concurrent queries.

    ``postings`` maps each term to its ``(doc index, tf)`` pairs.
    ``contributions`` maps it to the same postings as one flat list,
    ``[doc index, contribution, doc index, contribution, ...]``, where a
    contribution is the term's summand in that document's score. They are
    computed once here, so a query only adds floats."""

    def __init__(self, postings: dict[str, list[tuple[int, int]]], doc_lengths: list[int], params: Bm25Params):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count if self.doc_count else 0.0
        self.params = params
        # Per-document length norm k1 * (1 - b + b * |d| / avgdl). An all-empty
        # corpus has no postings, so its norms are never read.
        k1, b, avgdl = params.k1, params.b, self.avg_doc_length or 1.0
        self.norms = norms = [k1 * (1.0 - b + b * n / avgdl) for n in doc_lengths]
        # One fresh list per term rather than a tuple per posting: a term's
        # contributions lie together in memory, and loading a large index
        # leaves the garbage collector no new object per posting to track.
        k1_plus_1 = k1 + 1.0
        self.contributions: dict[str, list[int | float]] = {}
        for term, posting in postings.items():
            idf = self._idf(len(posting))
            self.contributions[term] = [x for d, tf in posting for x in (d, idf * tf * k1_plus_1 / (tf + norms[d]))]

    @classmethod
    def build(
        cls, docs: list[TokenStream], params: Bm25Params = Bm25Params(), terms: Collection[str] | None = None
    ) -> "Bm25Index":
        """One document per token stream. Each term's posting lists its
        documents in ascending order; terms keep first-occurrence order.

        An index built for one known query passes its ``terms``: only those
        get postings, while document lengths still count every token, so
        that query scores as it would against the full index."""
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lengths: list[int] = []
        for doc_index, doc in enumerate(docs):
            doc_lengths.append(len(doc))
            indexed = doc if terms is None else [token for token in doc if token in terms]
            # Linear like a Counter, and cheaper for short names and aliases.
            tfs = dict.fromkeys(indexed, 0)
            for token in indexed:
                tfs[token] += 1
            for token, tf in tfs.items():
                postings.setdefault(token, []).append((doc_index, tf))
        return cls(postings, doc_lengths, params)

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def top_k(self, query: TokenStream, k: int) -> list[ScoredDoc]:
        """Up to ``k`` positive-scoring documents, score-descending, ties by
        ascending doc index."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores: dict[int, float] = {}
        for token in _unique(query):
            flat = self.contributions.get(token)
            if flat is None:
                continue
            pairs = iter(flat)
            if not scores:
                # The first term found: a posting list holds each document
                # once, so its contributions are the scores (0.0 + c == c).
                scores = dict(zip(pairs, pairs))
                continue
            for doc_index, contribution in zip(pairs, pairs):
                scores[doc_index] = scores.get(doc_index, 0.0) + contribution
        # Only documents scoring at least the k-th largest score can rank, so
        # only those become (-score, doc) tuples to sort.
        floor = sorted(scores.values(), reverse=True)[k - 1] if len(scores) > k else 0.0
        ranked = sorted([(-s, d) for d, s in scores.items() if s >= floor and s > 0.0])[:k]
        return [ScoredDoc(doc_index=d, score=-s) for s, d in ranked]
