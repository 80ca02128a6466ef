"""Okapi BM25 over token streams, backed by an inverted index.

The score of a document ``d`` for a query is

    sum over unique query terms t of
        IDF(t) * tf(t, d) * (k1 + 1) / (tf(t, d) + k1 * (1 - b + b * |d| / avgdl))

with ``IDF(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``. The +1-inside-log
IDF variant keeps every score non-negative, so zero-score documents can be
excluded from rankings and tie-breaking stays well defined.

``Bm25Index`` ranks a corpus that many queries share; ``rank_term_counts``
ranks a few documents for one query, with the same floats, and builds no index.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import InvalidConfig, config_real
from .tokenizer import TokenStream


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self):
        for name in ("k1", "b"):
            object.__setattr__(self, name, config_real(name, getattr(self, name)))
        if not 0 < self.k1 < math.inf:
            raise InvalidConfig(f"k1 must be finite and > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise InvalidConfig(f"b must be in [0, 1], got {self.b}")


class ScoredDoc(NamedTuple):
    doc_index: int
    score: float


class TermCounts(NamedTuple):
    """A document as its token count and its terms' frequencies."""
    length: int
    tfs: dict[str, int]

    @classmethod
    def of(cls, doc: TokenStream) -> "TermCounts":
        tfs = dict.fromkeys(doc, 0)
        for token in doc:
            tfs[token] += 1
        return cls(len(doc), tfs)


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _length_norms(doc_lengths: list[int], params: Bm25Params) -> list[float]:
    """Per-document length norm k1 * (1 - b + b * |d| / avgdl). An all-empty
    corpus has no postings, so its norms are never read."""
    k1, b, avgdl = params.k1, params.b, sum(doc_lengths) / max(len(doc_lengths), 1) or 1.0
    return [k1 * (1.0 - b + b * n / avgdl) for n in doc_lengths]


class Bm25Index:
    """Immutable inverted index, made by ``build`` and never written to disk:
    the index artifacts hold the rows it is built from, and loading one builds
    it again. Safe for concurrent queries: a query writes only its own scores.

    It holds three things. ``postings`` maps each term to its ``(doc index,
    tf)`` pairs, by doc index. ``contributions`` maps it to ``{doc index:
    contribution}`` (the term's summand in that document's score), built once
    here best first, ties by ascending doc index: a query only adds floats and
    reads map prefixes. ``doc_count`` is the number of documents. The document
    lengths and ``Bm25Params`` are spent on the contributions and not kept.

    >>> index = Bm25Index.build([["a", "b"], ["a"], ["b"], ["a", "a"]])
    >>> list(index.contributions["a"])
    [3, 1, 0]
    """

    def __init__(self, postings: dict[str, list[tuple[int, int]]], doc_lengths: list[int], params: Bm25Params):
        self.postings = postings
        self.doc_count = len(doc_lengths)
        norms = _length_norms(doc_lengths, params)
        k1_plus_1 = params.k1 + 1.0
        self.contributions: dict[str, dict[int, float]] = {}
        for term, posting in postings.items():
            idf = _idf(self.doc_count, len(posting))
            if len(posting) == 1:  # a term of one document: nothing to rank
                ((d, tf),) = posting
                self.contributions[term] = {d: idf * tf * k1_plus_1 / (tf + norms[d])}
                continue
            # A stable sort keeps the ascending doc order of equal contributions.
            pairs = [(d, idf * tf * k1_plus_1 / (tf + norms[d])) for d, tf in posting]
            self.contributions[term] = dict(sorted(pairs, key=itemgetter(1), reverse=True))

    @classmethod
    def build(cls, docs: list[TokenStream], params: Bm25Params = Bm25Params()) -> "Bm25Index":
        """One document per token stream; a ``str`` or a mapping is refused
        with ``TypeError``; no document is written to, so one token list may
        stand for several documents. Each term's posting lists its documents
        in ascending order; terms keep first-occurrence order."""
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lengths: list[int] = []
        for doc_index, doc in enumerate(docs):
            if type(doc) is not list and isinstance(doc, (str, Mapping)):  # would index chars or keys
                raise TypeError(f"document {doc_index} is a {type(doc).__name__}, not a token stream")
            doc_lengths.append(len(doc))
            # One pass, no per-document counts: a term seen earlier in this
            # document has this document's pair last in its posting.
            for token in doc:
                posting = postings.get(token)
                if posting is None:
                    postings[token] = [(doc_index, 1)]
                elif posting[-1][0] == doc_index:
                    posting[-1] = (doc_index, posting[-1][1] + 1)
                else:
                    posting.append((doc_index, 1))
        return cls(postings, doc_lengths, params)

    def top_k(self, query: TokenStream, k: int) -> list[ScoredDoc]:
        """Up to ``k`` positive-scoring documents, score-descending, ties by
        ascending doc index. Of the documents tied at the k-th score, the
        lowest indices are kept:

        >>> index = Bm25Index.build([["x"], ["a"], ["a"], ["a"], ["a", "a"]])
        >>> [hit.doc_index for hit in index.top_k(["a"], 3)]
        [4, 1, 2]

        Only two kinds of document are scored: those holding two or more
        query terms, and the first ``k`` of each term's ranking. Any other
        holds one term, and ``k`` documents before it in that term's ranking
        score at least as much and win ties. One last in every ranking may
        still come first:

        >>> index = Bm25Index.build([["a"]] * 5 + [["b"]] * 5 + [["a", "b"]])
        >>> [hit.doc_index for hit in index.top_k(["a", "b"], 2)]
        [10, 0]
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # The unique query terms the index holds, in query order: a repeated
        # query term carries no extra signal for short mention queries.
        terms = sorted(self.contributions.keys() & query, key=query.index)
        if not terms:
            return []
        maps = [self.contributions[t] for t in terms]
        if len(terms) == 1:
            return [ScoredDoc(d, c) for d, c in islice(maps[0].items(), k) if c > 0.0]
        scores: dict[int, float] = {}
        for term_map in maps:
            scores.update(islice(term_map.items(), k))
        # The documents in two or more terms' maps.
        seen = maps[0].keys()
        overlap = maps[1].keys() & seen
        for j in range(2, len(maps)):
            seen = seen | maps[j - 1].keys()
            overlap |= maps[j].keys() & seen
        # A left fold from 0.0 in query order, as a per-term merge adds; not a compensated sum.
        for d in overlap:
            score = 0.0
            for term_map in maps:
                if d in term_map:
                    score += term_map[d]
            scores[d] = score
        # A stable sort keeps the ascending doc order of equal scores.
        top = sorted(sorted(scores), key=scores.__getitem__, reverse=True)[:k]
        return [ScoredDoc(d, scores[d]) for d in top if scores[d] > 0.0]


def rank_term_counts(
    docs: Sequence[TermCounts], query: TokenStream, k: int, params: Bm25Params = Bm25Params()
) -> list[ScoredDoc]:
    """``Bm25Index.top_k`` over an index of ``docs``, without the index: for a
    few documents ranked for one query, as the fine stage ranks each
    mention's candidate descriptions. The same floats in the same order:

    >>> docs = [["x"], ["a"], ["a"], ["a"], ["a", "a"]]
    >>> rank_term_counts([TermCounts.of(doc) for doc in docs], ["a"], 3) == Bm25Index.build(docs).top_k(["a"], 3)
    True

    Each document's score is a left fold from 0.0 over the unique query
    terms it holds, in query order, as ``top_k`` adds them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = dict.fromkeys(query)
    # Each term's holders, by ascending doc index; the intersection costs the smaller side.
    holders: dict[str, list[int]] = {}
    for doc_index, doc in enumerate(docs):
        for term in doc.tfs.keys() & terms.keys():
            holders.setdefault(term, []).append(doc_index)
    if not holders:
        return []
    doc_count = len(docs)
    norms = _length_norms([doc.length for doc in docs], params)
    k1_plus_1 = params.k1 + 1.0
    scores = [0.0] * doc_count
    for term in terms:
        if term in holders:
            held = holders[term]
            idf = _idf(doc_count, len(held))
            for d in held:
                tf = docs[d].tfs[term]
                scores[d] += idf * tf * k1_plus_1 / (tf + norms[d])
    # A stable sort keeps the ascending doc order of equal scores.
    ranked = sorted(range(doc_count), key=scores.__getitem__, reverse=True)[:k]
    return [ScoredDoc(d, scores[d]) for d in ranked if scores[d] > 0.0]
