import random

import pytest

from lexlink.bm25 import Bm25Index, Bm25Params
from lexlink.errors import DocOutOfRange

from oracles import bm25_ranking, bm25_score


def random_corpus(rng, max_docs=100, max_vocab=50):
    vocab = [f"t{i}" for i in range(rng.randrange(1, max_vocab + 1))]
    docs = []
    for _ in range(rng.randrange(1, max_docs + 1)):
        docs.append([rng.choice(vocab) for _ in range(rng.randrange(0, 30))])
    return docs


# -- build -------------------------------------------------------------------


def test_build_counts_and_average_length():
    index = Bm25Index.build([["apple"], ["apple", "pie"]])
    assert index.doc_count == 2
    assert index.postings["apple"] == [(0, 1), (1, 1)]
    assert index.avg_doc_length == 1.5


def test_build_empty_corpus_returns_empty_rankings():
    index = Bm25Index.build([])
    assert index.doc_count == 0
    assert index.top_k(["anything"], 10) == []


def test_build_all_empty_documents_returns_empty_rankings():
    index = Bm25Index.build([[], []])
    assert index.avg_doc_length == 0.0
    assert index.top_k(["a"], 3) == []
    assert index.score(["a"], 1) == 0.0


def test_build_repeated_term_frequency():
    index = Bm25Index.build([["a", "a", "a"]])
    assert index.postings["a"] == [(0, 3)]


def test_build_allows_empty_documents():
    index = Bm25Index.build([[], ["x"]])
    assert index.doc_lengths == [0, 1]
    assert [d.doc_index for d in index.top_k(["x"], 5)] == [1]


# -- score -------------------------------------------------------------------


def test_score_zero_when_no_query_term_in_document():
    index = Bm25Index.build([["apple", "pie"], ["banana"]])
    assert index.score(["cherry"], 0) == 0.0


def test_score_empty_query_is_zero():
    index = Bm25Index.build([["apple"]])
    assert index.score([], 0) == 0.0


def test_score_matches_frozen_oracle_value():
    # Expected value computed with the brute-force formula oracle
    # (ln(1.6) * 1 * 2.5 / (1 + 1.5 * (0.25 + 0.75 * 0.75))).
    docs = [["apple", "pie"], ["apple"], ["banana"]]
    index = Bm25Index.build(docs, Bm25Params(k1=1.5, b=0.75))
    expected = 0.5295815540797021
    assert index.score(["apple"], 1) == pytest.approx(expected, abs=1e-9)
    assert bm25_score(docs, ["apple"], 1, 1.5, 0.75) == pytest.approx(expected, abs=1e-15)


def test_score_duplicate_query_terms_counted_once():
    docs = [["apple", "apple"]]
    index = Bm25Index.build(docs)
    assert index.score(["apple", "apple"], 0) == index.score(["apple"], 0)


def test_score_doc_out_of_range():
    index = Bm25Index.build([["a"]])
    with pytest.raises(DocOutOfRange):
        index.score(["a"], 1)


# -- top_k -------------------------------------------------------------------


def test_top_k_returns_fewer_when_fewer_score_positive():
    docs = [["a"], ["a"], ["a"], ["b"], ["c"]]
    index = Bm25Index.build(docs)
    assert len(index.top_k(["a"], 10)) == 3


def test_top_k_tie_break_by_doc_index():
    index = Bm25Index.build([["same"], ["same"]])
    hits = index.top_k(["same"], 2)
    assert [h.doc_index for h in hits] == [0, 1]
    assert hits[0].score == hits[1].score


def test_top_k_rejects_nonpositive_k():
    index = Bm25Index.build([["a"]])
    with pytest.raises(ValueError):
        index.top_k(["a"], 0)


def test_top_k_matches_brute_force_on_random_corpus():
    rng = random.Random(1234)
    docs = random_corpus(rng, max_docs=50)
    index = Bm25Index.build(docs)
    query = [rng.choice([t for d in docs for t in d]) for _ in range(5)]
    expected = bm25_ranking(docs, query, 1.5, 0.75, 10)
    got = index.top_k(query, 10)
    assert [h.doc_index for h in got] == [i for i, _ in expected]
    for hit, (_, score) in zip(got, expected):
        assert hit.score == pytest.approx(score, abs=1e-9)


# -- properties --------------------------------------------------------------


def test_oracle_equivalence_over_random_corpora():
    rng = random.Random(20240917)
    for _ in range(20):
        k1 = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 1.0)
        docs = random_corpus(rng)
        index = Bm25Index.build(docs, Bm25Params(k1=k1, b=b))
        tokens = [t for d in docs for t in d]
        if not tokens:
            continue
        query = [rng.choice(tokens) for _ in range(rng.randrange(1, 6))]
        expected = bm25_ranking(docs, query, k1, b, 10)
        got = index.top_k(query, 10)
        assert [h.doc_index for h in got] == [i for i, _ in expected]
        for hit, (_, score) in zip(got, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)


def test_top_k_scores_equal_score_bitwise():
    rng = random.Random(77)
    for _ in range(20):
        docs = random_corpus(rng)
        params = Bm25Params(k1=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 1.0))
        index = Bm25Index.build(docs, params)
        tokens = [t for d in docs for t in d] or ["t0"]
        query = [rng.choice(tokens) for _ in range(rng.randrange(1, 6))]
        for hit in index.top_k(query, len(docs)):
            assert hit.score.hex() == index.score(query, hit.doc_index).hex()


def test_monotonicity_in_term_frequency():
    # Same lengths, same document frequencies; only tf of the query term grows.
    low = [["q", "x", "x"], ["y", "y", "y"]]
    high = [["q", "q", "x"], ["y", "y", "y"]]
    score_low = Bm25Index.build(low).score(["q"], 0)
    score_high = Bm25Index.build(high).score(["q"], 0)
    assert score_high >= score_low


def test_adding_document_changes_only_idf_and_avgdl():
    docs = [["a", "b"], ["a"]]
    extended = docs + [["c", "c"]]
    base = Bm25Index.build(docs)
    grown = Bm25Index.build(extended)
    for token in ("a", "b"):
        assert grown.postings[token] == base.postings[token]
    assert grown.avg_doc_length != base.avg_doc_length
    assert grown.doc_count == base.doc_count + 1


def test_top_k_prefix_property():
    rng = random.Random(7)
    docs = random_corpus(rng, max_docs=40)
    index = Bm25Index.build(docs)
    tokens = [t for d in docs for t in d]
    query = [rng.choice(tokens) for _ in range(4)]
    top10 = index.top_k(query, 10)
    top1 = index.top_k(query, 1)
    if top10:
        assert top1 == top10[:1]
    else:
        assert top1 == []
