import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexlink.bm25 import Bm25Index, Bm25Params, TermCounts, rank_term_counts

from oracles import bm25_ranking, bm25_score, bm25_term_rankings, bm25_top_k, term_map_items


def random_corpus(rng, max_docs=100, max_vocab=50):
    vocab = [f"t{i}" for i in range(rng.randrange(1, max_vocab + 1))]
    docs = []
    for _ in range(rng.randrange(1, max_docs + 1)):
        docs.append([rng.choice(vocab) for _ in range(rng.randrange(0, 30))])
    return docs


# -- build -------------------------------------------------------------------


def test_build_counts_and_average_length():
    docs = [["apple"], ["apple", "pie"]]
    index = Bm25Index.build(docs)
    assert index.doc_count == 2
    assert index.postings["apple"] == [(0, 1), (1, 1)]
    # The length norms divide by the average length, 1.5.
    assert term_map_items(index)["apple"] == bm25_top_k(docs, ["apple"], 1.5, 0.75, 2)


def test_build_empty_corpus_returns_empty_rankings():
    index = Bm25Index.build([])
    assert index.doc_count == 0
    assert index.top_k(["anything"], 10) == []


def test_build_all_empty_documents_returns_empty_rankings():
    index = Bm25Index.build([[], []])
    assert index.doc_count == 2 and index.contributions == {}
    assert index.top_k(["a"], 3) == []


def test_build_repeated_term_frequency():
    index = Bm25Index.build([["a", "a", "a"]])
    assert index.postings["a"] == [(0, 3)]


def test_build_allows_empty_documents():
    index = Bm25Index.build([[], ["x"]])
    assert index.doc_count == 2
    # The empty document counts toward the average length, 0.5.
    assert index.top_k(["x"], 5) == bm25_top_k([[], ["x"]], ["x"], 1.5, 0.75, 5)


@pytest.mark.parametrize("doc", ["apple pie", {"apple": 2, "pie": 1}])
def test_build_refuses_a_str_or_a_mapping_as_a_document(doc):
    # Either would be indexed as its characters or keys, each with tf 1.
    with pytest.raises(TypeError, match="document 1 is a (str|dict)"):
        Bm25Index.build([["apple"], doc])


def test_build_takes_a_tuple_as_a_token_stream():
    want = Bm25Index.build([["apple", "pie", "apple"]]).postings
    assert Bm25Index.build([("apple", "pie", "apple")]).postings == want


def counter_postings(docs):
    """Each term's ``(doc index, tf)`` pairs from one ``Counter`` per
    document, terms in first-occurrence order."""
    postings = {}
    for doc_index, doc in enumerate(docs):
        for term, tf in Counter(doc).items():
            postings.setdefault(term, []).append((doc_index, tf))
    return postings


@st.composite
def token_corpora(draw):
    """Lists and tuples over a few terms, some empty, with repeats adjacent or
    not; a document drawn twice is one object standing for two documents."""
    stream = st.lists(st.sampled_from("abcd"), max_size=6)
    pool = draw(st.lists(st.one_of(stream, stream.map(tuple)), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


SHARED_DOC = ["c", "a", "c"]


@settings(max_examples=300, deadline=None)
@given(docs=token_corpora())
@example(docs=[["a", "b", "a"], [], ("b", "a", "b"), SHARED_DOC, [], SHARED_DOC])
def test_build_counts_the_postings_of_a_per_document_counter(docs):
    before = [list(doc) for doc in docs]
    index = Bm25Index.build(docs)
    assert [list(doc) for doc in docs] == before  # nothing written to
    assert list(index.postings.items()) == list(counter_postings(docs).items())
    assert term_map_items(index) == {term: bm25_top_k(docs, [term], 1.5, 0.75, len(docs)) for term in index.postings}
    # Each term renamed per document: every term has one posting, and its map is not sorted.
    apart = [[f"{term}{doc_index}" for term in doc] for doc_index, doc in enumerate(docs)]
    index = Bm25Index.build(apart)
    assert all(len(posting) == 1 for posting in index.postings.values())
    assert term_map_items(index) == bm25_term_rankings(index)
    assert term_map_items(index) == {term: bm25_top_k(apart, [term], 1.5, 0.75, 1) for term in index.postings}


# -- score -------------------------------------------------------------------


def scores(index, query):
    return {hit.doc_index: hit.score for hit in index.top_k(query, index.doc_count)}


def test_score_zero_when_no_query_term_in_document():
    index = Bm25Index.build([["apple", "pie"], ["banana"]])
    assert index.top_k(["cherry"], 2) == []
    assert list(scores(index, ["apple", "cherry"])) == [0]


def test_score_empty_query_is_zero():
    index = Bm25Index.build([["apple"]])
    assert index.top_k([], 1) == []


def test_score_matches_frozen_oracle_value():
    # Expected value computed with the brute-force formula oracle
    # (ln(1.6) * 1 * 2.5 / (1 + 1.5 * (0.25 + 0.75 * 0.75))).
    docs = [["apple", "pie"], ["apple"], ["banana"]]
    index = Bm25Index.build(docs, Bm25Params(k1=1.5, b=0.75))
    expected = 0.5295815540797021
    assert scores(index, ["apple"])[1] == pytest.approx(expected, abs=1e-9)
    assert bm25_score(docs, ["apple"], 1, 1.5, 0.75) == pytest.approx(expected, abs=1e-15)


def test_score_duplicate_query_terms_counted_once():
    docs = [["apple", "apple"], ["apple", "pie"]]
    index = Bm25Index.build(docs)
    assert index.top_k(["apple", "apple"], 2) == index.top_k(["apple"], 2)


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


def test_top_k_keeps_the_lowest_indices_among_ties_at_the_kth_score():
    # Four documents tie at the k-th score; one outscores them from the end.
    index = Bm25Index.build([["x"], ["same"], ["same"], ["same"], ["same"], ["same", "same"]])
    for k, want in [(1, [5]), (2, [5, 1]), (3, [5, 1, 2]), (5, [5, 1, 2, 3, 4]), (9, [5, 1, 2, 3, 4])]:
        assert [h.doc_index for h in index.top_k(["same"], k)] == want


def test_top_k_rejects_nonpositive_k():
    for rank in _rankers_for([["a"]], Bm25Params()):
        with pytest.raises(ValueError):
            rank(["a"], 0)


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


# Few terms and short, often identical documents: most scores tie.
_TIE_HEAVY_DOCS = st.lists(st.lists(st.sampled_from("abcd"), max_size=4), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    docs=_TIE_HEAVY_DOCS,
    query=st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
    params=st.sampled_from([Bm25Params(), Bm25Params(k1=0.9, b=0.4), Bm25Params(k1=2.0, b=1.0), Bm25Params(b=0.0)]),
)
def test_top_k_equals_the_per_posting_reference_bitwise(docs, query, params):
    rankers = _rankers_for(docs, params)
    for k in range(1, len(docs) + 1):
        want = [(doc, score.hex()) for doc, score in bm25_top_k(docs, query, params.k1, params.b, k)]
        for rank in rankers:
            assert [(hit.doc_index, hit.score.hex()) for hit in rank(query, k)] == want


def _rankers_for(docs, params):
    """The two ways to rank the documents for a query, as ``(query, k) ->
    hits``: an index's ``top_k``, and ``rank_term_counts`` over their term
    counts."""
    counts = [TermCounts.of(doc) for doc in docs]
    return Bm25Index.build(docs, params).top_k, lambda query, k: rank_term_counts(counts, query, k, params)


def _shared_name_corpus(rng, n_docs=700, vocab=10):
    """Names of two distinct words over a small vocabulary, as on a KB where
    many entities share words: every term has ≥100 postings, and most
    documents are two tokens long, so a one-word query ties at every score.
    A few one-, three- and repeated-word names vary the length norms, and a
    few names padded with words of their own rank below most others in
    both their words' rankings."""
    words = [f"w{i}" for i in range(vocab)]
    docs = []
    for i in range(n_docs):
        name = rng.sample(words, 2)
        if i % 25 == 0:
            name = name[:1]
        elif i % 25 == 1:
            name.append(rng.choice(words))
        elif i % 25 == 2:
            name.append(name[0])
        elif i % 25 in (3, 4):
            name += [f"pad{i}"] * rng.randrange(1, 3)
        docs.append(name)
    return docs, words


def test_top_k_equals_the_reference_bitwise_at_shared_name_scale():
    rng = random.Random(11)
    docs, words = _shared_name_corpus(rng)
    params = Bm25Params()
    full = Bm25Index.build(docs, params)
    assert min(len(full.postings[word]) for word in words) >= 100
    place = {term: {doc: i for i, doc in enumerate(term_map)} for term, term_map in full.contributions.items()}
    tie_beyond_k = set()
    deep_overlap_hits = last_prefix_hits = unsummed_folds = 0
    rankers = _rankers_for(docs, params)
    for _ in range(60):
        query = rng.choices([*words, "absent", "pad3", "pad4"], k=rng.randrange(1, 6))
        query += rng.sample(query, rng.randrange(len(query) + 1))  # repeats
        terms = [t for t in dict.fromkeys(query) if t in full.contributions]
        for k in (1, 10, 20, len(docs) + 1):
            want = bm25_top_k(docs, query, params.k1, params.b, k + 1)
            if len(want) > k and want[k][1] == want[k - 1][1]:
                tie_beyond_k.add(k)
            want = want[:k]
            for doc, score in want:
                held = [t for t in terms if doc in full.contributions[t]]
                depth = min(place[t][doc] for t in held)
                # A hit holding two terms outside every term's first k, and one
                # holding one of several query terms at the k-th place of its ranking.
                deep_overlap_hits += len(held) > 1 and depth >= k
                last_prefix_hits += len(held) == 1 < len(terms) and depth == k - 1
                unsummed_folds += math.fsum(full.contributions[t][doc] for t in held) != score
            want = [(doc, score.hex()) for doc, score in want]
            for rank in rankers:
                assert [(hit.doc_index, hit.score.hex()) for hit in rank(query, k)] == want
    assert tie_beyond_k == {1, 10, 20}  # more documents tie at the k-th score than fit
    assert deep_overlap_hits > 0 and last_prefix_hits > 0
    assert unsummed_folds > 0  # a compensated sum would give other floats


def test_queries_leave_the_index_as_built():
    rng = random.Random(12)
    docs, words = _shared_name_corpus(rng)
    index = Bm25Index.build(docs)
    for _ in range(200):
        index.top_k(rng.choices(words, k=rng.randrange(1, 5)), rng.choice((1, 10, 20)))
    fresh = Bm25Index.build(docs)
    assert index.postings == fresh.postings
    assert term_map_items(index) == bm25_term_rankings(fresh)


@settings(max_examples=200, deadline=None)
@given(docs=_TIE_HEAVY_DOCS, params=st.sampled_from([Bm25Params(), Bm25Params(k1=0.9, b=0.4), Bm25Params(b=0.0)]))
def test_each_term_ranks_its_documents_by_descending_contribution_then_ascending_index(docs, params):
    index = Bm25Index.build(docs, params)
    assert {term: sorted(term_map) for term, term_map in index.contributions.items()} == {
        term: [d for d, _ in posting] for term, posting in index.postings.items()
    }
    assert term_map_items(index) == bm25_term_rankings(index)


def test_monotonicity_in_term_frequency():
    # Same lengths, same document frequencies; only tf of the query term grows.
    low = [["q", "x", "x"], ["y", "y", "y"]]
    high = [["q", "q", "x"], ["y", "y", "y"]]
    score_low = scores(Bm25Index.build(low), ["q"])[0]
    score_high = scores(Bm25Index.build(high), ["q"])[0]
    assert score_high >= score_low


def test_adding_document_changes_only_idf_and_avgdl():
    docs = [["a", "b"], ["a"]]
    extended = docs + [["c", "c"]]
    base = Bm25Index.build(docs)
    grown = Bm25Index.build(extended)
    for token in ("a", "b"):
        assert grown.postings[token] == base.postings[token]
        # Both the idf and the average length moved, so every contribution did.
        assert term_map_items(grown)[token] == bm25_top_k(extended, [token], 1.5, 0.75, 3)
        assert all(grown.contributions[token][d] != c for d, c in base.contributions[token].items())
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
