import pytest

from lexlink.corpus import MentionRecord
from lexlink.ensemble import VoteInput
from lexlink.pipeline import RERANKER_ONLY, TOGGLES, Pipeline
from lexlink.reranker import DualEncoder, EncoderConfig, precompute_entity_embeddings
from lexlink.retriever import Retriever


@pytest.fixture
def pipeline(fruit_kb, fruit_aliases):
    model = DualEncoder.initialize(EncoderConfig(dim=8, hash_buckets=512, max_len=32, seed=1))
    return Pipeline(
        kb=fruit_kb,
        retriever=Retriever.build(fruit_kb, fruit_aliases),
        model=model,
        store=precompute_entity_embeddings(model, fruit_kb),
    )


def mention(text, surface):
    start = text.index(surface)
    return MentionRecord(doc_id="d", text=text, span_start=start, span_end=start + len(surface), mention=surface)


def test_link_fills_votes_from_stage_heads(pipeline):
    lm = pipeline.link(mention("I ate an Apple today", "Apple"))
    assert lm.votes.at == lm.retrieval.top1_at
    assert lm.votes.kb == lm.retrieval.top1_kb
    assert lm.votes.desc == lm.retrieval.top1_desc
    assert lm.votes.reranker == lm.reranked[0][0]
    assert lm.prediction is not None


def test_link_with_no_candidates_yields_none_prediction(pipeline):
    lm = pipeline.link(mention("完全 unrelated zzz", "zzz"))
    assert lm.retrieval.cand1 == []
    assert lm.reranked == []
    assert lm.votes == VoteInput()
    assert lm.prediction is None


def test_link_without_ensemble_uses_reranker_top1(pipeline):
    m = mention("I ate an Apple today", "Apple")
    lm = pipeline.link(m, disabled=frozenset(("ensemble",)))
    assert lm.prediction.decided_by == RERANKER_ONLY
    assert lm.prediction.entity_id == lm.reranked[0][0]


def test_link_rejects_unknown_toggle(pipeline):
    with pytest.raises(ValueError):
        pipeline.link(mention("an Apple", "Apple"), disabled=frozenset(("nope",)))


def test_reranker_pool_is_cand1_union_cand2(pipeline):
    lm = pipeline.link(mention("I ate an Apple today", "Apple"))
    assert [eid for eid, _ in sorted(lm.reranked)] == sorted(set(lm.retrieval.cand1) | set(lm.retrieval.cand2))


@pytest.mark.parametrize(
    "surface,rankings",
    [
        # Every coarse list is [Q3], so each stage row's Cand1 is the full one.
        ("Banana", 1),
        # Alias and name lists hold Q1 and Q2 in opposite orders: only the
        # w/o AT-BM25 Cand1 (the name list) differs from the merged one.
        ("Apple", 2),
    ],
)
def test_ablate_ranks_descriptions_once_per_distinct_cand1(pipeline, surface, rankings):
    record = mention(f"the {surface} grows on a tree", surface)
    calls = 0
    rank = pipeline.retriever.retrieve_fine

    def counting_rank(*args):
        nonlocal calls
        calls += 1
        return rank(*args)

    pipeline.retriever.retrieve_fine = counting_rank
    views = pipeline.ablate(record, TOGGLES)
    assert calls == rankings
    assert views == [pipeline.link(record, frozenset(disabled)) for disabled in [(), *((t,) for t in TOGGLES)]]
