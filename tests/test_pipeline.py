import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from lexlink import tokenizer
from lexlink.corpus import AliasTable, EntityRecord, KnowledgeBase, MentionRecord
from lexlink.ensemble import VoteInput
from lexlink.errors import MentionTooLong, StaleIndex
from lexlink.pipeline import RERANKER_ONLY, TOGGLES, Pipeline
from lexlink.reranker import DualEncoder, EncoderConfig, build_mention_sequence, precompute_entity_embeddings, rerank
from lexlink.retriever import Retriever, RetrieverConfig

from test_retriever import random_mentions, random_world


def make_pipeline(kb, aliases, config=RetrieverConfig()):
    model = DualEncoder.initialize(EncoderConfig(dim=8, hash_buckets=512, max_len=32, seed=1))
    return Pipeline(
        kb=kb,
        retriever=Retriever.build(kb, aliases, config),
        model=model,
        store=precompute_entity_embeddings(model, kb),
    )


@pytest.fixture
def pipeline(fruit_kb, fruit_aliases):
    return make_pipeline(fruit_kb, fruit_aliases)


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
    views = pipeline.ablate(record)
    assert calls == rankings
    assert views == [pipeline.link(record, frozenset(disabled)) for disabled in [(), *((t,) for t in TOGGLES)]]


def test_derived_stage_rows_equal_the_reference():
    reused = reranked = 0
    for seed in range(5):
        rng = random.Random(seed)
        kb, at = random_world(rng)
        p = make_pipeline(kb, at, RetrieverConfig(k_at=3, k_kb=3, k_desc=2))
        for m in random_mentions(rng, 40):
            full, *rows = p.ablate(m)
            assert full == p.link(m) == oracles.link(p, m)
            for toggle, row in zip(TOGGLES, rows):
                disabled = frozenset((toggle,))
                assert row == p.link(m, disabled) == oracles.link(p, m, disabled)
                if toggle in ("at_bm25", "kb_bm25") and row.retrieval.cand1:
                    reused += row.retrieval.cand1 == full.retrieval.cand1
                    reranked += row.retrieval.cand1 != full.retrieval.cand1
    # Both branches of the fine stage's reuse ran.
    assert reused and reranked


@pytest.mark.parametrize("stage,other", [("at_bm25", "kb"), ("kb_bm25", "at")])
def test_disabled_stages_drop_candidates_and_votes(pipeline, stage, other):
    m = mention("I bought an Apple phone", "Apple")
    disabled = frozenset((stage,))
    lm = pipeline.link(m, disabled)
    dropped = stage.removesuffix("_bm25")
    assert getattr(lm.retrieval, f"cand_{dropped}") == []
    assert getattr(lm.retrieval, f"top1_{dropped}") is None
    assert getattr(lm.votes, dropped) is None
    assert lm.retrieval.cand1 == getattr(lm.retrieval, f"cand_{other}") != []
    assert lm == oracles.link(pipeline, m, disabled)


def test_a_toggled_link_raises_what_the_cascade_raises(fruit_kb, fruit_aliases):
    # The retriever holds Q1 and the knowledge base does not: the cascade's
    # fine stage looks Q1 up before the toggle drops that stage.
    p = make_pipeline(fruit_kb, fruit_aliases)
    p.kb = KnowledgeBase(entity for entity in fruit_kb if entity.id != "Q1")
    with pytest.raises(StaleIndex):
        p.link(mention("an Apple", "Apple"), frozenset(("desc_bm25",)))


# -- one tokenization of the document per link --------------------------------


def at(text, start, end):
    return MentionRecord(doc_id="d", text=text, span_start=start, span_end=end, mention=text[start:end])


@pytest.mark.parametrize(
    "record,descriptions",
    [
        # The span's end cuts "Parisian", its start cuts "iParis": the joined
        # pieces would query "paris" beside "ian" or "i", which only the
        # second description holds.
        (at("Parisian cafe", 0, 5), ["parisian cafe culture", "paris ian", "capital of france"]),
        (at("iParis cafe", 1, 6), ["iparis cafe", "i paris", "capital of france"]),
        # Cut before the final sigma: the whole lowercases it to 'ς', the
        # pieces to "οδο" and 'σ'.
        (at("ΟΔΟΣ street", 0, 3), ["οδος", "οδο σ", "street"]),
    ],
)
def test_link_equals_the_reference_when_the_span_cuts_a_run(record, descriptions):
    kb = KnowledgeBase(
        EntityRecord(id=f"E{i}", name=record.mention, description=d) for i, d in enumerate(descriptions)
    )
    p = make_pipeline(kb, AliasTable([]))
    want = oracles.link(p, record)
    assert p.link(record) == want
    # The case can tell: the joined pieces rank the descriptions otherwise.
    left, span, right, _ = tokenizer.tokenize_around(record.text, record.span_start, record.span_end)
    assert p.retriever.retrieve_fine(kb, record.text, want.retrieval.cand1, left + span + right) != want.retrieval.cand2


def count_tokenized_chars(monkeypatch):
    """Wrap ``tokenize`` in every lexlink module that holds it; the returned
    list gets the length of each text tokenized."""
    original = tokenizer.tokenize
    lengths = []

    def counting_tokenize(text):
        lengths.append(len(text))
        return original(text)

    for name, module in list(sys.modules.items()):
        if (name == "lexlink" or name.startswith("lexlink.")) and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    return lengths


@pytest.mark.parametrize(
    "record,documents",
    [
        (mention("I ate an Apple today with a Banana", "Apple"), 1),
        (mention("Apple trees bear fruit", "Apple"), 1),  # the span starts the text
        (mention("the fruit of the tree is an Apple", "Apple"), 1),  # and ends it
        (at("I ate Applesauce from the fruit tree", 6, 11), 2),  # the span cuts "Applesauce"
    ],
)
def test_link_tokenizes_the_document_once_unless_the_span_cuts_a_run(monkeypatch, pipeline, record, documents):
    want = pipeline.link(record)  # fills the description memo
    assert want.retrieval.cand1 and want.retrieval.cand2
    lengths = count_tokenized_chars(monkeypatch)
    assert pipeline.link(record) == want
    assert sum(lengths) == len(record.mention) + documents * len(record.text)


# "Banana" reuses the full Cand2 in every row; "Apple" reruns the fine stage
# for the w/o AT-BM25 row (see test_ablate_ranks_descriptions_once_per_distinct_cand1).
@pytest.mark.parametrize("surface", ["Banana", "Apple"])
def test_ablate_tokenizes_the_document_only_in_its_link(monkeypatch, pipeline, surface):
    record = mention(f"the {surface} grows on a tree", surface)
    want = pipeline.ablate(record)  # fills the description memo
    lengths = count_tokenized_chars(monkeypatch)
    assert pipeline.ablate(record) == want
    # The mention once for the coarse stage, then the text around the span.
    assert len(lengths) == 4
    assert sum(lengths) == len(record.mention) + len(record.text)


def test_an_over_long_span_without_candidates_links_to_no_prediction(pipeline):
    text = " ".join(["zzqx"] * 40)
    lm = pipeline.link(at(text, 0, len(text)))
    assert lm.retrieval.cand1 == []
    assert lm.prediction is None


def test_an_over_long_span_with_candidates_raises_mention_too_long(pipeline):
    text = " ".join(["Apple"] + ["zzqx"] * 40)
    with pytest.raises(MentionTooLong):
        pipeline.link(at(text, 0, len(text)))


_WORDS = ["Apple", "Banana", "BigA", "fruit", "tree", "cupertino", "Parisian", "ΟΔΟΣ", "中文", "-"]


# The pipeline is only read, so one instance may serve every example.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_passing_the_tokens_in_changes_no_result(pipeline, data):
    text = " ".join(data.draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), label="words"))
    start = data.draw(st.integers(0, len(text) - 1), label="start")
    end = data.draw(st.integers(start + 1, len(text)), label="end")
    record = at(text, start, end)
    left, span, right, doc_tokens = tokenizer.tokenize_around(text, start, end)
    pieces = (left, span, right)
    kb, retriever, model, store = pipeline.kb, pipeline.retriever, pipeline.model, pipeline.store
    result = retriever.retrieve(kb, record)
    assert retriever.retrieve(kb, record, doc_tokens=doc_tokens) == result
    assert build_mention_sequence(record, model.cfg, pieces) == build_mention_sequence(record, model.cfg)
    assert rerank(model, store, record, result.cand1, pieces) == rerank(model, store, record, result.cand1)
