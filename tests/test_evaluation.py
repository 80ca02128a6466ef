import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lexlink.corpus import Dataset, MentionRecord
from lexlink.ensemble import Prediction
from lexlink.errors import LengthMismatch, MentionTooLong
from lexlink.evaluation import (
    AccuracyReport,
    RecallReport,
    accuracy,
    accuracy_table_text,
    evaluate_dataset,
    recall_at_k,
    recall_report,
    run_ablation,
    write_json_report,
)
from lexlink.pipeline import RERANKER_ONLY, TOGGLES, Pipeline
from lexlink.reranker import DualEncoder, EncoderConfig, precompute_entity_embeddings, rerank
from lexlink.retriever import RetrievalResult, Retriever, RetrieverConfig, merge_coarse
from lexlink.synth import SynthSpec, build_synthetic

ENCODER = EncoderConfig(dim=16, hash_buckets=2048, max_len=64, seed=2)


def make_pipeline(spec: SynthSpec, retriever_config: RetrieverConfig = RetrieverConfig()):
    kb, at, ds = build_synthetic(spec)
    retriever = Retriever.build(kb, at, retriever_config)
    model = DualEncoder.initialize(ENCODER)
    store = precompute_entity_embeddings(model, kb)
    return Pipeline(kb=kb, retriever=retriever, model=model, store=store), ds


def ranking_result(*stage_lists):
    cand_at, cand_kb, cand2 = stage_lists
    cand1 = merge_coarse(cand_at, cand_kb)
    return RetrievalResult(
        cand_at=cand_at, cand_kb=cand_kb, cand1=cand1, cand2=cand2,
        top1_at=cand_at[0] if cand_at else None,
        top1_kb=cand_kb[0] if cand_kb else None,
        top1_desc=cand2[0] if cand2 else None,
    )


# -- recall ------------------------------------------------------------------


def test_recall_at_k_counts_hits_within_k():
    results = [
        (["g", "x", "y"], "g"),      # rank 1
        (["a", "b", "g", "c"], "g"),  # rank 3
        ([f"r{i}" for i in range(12)], "g"),  # absent
    ]
    assert recall_at_k(results, 5) == pytest.approx(2 / 3)


def test_recall_at_1_perfect():
    results = [(["g", "x"], "g"), (["g"], "g")]
    assert recall_at_k(results, 1) == 1.0


def test_recall_matches_membership_counting_oracle():
    rng = random.Random(17)
    results = []
    for _ in range(100):
        ranking = [f"e{rng.randrange(30)}" for _ in range(rng.randrange(0, 15))]
        results.append((ranking, f"e{rng.randrange(30)}"))
    for k in (1, 5, 10):
        expected = sum(1 for ranking, gold in results if gold in ranking[:k]) / len(results)
        assert recall_at_k(results, k) == pytest.approx(expected, abs=1e-12)


def test_recall_empty_input_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        assert recall_at_k([], 5) == 0.0


def test_recall_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        recall_at_k([(["a"], "a")], 0)


def test_recall_report_is_monotone_and_renders():
    results = [
        ranking_result(["g1", "x"], ["y", "g1"], ["g1"]),
        ranking_result(["a"], ["g2", "b"], []),
    ]
    report = recall_report(results, ["g1", "g2"])
    for stage, values in report.stages.items():
        assert values[1] <= values[5] <= values[10]
    text = report.to_text()
    assert "AT-BM25" in text and "Description-BM25" in text
    objects = report.to_json_objects()
    assert len(objects) == 9
    assert {o["metric"] for o in objects} == {"r@1", "r@5", "r@10"}


def test_recall_report_rejects_non_monotone_values():
    with pytest.raises(ValueError):
        RecallReport(
            stages={
                "at_bm25": {1: 0.9, 5: 0.5, 10: 1.0},
                "kb_bm25": {1: 0.0, 5: 0.0, 10: 0.0},
                "desc_bm25": {1: 0.0, 5: 0.0, 10: 0.0},
            },
            mention_count=10,
        )


def test_recall_report_length_mismatch():
    with pytest.raises(LengthMismatch):
        recall_report([ranking_result([], [], [])], ["g1", "g2"])


# -- accuracy ----------------------------------------------------------------


def test_accuracy_half_correct():
    preds = [Prediction("A", "majority"), Prediction("B", "majority")]
    report = accuracy(preds, ["A", "C"])
    assert report.accuracy == 0.5
    assert report.n == 2
    assert report.decided_by == {"majority": 2}


def test_accuracy_all_correct():
    preds = [Prediction("A", "majority")]
    assert accuracy(preds, ["A"]).accuracy == 1.0


def test_accuracy_none_prediction_counts_as_miss():
    report = accuracy([None, Prediction("A", "reranker_fallback")], ["A", "A"])
    assert report.accuracy == 0.5
    assert report.decided_by == {"no_vote": 1, "reranker_fallback": 1}


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy([], ["A"])


def test_accuracy_table_text_layout():
    reports = [
        AccuracyReport(system="full", accuracy=0.6915, n=100, decided_by={}),
        AccuracyReport(system="w/o Ensemble", accuracy=0.6791, n=100, decided_by={}),
    ]
    text = accuracy_table_text(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("System")
    assert "0.6915" in lines[1] and "0.6791" in lines[2]


def test_write_json_report(tmp_path):
    path = tmp_path / "r.json"
    write_json_report([{"system": "full", "metric": "accuracy", "value": 1.0, "n": 3, "breakdown": {}}], path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded[0]["value"] == 1.0


# -- pipeline evaluation -----------------------------------------------------


def test_evaluate_dataset_full_system():
    pipeline, ds = make_pipeline(SynthSpec(seed=21, n_entities=30, n_aliases=45, n_mentions=40))
    recall, acc, linked = evaluate_dataset(pipeline, ds)
    assert recall.mention_count == 40
    assert acc.n == 40
    assert len(linked) == 40
    for stage, values in recall.stages.items():
        assert values[1] <= values[5] <= values[10]


def test_without_ensemble_equals_standalone_reranker():
    pipeline, ds = make_pipeline(SynthSpec(seed=23, n_entities=25, n_aliases=35, n_mentions=30, ambiguity_rate=0.4))
    reports = run_ablation(pipeline, ds)
    ablated = next(r for r in reports if r.system == "w/o Ensemble")

    standalone = []
    for record in ds.records:
        result = pipeline.retriever.retrieve(pipeline.kb, record)
        pool = merge_coarse(result.cand1, result.cand2)
        ranked = rerank(pipeline.model, pipeline.store, record, pool)
        standalone.append(Prediction(ranked[0][0], RERANKER_ONLY) if ranked else None)
    expected = accuracy(standalone, [r.gold_id for r in ds.records], system="w/o Ensemble")
    assert ablated.accuracy == expected.accuracy
    assert ablated.decided_by == expected.decided_by


def test_ablation_all_toggles_gives_five_rows_in_order():
    pipeline, ds = make_pipeline(SynthSpec(seed=29, n_entities=15, n_aliases=20, n_mentions=10))
    reports = run_ablation(pipeline, ds)
    assert [r.system for r in reports] == [
        "full", "w/o Ensemble", "w/o AT-BM25", "w/o KB-BM25", "w/o Description-BM25",
    ]


def test_removing_alias_stage_hurts_on_alias_only_fixture():
    # Every mention surface is a tail alias, so nothing is reachable through
    # entity names; dropping AT-BM25 leaves no candidates at all.
    spec = SynthSpec(seed=31, n_entities=20, n_aliases=40, n_mentions=40, ambiguity_rate=0.0, tail_rate=1.0)
    pipeline, ds = make_pipeline(spec)
    reports = run_ablation(pipeline, ds)
    full = next(r for r in reports if r.system == "full")
    without_at = next(r for r in reports if r.system == "w/o AT-BM25")
    assert without_at.accuracy < full.accuracy
    assert without_at.accuracy == 0.0


def test_desc_recall_never_drops_when_k_desc_grows():
    spec = SynthSpec(seed=37, n_entities=40, n_aliases=60, n_mentions=60, ambiguity_rate=0.5)
    kb, at, ds = build_synthetic(spec)
    golds = [r.gold_id for r in ds.records]
    previous = -1.0
    for k_desc in (3, 5, 10, 20):
        retriever = Retriever.build(kb, at, RetrieverConfig(k_desc=k_desc))
        results = [retriever.retrieve(kb, record) for record in ds.records]
        value = recall_report(results, golds).stages["desc_bm25"][10]
        assert value >= previous
        previous = value


# -- one link per mention ----------------------------------------------------


def mixed_mention(doc_id: str, first: str, second: str, gold_id: str) -> MentionRecord:
    surface = f"{first} {second}"
    return MentionRecord(
        doc_id=doc_id, text=f"about {surface} today", span_start=6, span_end=6 + len(surface),
        mention=surface, gold_id=gold_id,
    )


def table(reports):
    return [report.to_json_object() for report in reports]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_entities=st.integers(3, 20),
    ambiguity=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
    tail=st.sampled_from((0.0, 0.4, 1.0)),
    ks=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    mixes=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=5),
)
def test_ablation_equals_the_five_pass_reference(seed, n_entities, ambiguity, tail, ks, mixes):
    spec = SynthSpec(
        seed=seed, n_entities=n_entities, n_aliases=2 * n_entities, n_mentions=10,
        ambiguity_rate=ambiguity, tail_rate=tail,
    )
    k_at, k_kb, k_desc = ks
    pipeline, ds = make_pipeline(spec, RetrieverConfig(k_at=k_at, k_kb=k_kb, k_desc=k_desc))
    # Two surface forms in one mention give coarse lists that overlap only in part.
    surfaces = [entry.alias for entry in pipeline.retriever.alias_table.entries]
    ids = [entity.id for entity in pipeline.kb.entities]
    ds = Dataset(records=ds.records + [
        mixed_mention(f"mix{i}", surfaces[a % len(surfaces)], surfaces[b % len(surfaces)], ids[a % len(ids)])
        for i, (a, b) in enumerate(mixes)
    ])

    assert table(run_ablation(pipeline, ds)) == table(oracles.run_ablation(pipeline, ds))
    for size in range(len(TOGGLES) + 1):
        for subset in itertools.combinations(TOGGLES, size):
            for record in ds.records:
                assert pipeline.link(record, frozenset(subset)) == oracles.link(pipeline, record, frozenset(subset))
    for record in ds.records:
        assert pipeline.ablate(record) == [
            oracles.link(pipeline, record, frozenset(disabled)) for disabled in [(), *((t,) for t in TOGGLES)]
        ]


def test_ablation_links_each_record_once():
    pipeline, ds = make_pipeline(SynthSpec(seed=41, n_entities=20, n_aliases=30, n_mentions=25))
    calls = 0
    link = pipeline.link

    def counting_link(record, disabled=frozenset()):
        nonlocal calls
        calls += 1
        return link(record, disabled=disabled)

    pipeline.link = counting_link  # shadows the method, as the benchmark's pass counter does
    run_ablation(pipeline, ds)
    assert calls == len(ds.records)


@pytest.mark.parametrize("k", [0, 6, 11])
def test_ablation_raises_what_the_five_pass_reference_raises(k):
    pipeline, ds = make_pipeline(SynthSpec(seed=43, n_entities=15, n_aliases=25, n_mentions=12))
    records = list(ds.records)
    long_surface = " ".join([records[k].mention] * ENCODER.max_len)
    records[k] = mixed_mention("long", long_surface, records[k].mention, records[k].gold_id)
    dataset = Dataset(records=records)
    with pytest.raises(MentionTooLong) as want:
        oracles.run_ablation(pipeline, dataset)
    with pytest.raises(MentionTooLong) as got:
        run_ablation(pipeline, dataset)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_record_without_candidates_is_no_vote_in_every_row():
    pipeline, ds = make_pipeline(SynthSpec(seed=47, n_entities=10, n_aliases=15, n_mentions=5))
    lone = mixed_mention("none", "zzqx", "qqzx", ds.records[0].gold_id)
    reports = run_ablation(pipeline, Dataset(records=[lone]))
    assert len(reports) == 1 + len(TOGGLES)
    for report in reports:
        assert report.decided_by == {"no_vote": 1}
        assert report.accuracy == 0.0
