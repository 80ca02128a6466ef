import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import endtoend
import run
import tracing
from lexlink import tokenizer
from lexlink import retriever as retriever_module
from lexlink.bm25 import Bm25Index
from lexlink.pipeline import Pipeline
from lexlink.reranker import DualEncoder, EncoderConfig, precompute_entity_embeddings
from lexlink.retriever import Retriever
from lexlink.synth import SynthSpec, build_synthetic

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small():
    kb, aliases, ds = build_synthetic(SynthSpec(seed=4, n_entities=40, n_aliases=60, n_mentions=30))
    model = DualEncoder.initialize(EncoderConfig(dim=8, hash_buckets=512, max_len=16, seed=0))
    pipeline = Pipeline(kb, Retriever.build(kb, aliases), model, precompute_entity_embeddings(model, kb))
    record = ds.records[0]
    # A span of 20 tokens cannot fit a 16-token sequence: MentionTooLong.
    long_surface = " ".join([record.mention] * 20)
    too_long = replace(
        record,
        doc_id="too-long",
        text=record.text[: record.span_start] + long_surface + record.text[record.span_end :],
        span_end=record.span_start + len(long_surface),
        mention=long_surface,
    )
    return pipeline, [*ds.records, too_long]


def test_a_mention_that_raises_is_counted_not_fatal(small):
    pipeline, records = small
    linked, failed = endtoend.link_pass(pipeline, records)
    assert failed == 1 and linked[-1] is None and all(lm is not None for lm in linked[:-1])
    loop = endtoend.LinkRun.over(records)
    endtoend.mention_pass(pipeline, records, loop)
    assert (loop.attempted, loop.failed, len(loop.linked_best_us())) == (len(records), 1, len(records) - 1)
    assert loop.tables[-1] is None and all(table is not None for table in loop.tables[:-1])


def test_single_mention_ablations_add_up_to_the_split_ablation(small):
    pipeline, records = small
    records = records[:-1]
    loop = endtoend.LinkRun.over(records)
    endtoend.mention_pass(pipeline, records, loop)
    endtoend.mention_pass(pipeline, records, loop)
    assert loop.nondeterministic == 0 and len(loop.pass_rates) == 2
    split = endtoend.run_ablation(pipeline, endtoend.Dataset(records=list(records)))
    for report in split:
        hits = sum(table[report.system] for table in loop.tables)
        assert round(hits) == round(report.accuracy * len(records))


def test_traced_driver_reproduces_link_and_restores_lexlink(small):
    pipeline, records = small
    reference, _ = endtoend.link_pass(pipeline, records)
    tracer = tracing.Tracer()
    assert tracing.traced_pass(tracer, pipeline, records) == reference
    assert retriever_module.tokenize is tokenizer.tokenize
    assert "top_k" not in vars(Bm25Index) or vars(Bm25Index)["top_k"].__module__ == "lexlink.bm25"
    names = {span.name for span in tracer.spans}
    assert {"link", "retrieve_coarse", "retrieve_fine", "tokenize", "bm25.top_k", "bm25.build", "vote"} <= names
    assert all(own >= 0 for own in tracer.self_ns())
    metrics = tracing.link_layer_metrics(tracer, reference)
    assert metrics["tokenizer.calls_per_mention"] > 0
    assert metrics["bm25.top_k.postings_per_mention"] > 0


def test_benchmark_description_matches_the_code():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in run.PER_LAYER
    ]
    assert manifest["run_seconds"] == run.RUN_SECONDS


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "synth-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
