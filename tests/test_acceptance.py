"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance is pinned in the assertion that enforces it.
"""

import contextlib
import hashlib
import io
import itertools
import math
import random
import time

import numpy as np
import pytest

from lexlink.bm25 import Bm25Index, Bm25Params
from lexlink.cli import main
from lexlink.corpus import Dataset
from lexlink.ensemble import Prediction, VoteInput, vote
from lexlink.errors import NoVotes
from lexlink.evaluation import accuracy, evaluate_dataset, recall_report, run_ablation
from lexlink.pipeline import Pipeline
from lexlink.reranker import (
    DualEncoder,
    EncoderConfig,
    TrainConfig,
    batch_loss_and_grads,
    build_training_examples,
    dataset_loss,
    example_loss,
    precompute_entity_embeddings,
    rerank,
    train,
)
from lexlink.retriever import Retriever, RetrieverConfig, merge_coarse
from lexlink.synth import SynthSpec, build_synthetic

from oracles import bm25_ranking


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def untrained_pipeline(spec: SynthSpec, encoder: EncoderConfig):
    kb, at, ds = build_synthetic(spec)
    retriever = Retriever.build(kb, at)
    model = DualEncoder.initialize(encoder)
    store = precompute_entity_embeddings(model, kb)
    return Pipeline(kb=kb, retriever=retriever, model=model, store=store), ds


def test_criterion_1_bm25_oracle_equivalence():
    rng = random.Random(812)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        k1 = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 1.0)
        vocab = [f"t{i}" for i in range(rng.randrange(1, 51))]
        docs = [
            [rng.choice(vocab) for _ in range(rng.randrange(0, 30))]
            for _ in range(rng.randrange(1, 101))
        ]
        index = Bm25Index.build(docs, Bm25Params(k1=k1, b=b))
        for _ in range(3):
            query = [rng.choice(vocab) for _ in range(rng.randrange(1, 6))]
            expected = bm25_ranking(docs, query, k1, b, 10)
            got = index.top_k(query, 10)
            if [h.doc_index for h in got] != [i for i, _ in expected]:
                mismatches += 1
                continue
            if any(abs(h.score - s) > 1e-9 for h, (_, s) in zip(got, expected)):
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "BM25 top-10 rankings and scores match the brute-force oracle within 1e-9",
        mismatches == 0 and elapsed < 10.0,
        f"50 corpora, {elapsed:.2f}s",
    )


def test_criterion_2_cascade_subset_and_cap_invariants():
    spec = SynthSpec(seed=202, n_entities=150, n_aliases=220, n_mentions=1000,
                     ambiguity_rate=0.3, tail_rate=0.3)
    kb, at, ds = build_synthetic(spec)
    cfg = RetrieverConfig(k_at=10, k_kb=10, k_desc=10)
    retriever = Retriever.build(kb, at, cfg)
    violations = 0
    for record in ds.records:
        result = retriever.retrieve(kb, record)
        cand1 = set(result.cand1)
        if not set(result.cand2) <= cand1:
            violations += 1
        if len(result.cand_at) > cfg.k_at or len(result.cand_kb) > cfg.k_kb:
            violations += 1
        if len(result.cand2) > cfg.k_desc:
            violations += 1
    report(2, "cascade subset/cap invariants hold on 1,000 synthetic mentions",
           violations == 0, f"{violations} violations")


def test_criterion_3_vote_rule_exhaustiveness():
    symbols = (None, "A", "B", "C", "D")
    failures = 0
    checked = 0
    for at, kb, desc, reranker in itertools.product(symbols, repeat=4):
        present = [v for v in (at, kb, desc, reranker) if v is not None]
        v = VoteInput(at=at, kb=kb, desc=desc, reranker=reranker)
        if not present:
            with pytest.raises(NoVotes):
                vote(v)
            checked += 1
            continue
        prediction = vote(v)
        checked += 1
        from collections import Counter

        counts = Counter(present)
        top = counts.most_common()
        top_count = top[0][1]
        strict = top_count >= 2 and (len(top) == 1 or top[1][1] < top_count)
        if strict:
            expected = top[0][0]
        elif top_count == 2:
            expected = reranker
        elif reranker is not None:
            expected = reranker
        else:
            expected = next(x for x in (at, kb, desc) if x is not None)
        if prediction.entity_id != expected:
            failures += 1
    worked = (
        vote(VoteInput("A", "A", "B", "C")) == Prediction("A", "majority")
        and vote(VoteInput("A", "B", "C", "D")) == Prediction("D", "reranker_fallback")
        and vote(VoteInput("A", "A", "B", "B")) == Prediction("B", "pair_with_reranker")
    )
    report(3, "all 625 vote inputs resolve rule-consistently incl. the worked cases",
           failures == 0 and checked == 625 and worked, f"{checked} inputs")


def gradient_fixture():
    spec = SynthSpec(seed=99, n_entities=25, n_aliases=35, n_mentions=6,
                     ambiguity_rate=0.3, tail_rate=0.2)
    kb, at, ds = build_synthetic(spec)
    retriever = Retriever.build(kb, at)
    encoder = EncoderConfig(dim=8, hash_buckets=512, max_len=32, seed=12)
    examples = build_training_examples(
        Dataset(ds.records, split="train"), kb, retriever, TrainConfig(seed=12), encoder
    )
    return DualEncoder.initialize(encoder), encoder, examples


def test_criterion_4_gradient_check():
    model, encoder, examples = gradient_fixture()
    _, grads_m, grads_e = batch_loss_and_grads(model, examples)
    eps = 1e-4
    rng = np.random.default_rng(451)
    worst = 0.0

    def finite_difference(array, index):
        original = array[index]
        array[index] = original + eps
        up = dataset_loss(model, examples)
        array[index] = original - eps
        down = dataset_loss(model, examples)
        array[index] = original
        return (up - down) / (2.0 * eps)

    for params, grads in ((model.mention_params, grads_m), (model.entity_params, grads_e)):
        sampled = 0
        for _ in range(12):
            bucket = int(grads.emb_buckets[rng.integers(grads.emb_buckets.size)])
            j = int(rng.integers(encoder.dim))
            analytic = grads.embedding_row(bucket)[j]
            fd = finite_difference(params.embedding, (bucket, j))
            worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8))
            sampled += 1
        for _ in range(6):
            i, j = int(rng.integers(encoder.dim)), int(rng.integers(encoder.dim))
            fd = finite_difference(params.projection, (i, j))
            worst = max(worst, abs(grads.projection[i, j] - fd) / max(abs(grads.projection[i, j]), abs(fd), 1e-8))
            sampled += 1
        for _ in range(2):
            j = int(rng.integers(encoder.dim))
            fd = finite_difference(params.bias, (j,))
            worst = max(worst, abs(grads.bias[j] - fd) / max(abs(grads.bias[j]), abs(fd), 1e-8))
            sampled += 1
        assert sampled == 20
    report(4, "analytic gradients match central finite differences (rel err < 1e-4)",
           worst < 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_5_uniform_loss_identity():
    model, _, examples = gradient_fixture()
    for params in (model.mention_params, model.entity_params):
        params.embedding[:] = 0.0
        params.bias[:] = 0.0
    example = next(ex for ex in examples if len(ex.candidates) == 8)
    deviation = abs(example_loss(model, example) - math.log(8))
    report(5, "uniform scores over K=8 give per-record loss ln 8 within 1e-9",
           deviation < 1e-9, f"deviation {deviation:.2e}")


def test_criterion_6_store_equivalence():
    spec = SynthSpec(seed=303, n_entities=120, n_aliases=180, n_mentions=500,
                     ambiguity_rate=0.4, tail_rate=0.3)
    encoder = EncoderConfig(dim=24, hash_buckets=4096, max_len=64, seed=6)
    pipeline, ds = untrained_pipeline(spec, encoder)
    worst = 0.0
    order_mismatches = 0
    for record in ds.records:
        result = pipeline.retriever.retrieve(pipeline.kb, record)
        pool = merge_coarse(result.cand1, result.cand2)
        if not pool:
            continue
        via_store = rerank(pipeline.model, pipeline.store, record, pool)
        y_m = pipeline.model.encode_mention(record)
        direct = [
            (eid, float(np.dot(y_m, pipeline.model.encode_entity(pipeline.kb.lookup(eid)))))
            for eid in pool
        ]
        direct.sort(key=lambda pair: (-pair[1], pair[0]))
        if [e for e, _ in via_store] != [e for e, _ in direct]:
            order_mismatches += 1
        worst = max(worst, max(abs(a - b) for (_, a), (_, b) in zip(via_store, direct)))
    report(6, "store-based and on-the-fly reranking agree (order exact, scores < 1e-6)",
           order_mismatches == 0 and worst < 1e-6,
           f"500 mentions, worst score dev {worst:.2e}")


def test_criterion_7_degenerate_fixture_end_to_end():
    spec = SynthSpec(seed=404, n_entities=100, n_aliases=100, n_mentions=200,
                     ambiguity_rate=0.0, tail_rate=0.0)
    encoder = EncoderConfig(dim=16, hash_buckets=2048, max_len=64, seed=5)
    pipeline, ds = untrained_pipeline(spec, encoder)
    recall, acc, _ = evaluate_dataset(pipeline, ds)
    kb_r1 = recall.stages["kb_bm25"][1]
    report(7, "degenerate fixture: pipeline accuracy 1.0 and KB-BM25 r@1 = 1.0",
           acc.accuracy == 1.0 and kb_r1 == 1.0,
           f"accuracy {acc.accuracy:.4f}, r@1 {kb_r1:.4f}")


def test_criterion_8_learning_signal():
    spec = SynthSpec(seed=101, n_entities=80, n_aliases=120, n_mentions=400,
                     ambiguity_rate=0.8, tail_rate=0.2)
    kb, at, ds = build_synthetic(spec)
    retriever = Retriever.build(kb, at)
    train_ds = Dataset(ds.records[:200], split="train")
    held_out = Dataset(ds.records[200:], split="validation")
    encoder = EncoderConfig(dim=32, hash_buckets=8192, max_len=64, seed=7)

    untrained = DualEncoder.initialize(encoder)
    pipe_untrained = Pipeline(kb=kb, retriever=retriever, model=untrained,
                              store=precompute_entity_embeddings(untrained, kb))
    _, acc_untrained, _ = evaluate_dataset(pipe_untrained, held_out)

    model, stats = train(train_ds, kb, retriever,
                         TrainConfig(learning_rate=0.8, epochs=40, batch_size=32, seed=7), encoder)
    pipe_trained = Pipeline(kb=kb, retriever=retriever, model=model,
                            store=precompute_entity_embeddings(model, kb))
    _, acc_trained, _ = evaluate_dataset(pipe_trained, held_out)

    rows = run_ablation(pipe_trained, held_out)
    without_ensemble = next(r for r in rows if r.system == "w/o Ensemble")
    standalone = []
    for record in held_out.records:
        result = retriever.retrieve(kb, record)
        ranked = rerank(model, pipe_trained.store, record, merge_coarse(result.cand1, result.cand2))
        standalone.append(Prediction(ranked[0][0], "reranker_only") if ranked else None)
    standalone_acc = accuracy(standalone, [r.gold_id for r in held_out.records]).accuracy

    ok = (
        math.isfinite(stats.final_loss)
        and stats.final_loss < stats.initial_loss
        and acc_trained.accuracy > acc_untrained.accuracy
        and without_ensemble.accuracy == standalone_acc
    )
    report(8, "training beats the untrained system; w/o-ensemble equals standalone reranker",
           ok,
           f"untrained {acc_untrained.accuracy:.4f} -> trained {acc_trained.accuracy:.4f}, "
           f"loss {stats.initial_loss:.4f} -> {stats.final_loss:.4f}")


def test_criterion_9_recall_monotonicity():
    specs = [
        SynthSpec(seed=404, n_entities=100, n_aliases=100, n_mentions=200,
                  ambiguity_rate=0.0, tail_rate=0.0),
        SynthSpec(seed=505, n_entities=60, n_aliases=90, n_mentions=150,
                  ambiguity_rate=0.5, tail_rate=0.4),
        SynthSpec(seed=606, n_entities=40, n_aliases=60, n_mentions=100,
                  ambiguity_rate=0.2, tail_rate=0.6),
    ]
    violations = 0
    for spec in specs:
        kb, at, ds = build_synthetic(spec)
        retriever = Retriever.build(kb, at)
        results = [retriever.retrieve(kb, record) for record in ds.records]
        rep = recall_report(results, [r.gold_id for r in ds.records])
        for values in rep.stages.values():
            if not values[1] <= values[5] <= values[10]:
                violations += 1
    report(9, "every emitted recall report satisfies r@1 <= r@5 <= r@10",
           violations == 0, f"{len(specs)} reports")


def run_cli_workflow(root):
    """Run the seven commands on one small synth world. Each command's
    stdout, with ``root`` written as ``<root>``, goes to
    ``art/stdout/<command>.txt``."""
    data, stdout = root / "data", root / "art" / "stdout"
    stdout.mkdir(parents=True)

    def run(command, *flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, *flags]) == 0, command
        (stdout / f"{command}.txt").write_text(out.getvalue().replace(str(root), "<root>"), encoding="utf-8")

    run("synth", "--seed", "5", "--entities", "40", "--aliases", "60",
        "--mentions", "120", "--ambiguity", "0.4", "--tail", "0.3", "--out", str(data))
    lines = (data / "mentions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (data / "train.jsonl").write_text("".join(lines[:60]), encoding="utf-8")
    (data / "eval.jsonl").write_text("".join(lines[60:]), encoding="utf-8")
    flags = [
        "--kb", str(data / "kb.jsonl"), "--aliases", str(data / "aliases.jsonl"),
        "--train-mentions", str(data / "train.jsonl"), "--eval-mentions", str(data / "eval.jsonl"),
        "--at-index", str(root / "art" / "at.json"), "--kb-index", str(root / "art" / "kb.json"),
        "--model", str(root / "art" / "model.lxc"), "--store", str(root / "art" / "store.lxc"),
        "--predictions", str(root / "art" / "predictions.jsonl"),
        "--report-dir", str(root / "art" / "reports"),
        "--dim", "16", "--hash-buckets", "2048", "--max-len", "64",
        "--epochs", "2", "--seed", "33",
    ]
    for command in ("build-index", "train", "embed-entities", "predict", "evaluate", "ablate"):
        run(command, *flags)
    return root / "art"


def test_criterion_10_pipeline_determinism(tmp_path):
    first = run_cli_workflow(tmp_path / "one")
    second = run_cli_workflow(tmp_path / "two")
    targets = [
        "model.lxc", "store.lxc", "predictions.jsonl",
        "reports/recall.txt", "reports/recall.json",
        "reports/accuracy.txt", "reports/accuracy.json",
        "reports/ablation.txt", "reports/ablation.json",
    ]
    differing = [
        rel for rel in targets
        if (first / rel).read_bytes() != (second / rel).read_bytes()
    ]
    report(10, "identical seeds give byte-identical artifacts, predictions, and reports",
           not differing, f"{len(targets)} files compared")


# SHA-256 of every file ``run_cli_workflow`` writes, the stdout of its seven
# commands included. A change that keeps the outputs byte-identical keeps
# these; one that means to change them records the new digests and says why.
# They hold as long as numpy's seeded stream does.
WORKFLOW_SHA256 = {
    "at.json": "8f9edefc448cdd779b4b0d94993dd01c4882b6a5418c5308ae3d06213f406ce4",
    "kb.json": "9a8a22e88cd03ccf24aeab828ec93aa1042bbe0c77281966981db326ef39563e",
    "model.lxc": "cc22a9b41ddae5668427bc4ee2cef49cee7b1879fe309c4b9c77748adccdc44f",
    "store.lxc": "3adb5710135f34bcb47026ecb31fc418cae80e3685034123f32c281c15835106",
    "predictions.jsonl": "bc0ee9feae1d8bb3a514bc35e049179a227d53d8b172c142ed437ae1ed2bfb85",
    "reports/recall.txt": "80b5edcb257ce7faede50bea92c3b1a2ca01783d19f16205d0683a6e6b2b5efe",
    "reports/recall.json": "a661f3912d81d98521c1071d2ca47ebd0e6a9b70c2967f2675a3c8cac3fe267a",
    "reports/accuracy.txt": "e981b7af8423b4aea1f3a6cf45d4151d229da2cd8a8af5fccd6e051848710efd",
    "reports/accuracy.json": "b1b8a6f62eca1110d137c93c92cef482f7f5de826ad2903586ac5f467030442d",
    "reports/ablation.txt": "ae690f8c7087220feb5d682562eb7be2f8b517c29f169ad51fa3e4347a7a8822",
    "reports/ablation.json": "4dd8fa71f354f789f0012bd04a26f3adff3d4edefcf7c96f02c6f433b5878b17",
    "stdout/synth.txt": "09e0ac704717b94dc53163508c951a892bfc831e997bca849d9112f60e36e6c4",
    "stdout/build-index.txt": "ccd9ab836e000e1bcb3cfe8b4af9085a0bac68fa09cb1bf0563470b961285d12",
    "stdout/train.txt": "5bc1b0698c373e69680a9b7909aee68d3e337ac1e49b134f0428c75928a2d353",
    "stdout/embed-entities.txt": "50db2380119dcdb57a85c975084f102bb24c142481ed8df352763fa24f2b926f",
    "stdout/predict.txt": "9db41943b18f11a4dbb21d2412b60fcd744b13d78c9dce87830360f4fe894bca",
    "stdout/evaluate.txt": "e8ac5dd4afe1315accf93f377c662f45f65042e414a8b4a08ddbc918dd271636",
    "stdout/ablate.txt": "09a3914fc29068fc2914183c7510f8ec8d5660f1745cd7b8379bd9a3352a483b",
}


def test_criterion_10_outputs_are_the_recorded_bytes(tmp_path):
    art = run_cli_workflow(tmp_path)
    digests = {
        path.relative_to(art).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in art.rglob("*") if path.is_file()
    }
    differing = sorted(name for name in digests.keys() | WORKFLOW_SHA256.keys()
                       if digests.get(name) != WORKFLOW_SHA256.get(name))
    report(10, "the workflow writes the recorded bytes", not differing,
           f"{len(WORKFLOW_SHA256)} files pinned, differing: {differing}")
