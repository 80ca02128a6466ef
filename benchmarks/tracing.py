"""Traced run: per-layer spans and counts, recorded from outside lexlink.

The traced driver calls the layers' public functions in the order
``Pipeline.link`` does and must reproduce its result exactly. Calls that
happen inside a layer (``tokenize``, ``Bm25Index.top_k``/``build``, the
training steps) are observed by wrapping the module or class attribute the
caller looks up, for the duration of the traced run only; the wrappers call
through unchanged. Spans stay in memory and are written out at the end.

Every layer runs on the caller's thread, so no layer waits on another; the
per-layer figures are busy (self) times and counts, with no wait times.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Iterator, Sequence

import numpy as np

from lexlink import reranker as reranker_module
from lexlink import tokenizer as tokenizer_module
from lexlink.bm25 import Bm25Index
from lexlink.corpus import MentionRecord, load_alias_table, load_knowledge_base, load_mentions
from lexlink.ensemble import VoteInput, vote
from lexlink.errors import DataError
from lexlink.evaluation import run_ablation
from lexlink.pipeline import LinkedMention, Pipeline
from lexlink.reranker import (
    MENTION_END,
    MENTION_START,
    DualEncoder,
    EntityEmbeddingStore,
    SequenceFeatures,
    build_mention_sequence,
    encode,
    precompute_entity_embeddings,
    score_pair,
    sequence_features,
    train,
)
from lexlink.retriever import RetrievalResult, Retriever, merge_coarse

from endtoend import (
    ENCODER_CONFIG,
    TRAIN_CONFIG,
    WITHOUT_ENSEMBLE,
    ArtifactPaths,
    Tally,
    build_index,
    embed_entities,
    link_pass,
    model_fingerprint,
    timed,
)
from workloads import WorldFiles, file_digest

SETUP_LOADS = 3  # artifact loads per traced run
PHASE_REPEATS = 3  # untraced train + build-index + embed-entities per traced run
MIN_TRACED_PASSES = 3


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    mention: int  # index of the mention being linked, -1 outside linking


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.mention = -1
        self._open: list[int] = []
        # Call arguments kept for counting after the timed pass.
        self.tokenized: list[str] = []
        self.top_k_calls: list[tuple[Bm25Index, list[str], int]] = []  # index, query, hits returned
        self.sequences: list[tuple[tuple[str, ...], SequenceFeatures]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.mention)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.mention]) + "\n")


def _lexlink_modules_using(fn: Callable) -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("lexlink.") and module is not tokenizer_module and getattr(module, "tokenize", None) is fn
    ]


@contextlib.contextmanager
def instrument_link(tracer: Tracer) -> Iterator[None]:
    """Wrap ``tokenize`` where lexlink imported it, and ``Bm25Index``'s
    ``top_k`` and ``build``; restore them on exit."""
    original_tokenize = tokenizer_module.tokenize
    modules = _lexlink_modules_using(original_tokenize)
    original_top_k = Bm25Index.__dict__["top_k"]
    original_build = Bm25Index.__dict__["build"]

    def tokenize(text):
        tracer.tokenized.append(text)
        with tracer.span("tokenize"):
            return original_tokenize(text)

    def top_k(self, query, k):
        with tracer.span("bm25.top_k"):
            hits = original_top_k(self, query, k)
        tracer.top_k_calls.append((self, query, len(hits)))
        return hits

    def build(cls, docs, *args, **kwargs):
        with tracer.span("bm25.build"):
            return original_build.__func__(cls, docs, *args, **kwargs)

    for module in modules:
        module.tokenize = tokenize
    Bm25Index.top_k = top_k
    Bm25Index.build = classmethod(build)
    try:
        yield
    finally:
        for module in modules:
            module.tokenize = original_tokenize
        Bm25Index.top_k = original_top_k
        Bm25Index.build = original_build


@contextlib.contextmanager
def instrument_train(tracer: Tracer) -> Iterator[None]:
    """Wrap the training steps ``train`` looks up in its module."""
    names = {
        "build_training_examples": "train.examples",
        "batch_loss_and_grads": "train.grad",
        "dataset_loss": "train.loss_eval",
    }
    originals = {name: getattr(reranker_module, name) for name in names}
    for name, span_name in names.items():
        setattr(reranker_module, name, tracer.wrap(span_name, originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(reranker_module, name, fn)


def traced_link(tracer: Tracer, pipeline: Pipeline, m: MentionRecord) -> LinkedMention:
    """``Pipeline.link`` with every layer call in its own span."""
    kb, retriever, model, store = pipeline.kb, pipeline.retriever, pipeline.model, pipeline.store
    span = tracer.span
    with span("link"):
        with span("retrieve_coarse"):
            cand_at, cand_kb = retriever.retrieve_coarse(m.mention)
        with span("merge_coarse"):
            cand1 = merge_coarse(cand_at, cand_kb)
        with span("retrieve_fine"):
            cand2 = retriever.retrieve_fine(kb, m.text, cand1)
        result = RetrievalResult(
            cand_at=cand_at,
            cand_kb=cand_kb,
            cand1=cand1,
            cand2=cand2,
            top1_at=cand_at[0] if cand_at else None,
            top1_kb=cand_kb[0] if cand_kb else None,
            top1_desc=cand2[0] if cand2 else None,
        )
        pool = merge_coarse(result.cand1, result.cand2)
        reranked: list[tuple[str, float]] = []
        if pool:
            with span("build_mention_sequence"):
                seq = build_mention_sequence(m, model.cfg)
            with span("sequence_features"):
                feats = sequence_features(seq, model.cfg)
            tracer.sequences.append((seq.tokens, feats))
            with span("encode"):
                y_m = encode(feats, model.mention_params, model.cfg)
            with span("score"):
                reranked = [(entity_id, score_pair(y_m, store.row(entity_id))) for entity_id in pool]
                reranked.sort(key=lambda pair: (-pair[1], pair[0]))
        with span("vote"):
            votes = VoteInput(
                at=result.top1_at,
                kb=result.top1_kb,
                desc=result.top1_desc,
                reranker=reranked[0][0] if reranked else None,
            )
            prediction = None if votes == VoteInput() else vote(votes)
    return LinkedMention(
        doc_id=m.doc_id,
        gold_id=m.gold_id,
        retrieval=result,
        votes=votes,
        reranked=reranked,
        prediction=prediction,
    )


def traced_pass(tracer: Tracer, pipeline: Pipeline, records: Sequence[MentionRecord]) -> list[LinkedMention | None]:
    """Traced counterpart of ``endtoend.link_pass``."""
    linked: list[LinkedMention | None] = []
    with instrument_link(tracer):
        for i, record in enumerate(records):
            tracer.mention = i
            try:
                linked.append(traced_link(tracer, pipeline, record))
            except DataError:
                linked.append(None)
    tracer.mention = -1
    return linked


def link_layer_metrics(tracer: Tracer, linked: Sequence[LinkedMention | None]) -> dict[str, float]:
    """Per-mention self times and counts of one traced pass."""
    n = len(linked)
    self_ns = tracer.self_ns()
    total_ns: dict[str, int] = defaultdict(int)
    own_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_ns):
        total_ns[span.name] += span.end - span.start
        own_ns[span.name] += own
        calls[span.name] += 1

    def us(ns: int) -> float:
        return ns / 1000 / n

    seen: set[str] = set()
    repeats = repeat_chars = chars = 0
    for text in tracer.tokenized:
        chars += len(text)
        if text in seen:
            repeats += 1
            repeat_chars += len(text)
        seen.add(text)

    postings = scored = hits = 0
    for index, query, kept in tracer.top_k_calls:
        lists = [index.postings.get(token, ()) for token in dict.fromkeys(query)]
        postings += sum(len(p) for p in lists)
        scored += len({doc for posting in lists for doc, _tf in posting})
        hits += kept

    # A token's features depend only on the token and whether it lies inside
    # the mention span, so a repeat is what a per-token feature cache hits.
    features = repeated_tokens = tokens = 0
    seen_tokens: set[tuple[str, bool]] = set()
    for seq, feats in tracer.sequences:
        features += int(feats.counts.sum())
        in_span = False
        for token in seq:
            if token == MENTION_END:
                in_span = False
            key = (token, in_span)
            tokens += 1
            if key in seen_tokens:
                repeated_tokens += 1
            seen_tokens.add(key)
            if token == MENTION_START:
                in_span = True

    decided: dict[str, int] = defaultdict(int)
    linked = [lm for lm in linked if lm is not None]
    for lm in linked:
        if lm.prediction is not None:
            decided[lm.prediction.decided_by] += 1

    metrics = {
        "tokenizer.calls_per_mention": len(tracer.tokenized) / n,
        "tokenizer.chars_per_mention": chars / n,
        "tokenizer.self_us_per_mention": us(own_ns["tokenize"]),
        "tokenizer.repeat_share": repeats / max(len(tracer.tokenized), 1),
        "tokenizer.repeat_char_share": repeat_chars / max(chars, 1),
        "bm25.top_k.calls_per_mention": calls["bm25.top_k"] / n,
        "bm25.top_k.postings_per_mention": postings / n,
        "bm25.top_k.self_us_per_mention": us(own_ns["bm25.top_k"]),
        "bm25.top_k.kept_share": hits / max(scored, 1),
        "bm25.build.calls_per_mention": calls["bm25.build"] / n,
        "bm25.build.self_us_per_mention": us(own_ns["bm25.build"]),
        "retriever.coarse_us_per_mention": us(total_ns["retrieve_coarse"]),
        "retriever.fine_us_per_mention": us(total_ns["retrieve_fine"]),
        "retriever.cand1_size": sum(len(lm.retrieval.cand1) for lm in linked) / n,
        "retriever.cand2_size": sum(len(lm.retrieval.cand2) for lm in linked) / n,
        "retriever.cand1_gold_share": sum(lm.gold_id in lm.retrieval.cand1 for lm in linked) / n,
        "reranker.featurize_us_per_mention": us(total_ns["sequence_features"]),
        "reranker.features_per_mention": features / n,
        "reranker.feature_repeat_share": repeated_tokens / max(tokens, 1),
        "reranker.encode_us_per_mention": us(total_ns["encode"]),
        "reranker.score_us_per_mention": us(total_ns["score"]),
        "reranker.candidates_scored_per_mention": sum(len(lm.reranked) for lm in linked) / n,
        "ensemble.vote_us_per_mention": us(total_ns["vote"]),
        "pipeline.link_self_us_per_mention": us(own_ns["link"]),
    }
    for label in DECIDED_BY_LABELS:
        metrics[f"ensemble.decided_by.{label}_share"] = decided[label] / n
    return metrics


DECIDED_BY_LABELS = ("majority", "pair_with_reranker", "reranker_fallback", "only_available")

# Timing metrics of one traced pass; the others are counts that repeat exactly.
LINK_TIMINGS = (
    "tokenizer.self_us_per_mention",
    "bm25.top_k.self_us_per_mention",
    "bm25.build.self_us_per_mention",
    "retriever.coarse_us_per_mention",
    "retriever.fine_us_per_mention",
    "reranker.featurize_us_per_mention",
    "reranker.encode_us_per_mention",
    "reranker.score_us_per_mention",
    "ensemble.vote_us_per_mention",
    "pipeline.link_self_us_per_mention",
)


def train_layer_metrics(tracer: Tracer, model: DualEncoder) -> dict[str, float]:
    seconds: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.parent == -1:
            seconds[span.name] += (span.end - span.start) / 1e9
    initial = DualEncoder.initialize(model.cfg)
    rows_touched = sum(
        int(np.any(trained.embedding != start.embedding, axis=1).sum())
        for trained, start in (
            (model.mention_params, initial.mention_params),
            (model.entity_params, initial.entity_params),
        )
    )
    return {
        "reranker.train.examples_s": seconds["train.examples"],
        "reranker.train.grad_s": seconds["train.grad"],
        "reranker.train.loss_eval_s": seconds["train.loss_eval"],
        "reranker.train.rows_touched": rows_touched,
    }


def _count_link_passes(pipeline: Pipeline, run: Callable[[], object]) -> tuple[float, object, int]:
    """Time ``run`` while counting ``pipeline.link`` calls through an
    instance attribute that shadows the method."""
    calls = 0
    link = pipeline.link

    def counting_link(record, disabled=frozenset()):
        nonlocal calls
        calls += 1
        return link(record, disabled=disabled)

    pipeline.link = counting_link
    try:
        seconds, result = timed(run)
    finally:
        del pipeline.link
    return seconds, result, calls


def run_traced(files: WorldFiles, work: Path, seconds: float, spans_out: Path) -> tuple[dict, Tally, dict]:
    """Every per-layer metric of one workload; returns metrics, tally and
    report details (input properties, pass count).

    Times are the fastest of repeated measurements, as in the end-to-end
    run; counts and shares come from one traced pass over the eval split.
    Traced and untraced passes alternate until ``seconds`` after the start
    (at least ``MIN_TRACED_PASSES`` of each).
    """
    deadline = time.perf_counter() + seconds
    tally = Tally()
    paths = ArtifactPaths.under(work)
    kb = load_knowledge_base(files.kb)
    aliases = load_alias_table(files.aliases)
    train_ds = load_mentions(files.train, split="train")
    eval_ds = load_mentions(files.eval)
    records = eval_ds.records
    retriever = Retriever.build(kb, aliases)

    # Retraining and a KB edit, untraced: the fastest of a few repetitions.
    # Each takes 0.3-2 s, long enough to average over the host's slow
    # episodes, so these are not steady enough for an end-to-end bound.
    phase_s: dict[str, list[float]] = defaultdict(list)
    fingerprints, digests = set(), set()
    for _ in range(PHASE_REPEATS):
        t, (plain, _) = timed(lambda: train(train_ds, kb, retriever, TRAIN_CONFIG, ENCODER_CONFIG))
        phase_s["train_s"].append(t)
        fingerprints.add(model_fingerprint(plain))
        t_index = timed(lambda: build_index(kb, aliases, paths))[0]
        phase_s["build_s"].append(t_index + timed(lambda: embed_entities(kb, plain, paths))[0])
        digests.add(file_digest(paths.at_index, paths.kb_index, paths.store))
        del plain
    tally.attempted += 3 * PHASE_REPEATS
    tally.check(len(digests) == 1, "build-index/embed-entities are not deterministic")
    train_tracer = Tracer()
    with instrument_train(train_tracer):
        model, _ = train(train_ds, kb, retriever, TRAIN_CONFIG, ENCODER_CONFIG)
    fingerprints.add(model_fingerprint(model))
    tally.check(len(fingerprints) == 1, "training is not deterministic, traced or not")
    model.save(paths.model)
    metrics = train_layer_metrics(train_tracer, model)
    metrics.update({name: min(values) for name, values in phase_s.items()})
    embed_s, store = timed(lambda: precompute_entity_embeddings(model, kb))
    store.save(paths.store)
    metrics["reranker.embed_entities_per_s"] = len(kb) / embed_s
    del model, store, retriever

    loads: dict[str, list[float]] = defaultdict(list)
    for _ in range(SETUP_LOADS):
        pipeline = None  # release the previous copy before loading the next
        t, kb = timed(lambda: load_knowledge_base(files.kb))
        loads["corpus.load_kb_s"].append(t)
        t, retriever = timed(lambda: Retriever.load(paths.at_index, paths.kb_index))
        loads["retriever.load_s"].append(t)
        t, model = timed(lambda: DualEncoder.load(paths.model))
        loads["reranker.model_load_s"].append(t)
        t, store = timed(lambda: EntityEmbeddingStore.load(paths.store, kb))
        loads["reranker.store_load_s"].append(t)
        pipeline = Pipeline(kb=kb, retriever=retriever, model=model, store=store)
        tally.attempted += 1
    metrics.update({name: median(values) for name, values in loads.items()})
    metrics.update({f"artifacts.{kind}_bytes": size for kind, size in paths.sizes().items()})

    reference, failed = link_pass(pipeline, records)
    tally.attempted += len(records)
    tally.failed += failed
    plain_s, traced_s, per_pass = [], [], []
    while time.perf_counter() < deadline or len(per_pass) < MIN_TRACED_PASSES:
        plain_s.append(timed(lambda: link_pass(pipeline, records))[0])
        tracer = Tracer()
        t, linked = timed(lambda: traced_pass(tracer, pipeline, records))
        traced_s.append(t)
        if not per_pass:
            mismatches = sum(a != b for a, b in zip(linked, reference))
            tally.attempted += len(records)
            tally.failed += mismatches
            if mismatches:
                tally.failures.append(f"traced driver differs from Pipeline.link on {mismatches} mentions")
            tracer.write(spans_out)
        per_pass.append(link_layer_metrics(tracer, linked))
        del tracer, linked
    for name, value in per_pass[0].items():
        metrics[name] = min(p[name] for p in per_pass) if name in LINK_TIMINGS else value
    metrics["trace.overhead_share"] = (min(traced_s) - min(plain_s)) / min(plain_s)

    ablate_s, reports, link_calls = _count_link_passes(pipeline, lambda: run_ablation(pipeline, eval_ds))
    tally.attempted += 1
    passes = link_calls / len(records)
    metrics["evaluation.link_passes"] = passes
    metrics["evaluation.ablate_s_per_pass"] = ablate_s / passes
    metrics["accuracy_reranker_only"] = next(r.accuracy for r in reports if r.system == WITHOUT_ENSEMBLE)

    inputs = {
        "digest": files.digest(),
        "doc_tokens": sum(len(tokenizer_module.tokenize(r.text)) for r in records) / len(records),
        "cand1": metrics["retriever.cand1_size"],
        "postings_per_mention": metrics["bm25.top_k.postings_per_mention"],
        "tokenize_repeat_share": metrics["tokenizer.repeat_share"],
        "tokenize_repeat_char_share": metrics["tokenizer.repeat_char_share"],
        "feature_repeat_share": metrics["reranker.feature_repeat_share"],
    }
    return metrics, tally, {"trace_passes": len(per_pass), "inputs": inputs}
