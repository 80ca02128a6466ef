"""End-to-end phases: what a lexlink user waits for, timed without tracing.

Every phase calls lexlink's public functions the way the CLI does, from one
process and one thread. Loads, links and ablations are repeated in rounds
spread over the run; every repeated ablation must reproduce the first one
exactly.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Sequence

import numpy as np

from lexlink import cli
from lexlink.corpus import Dataset, MentionRecord, load_alias_table, load_knowledge_base, load_mentions
from lexlink.errors import DataError
from lexlink.evaluation import evaluate_dataset, run_ablation
from lexlink.pipeline import LinkedMention, Pipeline
from lexlink.reranker import (
    DualEncoder,
    EncoderConfig,
    EntityEmbeddingStore,
    TrainConfig,
    precompute_entity_embeddings,
    train,
)
from lexlink.retriever import Retriever

from stats import tail
from workloads import WorldFiles

# Today's CLI defaults, pinned so that a change of default shows up as a
# change of benchmark code rather than as a silent change of workload.
ENCODER_CONFIG = EncoderConfig(dim=64, hash_buckets=2**16, ngram_orders=(1, 2, 3), max_len=128, seed=42)
TRAIN_CONFIG = TrainConfig(learning_rate=0.05, epochs=1, batch_size=64, negatives_per_example=7, seed=42)

WITHOUT_ENSEMBLE = "w/o Ensemble"
SETUP_LOADS_PER_ROUND = 1
MIN_ROUNDS = 5


@dataclass
class Tally:
    """Operations attempted and failed over every phase of a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass(frozen=True)
class ArtifactPaths:
    at_index: Path
    kb_index: Path
    model: Path
    store: Path

    @classmethod
    def under(cls, directory: Path) -> "ArtifactPaths":
        return cls(
            at_index=directory / "at_index.json",
            kb_index=directory / "kb_index.json",
            model=directory / "model.lxc",
            store=directory / "entities.lxc",
        )

    def sizes(self) -> dict[str, int]:
        return {
            "model": self.model.stat().st_size,
            "store": self.store.stat().st_size,
            "index": self.at_index.stat().st_size + self.kb_index.stat().st_size,
        }


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall seconds of one call of ``fn``, and its result. Garbage left by
    earlier work is collected first, so that it is not charged to ``fn``."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def model_fingerprint(model: DualEncoder) -> int:
    """CRC-32 over every parameter array: equal for bitwise-equal models."""
    crc = 0
    for params in (model.mention_params, model.entity_params):
        for array in (params.embedding, params.projection, params.bias):
            crc = zlib.crc32(np.ascontiguousarray(array).data, crc)
    return crc


def build_index(kb, aliases, paths: ArtifactPaths) -> None:
    """``build-index``: the alias and name indexes, written to disk."""
    Retriever.build(kb, aliases).save(paths.at_index, paths.kb_index)


def embed_entities(kb, model: DualEncoder, paths: ArtifactPaths) -> None:
    """``embed-entities``: the entity embedding store, written to disk."""
    precompute_entity_embeddings(model, kb).save(paths.store)


def load_pipeline(files: WorldFiles, paths: ArtifactPaths) -> Pipeline:
    """Artifact files on disk to a ready pipeline, as ``predict`` does."""
    kb = load_knowledge_base(files.kb)
    retriever = Retriever.load(paths.at_index, paths.kb_index)
    model = DualEncoder.load(paths.model)
    store = EntityEmbeddingStore.load(paths.store, kb)
    return Pipeline(kb=kb, retriever=retriever, model=model, store=store)


@dataclass
class LinkRun:
    """Repeated passes over one split: each mention's fastest link and
    fastest single-mention ablation, and the rate of every pass."""

    best_us: list[float]  # per record; inf while it has not linked
    best_ablate_us: list[float]  # per record; inf while it has not been ablated
    tables: list[dict[str, float] | None]  # per record: its ablation table
    pass_rates: list[float] = field(default_factory=list)  # linked mentions per second
    failed: int = 0
    attempted: int = 0
    nondeterministic: int = 0  # ablations whose table differed from the record's first

    @classmethod
    def over(cls, records: Sequence[MentionRecord]) -> "LinkRun":
        n = len(records)
        return cls(best_us=[math.inf] * n, best_ablate_us=[math.inf] * n, tables=[None] * n)

    def linked_best_us(self) -> list[float]:
        return [us for us in self.best_us if us != math.inf]


def link_pass(pipeline: Pipeline, records: Sequence[MentionRecord]) -> tuple[list[LinkedMention | None], int]:
    """Link every record once; a record that raises a data error is counted
    and yields ``None`` instead of aborting the pass."""
    linked: list[LinkedMention | None] = []
    failed = 0
    for record in records:
        try:
            linked.append(pipeline.link(record))
        except DataError:
            linked.append(None)
            failed += 1
    return linked, failed


def mention_pass(pipeline: Pipeline, records: Sequence[MentionRecord], run: LinkRun) -> None:
    """Closed loop, one caller: for one mention after another, link it, then
    run the five-row ablation on it alone; adds each time to ``run``.

    The ablation is ``run_ablation`` over a one-mention dataset: the split's
    ablation does the same links, mention by mention, so the sum over
    mentions of the fastest single-mention ablation is the split's ablation
    time with each mention measured at its quickest moment.
    """
    clock = time.perf_counter_ns
    best, best_ablate, tables = run.best_us, run.best_ablate_us, run.tables
    link_ns = linked = 0
    for i, record in enumerate(records):
        start = clock()
        try:
            pipeline.link(record)
        except DataError:
            run.failed += 1
            continue
        took = clock() - start
        link_ns += took
        linked += 1
        best[i] = min(best[i], took / 1000)
        start = clock()
        reports = run_ablation(pipeline, Dataset(records=[record]))
        took = clock() - start
        best_ablate[i] = min(best_ablate[i], took / 1000)
        table = {report.system: report.accuracy for report in reports}
        if tables[i] is None:
            tables[i] = table
        elif tables[i] != table:
            run.nondeterministic += 1
    run.attempted += len(records)
    if link_ns:
        run.pass_rates.append(linked * 1e9 / link_ns)


def prediction_line(lm: LinkedMention) -> str:
    """One line of ``lexlink predict`` output, written here from its
    documented schema rather than by the CLI's own helper, so that a change
    of the output format fails the gate instead of passing silently."""
    return json.dumps(
        {
            "doc_id": lm.doc_id,
            "pred_id": lm.prediction.entity_id if lm.prediction else None,
            "decided_by": lm.prediction.decided_by if lm.prediction else None,
            "cand1": lm.retrieval.cand1,
            "cand2": lm.retrieval.cand2,
            "votes": {
                "at": lm.votes.at,
                "kb": lm.votes.kb,
                "desc": lm.votes.desc,
                "reranker": lm.votes.reranker,
            },
        },
        ensure_ascii=False,
    ) + "\n"


def cli_predict(files: WorldFiles, paths: ArtifactPaths, out: Path) -> tuple[int, bytes]:
    """Run ``lexlink predict`` through its entry point; exit code and output."""
    argv = [
        "predict",
        "--kb", str(files.kb),
        "--aliases", str(files.aliases),
        "--at-index", str(paths.at_index),
        "--kb-index", str(paths.kb_index),
        "--model", str(paths.model),
        "--store", str(paths.store),
        "--mentions", str(files.eval),
        "--predictions", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.read_bytes() if code == 0 else b""


def accuracy_of(linked: Sequence[LinkedMention | None], ds: Dataset) -> float:
    hits = sum(
        1
        for lm, record in zip(linked, ds.records)
        if lm is not None and lm.prediction is not None and lm.prediction.entity_id == record.gold_id
    )
    return hits / len(ds.records)


def run_end_to_end(files: WorldFiles, work: Path, seconds: float) -> tuple[dict, Tally, dict]:
    """Every end-to-end metric of one workload; returns metrics, tally and
    report details (tail percentile, pass rates, set-up times).

    The host's speed swings by up to half, in episodes from milliseconds to
    minutes, as other tenants come and go. Interference only ever adds
    time, so an operation that takes a millisecond or so is timed many
    times over the run and its fastest time kept; an operation of a second
    would average over the episodes instead. So links and ablations are
    timed mention by mention, in rounds that repeat until ``seconds`` have
    passed (at least ``MIN_ROUNDS``): each round loads the artifacts
    ``SETUP_LOADS_PER_ROUND`` times, then makes one pass over the eval
    split. Set-up time is the median of its loads.
    """
    tally = Tally()
    paths = ArtifactPaths.under(work)
    kb = load_knowledge_base(files.kb)
    aliases = load_alias_table(files.aliases)
    train_ds = load_mentions(files.train, split="train")
    eval_ds = load_mentions(files.eval)
    records = eval_ds.records

    # train, build-index, embed-entities: once, to make the artifacts.
    model, _ = train(train_ds, kb, Retriever.build(kb, aliases), TRAIN_CONFIG, ENCODER_CONFIG)
    model.save(paths.model)
    build_index(kb, aliases, paths)
    embed_entities(kb, model, paths)
    del model
    tally.attempted += 3

    setup_s: list[float] = []
    pipeline = linked = None
    run = LinkRun.over(records)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for _ in range(SETUP_LOADS_PER_ROUND):
            pipeline = None  # release the previous copy before loading the next
            seconds_taken, pipeline = timed(lambda: load_pipeline(files, paths))
            setup_s.append(seconds_taken)
        tally.attempted += SETUP_LOADS_PER_ROUND
        if linked is None:
            # Warm pass: fills lazy state and yields the predictions the gates check.
            linked, warm_failed = link_pass(pipeline, records)
            tally.attempted += len(linked)
            tally.failed += warm_failed
        gc.collect()
        mention_pass(pipeline, records, run)
        rounds += 1
    tally.attempted += 2 * run.attempted  # a link and an ablation per mention
    tally.failed += 2 * run.failed
    tally.check(run.nondeterministic == 0, f"{run.nondeterministic} single-mention ablations differ from their first")

    # Correctness gates.
    accuracy = accuracy_of(linked, eval_ds)
    _, evaluated, _ = evaluate_dataset(pipeline, eval_ds)
    tally.check(evaluated.accuracy == accuracy, "accuracy differs from evaluate's")
    split_table = {report.system: report.accuracy for report in run_ablation(pipeline, eval_ds)}
    tally.check(split_table["full"] == accuracy, "ablation full row differs from evaluate's accuracy")
    if all(table is not None for table in run.tables):
        summed = {system: sum(table[system] for table in run.tables) for system in split_table}
        tally.check(
            all(round(summed[system]) == round(split_table[system] * len(records)) for system in split_table),
            "single-mention ablations do not add up to the split's ablation",
        )
    # The CLI loads its own copy; drop ours so that the peak memory is that
    # of one loaded pipeline, as in the rounds.
    pipeline = None
    gc.collect()
    code, cli_bytes = cli_predict(files, paths, work / "predictions.jsonl")
    ours = "".join(prediction_line(lm) for lm in linked if lm is not None).encode("utf-8")
    tally.check(code == 0 and cli_bytes == ours, "in-process predictions differ from `lexlink predict`")

    best_us = run.linked_best_us()
    pct, tail_us = tail(best_us)
    metrics = {
        "link_mentions_per_s": len(best_us) * 1e6 / sum(best_us),
        "link_p50_us": median(best_us),
        "link_tail_us": tail_us,
        "setup_s": median(setup_s),
        "ablate_s": sum(us for us in run.best_ablate_us if us != math.inf) / 1e6,
        "accuracy": accuracy,
        "artifact_bytes": sum(paths.sizes().values()),
    }
    details = {
        "rounds": rounds,
        "link_tail_percentile": pct,
        "link_samples": len(best_us),
        "link_pass_rates": run.pass_rates,
        "setup_times": setup_s,
    }
    return metrics, tally, details
