"""Recall and accuracy reports plus the ablation harness.

Recall is computed per retriever stage against that stage's own ranking.
Report objects render both as aligned plain text and as machine-readable
JSON objects of the shape ``{"system", "metric", "value", "n", "breakdown"}``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Sequence

from .corpus import Dataset
from .ensemble import Prediction
from .errors import LengthMismatch
from .pipeline import TOGGLES, LinkedMention, Pipeline
from .retriever import RetrievalResult

RECALL_KS = (1, 5, 10)
STAGE_LABELS = {
    "at_bm25": "AT-BM25",
    "kb_bm25": "KB-BM25",
    "desc_bm25": "Description-BM25",
}
ABLATION_LABELS = {
    "ensemble": "w/o Ensemble",
    "at_bm25": "w/o AT-BM25",
    "kb_bm25": "w/o KB-BM25",
    "desc_bm25": "w/o Description-BM25",
}
NO_VOTE = "no_vote"


def recall_at_k(results: Sequence[tuple[Sequence[str], str]], k: int) -> float:
    """Fraction of (ranking, gold) pairs whose gold sits in the top ``k``.

    Empty input is defined as 0.0 and flagged with a warning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not results:
        warnings.warn("recall over an empty result list", RuntimeWarning, stacklevel=2)
        return 0.0
    hits = sum(1 for ranking, gold in results if gold in list(ranking)[:k])
    return hits / len(results)


@dataclass(frozen=True)
class RecallReport:
    stages: dict[str, dict[int, float]]  # stage key -> {k: recall}
    mention_count: int

    def __post_init__(self):
        for stage, values in self.stages.items():
            ordered = [values[k] for k in sorted(values)]
            if any(lo > hi + 1e-12 for lo, hi in zip(ordered, ordered[1:])):
                raise ValueError(f"recall not monotone in k for stage {stage!r}: {values}")

    def to_text(self) -> str:
        header = f"{'Retriever':<18}" + "".join(f"{f'r@{k}':>8}" for k in RECALL_KS)
        lines = [header]
        for stage in STAGE_LABELS:
            values = self.stages[stage]
            lines.append(
                f"{STAGE_LABELS[stage]:<18}" + "".join(f"{values[k]:>8.4f}" for k in RECALL_KS)
            )
        lines.append(f"mentions: {self.mention_count}")
        return "\n".join(lines) + "\n"

    def to_json_objects(self) -> list[dict]:
        return [
            {
                "system": STAGE_LABELS[stage],
                "metric": f"r@{k}",
                "value": self.stages[stage][k],
                "n": self.mention_count,
                "breakdown": {},
            }
            for stage in STAGE_LABELS
            for k in RECALL_KS
        ]


def recall_report(results: Sequence[RetrievalResult], golds: Sequence[str]) -> RecallReport:
    """Per-stage recall over retrieval results and their gold ids."""
    if len(results) != len(golds):
        raise LengthMismatch(f"{len(results)} retrieval results vs {len(golds)} golds")
    rankings = {
        "at_bm25": [(r.cand_at, g) for r, g in zip(results, golds)],
        "kb_bm25": [(r.cand_kb, g) for r, g in zip(results, golds)],
        "desc_bm25": [(r.cand2, g) for r, g in zip(results, golds)],
    }
    with warnings.catch_warnings():
        if not results:
            warnings.simplefilter("ignore", RuntimeWarning)
        stages = {
            stage: {k: recall_at_k(pairs, k) for k in RECALL_KS}
            for stage, pairs in rankings.items()
        }
    return RecallReport(stages=stages, mention_count=len(results))


@dataclass(frozen=True)
class AccuracyReport:
    system: str
    accuracy: float
    n: int
    decided_by: dict[str, int]

    def to_json_object(self) -> dict:
        return {
            "system": self.system,
            "metric": "accuracy",
            "value": self.accuracy,
            "n": self.n,
            "breakdown": dict(self.decided_by),
        }


def accuracy(
    preds: Sequence[Prediction | None],
    golds: Sequence[str],
    system: str = "full",
) -> AccuracyReport:
    """Exact-match accuracy plus a decided_by histogram.

    ``None`` predictions (no stage produced a hypothesis) count as misses
    under the ``no_vote`` histogram key.
    """
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    correct = 0
    histogram: dict[str, int] = {}
    for pred, gold in zip(preds, golds):
        label = pred.decided_by if pred is not None else NO_VOTE
        histogram[label] = histogram.get(label, 0) + 1
        if pred is not None and pred.entity_id == gold:
            correct += 1
    value = correct / len(preds) if preds else 0.0
    return AccuracyReport(system=system, accuracy=value, n=len(preds), decided_by=histogram)


def accuracy_table_text(reports: Sequence[AccuracyReport]) -> str:
    width = max([len(r.system) for r in reports] + [len("System")])
    lines = [f"{'System':<{width}}  Accuracy"]
    for report in reports:
        lines.append(f"{report.system:<{width}}  {report.accuracy:.4f}")
    return "\n".join(lines) + "\n"


def _golds(ds: Dataset) -> list[str]:
    missing = [r.doc_id for r in ds.records if r.gold_id is None]
    if missing:
        raise LengthMismatch(f"records without gold ids cannot be scored: {missing[:5]}")
    return [r.gold_id for r in ds.records]


def evaluate_dataset(pipeline: Pipeline, ds: Dataset) -> tuple[RecallReport, AccuracyReport, list[LinkedMention]]:
    """Full-system run: per-stage recall plus ensemble accuracy."""
    golds = _golds(ds)
    linked = pipeline.link_dataset(ds)
    recall = recall_report([lm.retrieval for lm in linked], golds)
    acc = accuracy([lm.prediction for lm in linked], golds, system="full")
    return recall, acc, linked


def run_ablation(pipeline: Pipeline, ds: Dataset) -> list[AccuracyReport]:
    """Full system plus one row per toggle, in ``TOGGLES`` order.

    Disabling ``ensemble`` takes the reranker top-1 directly; disabling a
    BM25 stage removes its candidates from the cascade and its vote. Every
    row comes from one link per mention (``Pipeline.ablate``): the two
    coarse-stage rows rerun only the fine stage, the other rows reuse the
    link as it is. Each row equals linking the dataset with its toggle
    disabled, and a record that fails to link raises as it would there.
    """
    golds = _golds(ds)
    preds: list[list[Prediction | None]] = [[] for _ in range(len(TOGGLES) + 1)]
    for record in ds.records:
        for column, lm in zip(preds, pipeline.ablate(record)):
            column.append(lm.prediction)
    systems = ["full", *(ABLATION_LABELS[toggle] for toggle in TOGGLES)]
    return [accuracy(column, golds, system=system) for column, system in zip(preds, systems)]


def write_json_report(objects: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(objects, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
