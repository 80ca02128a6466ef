"""lexlink benchmark.

One run measures one workload from one process and one thread, as a closed
loop: a single caller links one mention after another. Inputs are generated
in process from ``--seed``; lexlink receives only the generated files.

    python3 benchmarks/run.py --workload synth-short --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. ``--all`` runs
every workload in both modes, prints a table, and rewrites ``BENCHMARK.json``
and ``benchmarks/inputs.json`` from the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if __name__ == "__main__" and not (SRC / "lexlink" / "__init__.py").is_file():
    print(f"error: lexlink sources not found under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))
# One thread: numpy's BLAS would otherwise start a thread per CPU, whose
# spinning competes with the caller on a 2-CPU machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import endtoend  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 30
REFERENCE_SEED = 1
HELD_OUT_SEED = 90210  # not used while tuning; for re-checking claims
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Bounds: the host's speed drifts by tens of percent between minutes, so
# every timing gets the largest bound; accuracy varies between seeds by a
# few hundredths on splits of 100-300 mentions.
END_TO_END = (
    Metric("link_mentions_per_s", "mentions/s", "higher", 0.25),
    Metric("link_p50_us", "us", "lower", 0.25),
    Metric("link_tail_us", "us", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ablate_s", "s", "lower", 0.25),
    Metric("accuracy", "ratio", "higher", 0.08),
    Metric("artifact_bytes", "bytes", "lower", 0.02),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("tokenizer.calls_per_mention", "count", "lower"),
    Metric("tokenizer.chars_per_mention", "count", "lower"),
    Metric("tokenizer.self_us_per_mention", "us", "lower"),
    Metric("tokenizer.repeat_share", "ratio", "lower"),
    Metric("tokenizer.repeat_char_share", "ratio", "lower"),
    Metric("bm25.top_k.calls_per_mention", "count", "lower"),
    Metric("bm25.top_k.postings_per_mention", "count", "lower"),
    Metric("bm25.top_k.self_us_per_mention", "us", "lower"),
    Metric("bm25.top_k.kept_share", "ratio", "higher"),
    Metric("bm25.build.calls_per_mention", "count", "lower"),
    Metric("bm25.build.self_us_per_mention", "us", "lower"),
    Metric("retriever.coarse_us_per_mention", "us", "lower"),
    Metric("retriever.fine_us_per_mention", "us", "lower"),
    Metric("retriever.cand1_size", "count", "lower"),
    Metric("retriever.cand2_size", "count", "lower"),
    Metric("retriever.cand1_gold_share", "ratio", "higher"),
    Metric("retriever.load_s", "s", "lower"),
    Metric("reranker.featurize_us_per_mention", "us", "lower"),
    Metric("reranker.features_per_mention", "count", "lower"),
    Metric("reranker.feature_repeat_share", "ratio", "lower"),
    Metric("reranker.encode_us_per_mention", "us", "lower"),
    Metric("reranker.score_us_per_mention", "us", "lower"),
    Metric("reranker.candidates_scored_per_mention", "count", "lower"),
    Metric("reranker.embed_entities_per_s", "entities/s", "higher"),
    Metric("reranker.model_load_s", "s", "lower"),
    Metric("reranker.store_load_s", "s", "lower"),
    Metric("reranker.train.examples_s", "s", "lower"),
    Metric("reranker.train.grad_s", "s", "lower"),
    Metric("reranker.train.loss_eval_s", "s", "lower"),
    Metric("reranker.train.rows_touched", "count", "higher"),
    Metric("ensemble.vote_us_per_mention", "us", "lower"),
    *(
        Metric(f"ensemble.decided_by.{label}_share", "ratio", "higher")
        for label in tracing.DECIDED_BY_LABELS
    ),
    Metric("pipeline.link_self_us_per_mention", "us", "lower"),
    Metric("evaluation.link_passes", "count", "lower"),
    Metric("evaluation.ablate_s_per_pass", "s", "lower"),
    Metric("accuracy_reranker_only", "ratio", "higher"),
    Metric("corpus.load_kb_s", "s", "lower"),
    Metric("artifacts.model_bytes", "bytes", "lower"),
    Metric("artifacts.store_bytes", "bytes", "lower"),
    Metric("artifacts.index_bytes", "bytes", "lower"),
    Metric("trace.overhead_share", "ratio", "lower"),
    Metric("train_s", "s", "lower"),
    Metric("build_s", "s", "lower"),
    Metric("failed_share", "ratio", "lower"),
)


@dataclass(frozen=True)
class Workload:
    generator: Callable[[int], workloads.World]
    why: str


WORKLOADS = {
    "synth-short": Workload(
        workloads.synth_short,
        "default traffic: short docs and tiny candidate sets, so fixed per-mention costs dominate",
    ),
    "synth-longdoc": Workload(
        workloads.synth_longdoc,
        "long docs: tokenizer and featurizer dominate; no description-side gain expected",
    ),
    "shared-names": Workload(
        workloads.shared_names,
        "two-word names over a shared vocabulary: long posting lists, a full Cand1, a 6k-entity KB to load and embed",
    ),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    try:
        files = workloads.write_world(workload.generator(seed), work)
        if trace:
            metrics, tally, details = tracing.run_traced(files, work, seconds, stem.with_suffix(".spans.jsonl"))
        else:
            metrics, tally, details = endtoend.run_end_to_end(files, work, seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            details["digest"] = files.digest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics["failed_share"] = tally.failed / tally.attempted
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "failures": tally.failures, **details, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for name, metric in record["metrics"].items():
        note = f"  (p{record['link_tail_percentile']}, n={record['link_samples']})" if name == "link_tail_us" else ""
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}{note}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process; rewrite the
    benchmark description from the results."""
    records = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            record = json.loads((OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
            print_record(record)
            records[name, trace] = record
    inputs = {}
    for name, workload in WORKLOADS.items():
        properties = records[name, 1]["inputs"]
        held_out = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            held_out_digest = workloads.write_world(workload.generator(HELD_OUT_SEED), held_out).digest()
        finally:
            shutil.rmtree(held_out, ignore_errors=True)
        inputs[name] = {"why": workload.why, "seed": seed, **properties,
                        "held_out_seed": HELD_OUT_SEED, "held_out_digest": held_out_digest}
    (HERE / "inputs.json").write_text(json.dumps(inputs, indent=2) + "\n", encoding="utf-8")
    manifest = {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": describe(inputs[name])} for name in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in records.values()) else 1


def describe(properties: dict) -> str:
    """One-line ``why``: the rationale plus the measured input shares."""
    why = (
        f"{properties['why']}; {properties['doc_tokens']:.0f} doc tokens, Cand1 {properties['cand1']:.1f}, "
        f"{properties['postings_per_mention']:.0f} postings/mention, tokenize repeat "
        f"{properties['tokenize_repeat_share']:.2f}, feature repeat {properties['feature_repeat_share']:.2f}"
    )
    if len(why) > 200:
        raise ValueError(f"why is {len(why)} characters: {why}")
    return why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --all")
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
