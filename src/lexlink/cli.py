"""Command-line front end.

Subcommands: synth, build-index, train, embed-entities, predict, evaluate,
ablate. Exit codes: 0 success, 1 I/O failure, 2 data or validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ENV_CONFIG_VAR, FIELD_TYPES, PipelineConfig, load_config
from .corpus import load_alias_table, load_knowledge_base, load_mentions, validate, Dataset
from .errors import DataError
from .evaluation import (
    accuracy_table_text,
    evaluate_dataset,
    run_ablation,
    write_json_report,
)
from .pipeline import TOGGLES, LinkedMention, Pipeline
from .reranker import DualEncoder, EntityEmbeddingStore, precompute_entity_embeddings, train
from .retriever import Retriever
from .synth import SynthSpec, generate_synthetic

def _common_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help=f"config file path (or ${ENV_CONFIG_VAR})")
    for name, kind in FIELD_TYPES.items():
        parent.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)
    return parent


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    path = args.config or os.environ.get(ENV_CONFIG_VAR)
    overrides = {name: getattr(args, name) for name in FIELD_TYPES}
    return load_config(path, overrides)


def _ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _load_pipeline(cfg: PipelineConfig) -> Pipeline:
    kb = load_knowledge_base(cfg.kb)
    retriever = Retriever.load(cfg.at_index, cfg.kb_index, cfg.retriever_config())
    model = DualEncoder.load(cfg.model)
    store = EntityEmbeddingStore.load(cfg.store, kb)
    return Pipeline(kb=kb, retriever=retriever, model=model, store=store)


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        seed=args.synth_seed,
        n_entities=args.entities,
        n_aliases=args.n_aliases,
        n_mentions=args.mentions,
        ambiguity_rate=args.ambiguity,
        tail_rate=args.tail,
    )
    paths = generate_synthetic(spec, args.out)
    for path in (paths.kb, paths.aliases, paths.mentions):
        print(path)
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    kb = load_knowledge_base(cfg.kb)
    aliases = load_alias_table(cfg.aliases)
    report = validate(kb, aliases, Dataset(records=[]))
    if report.alias_misses:
        raise DataError(f"alias table references unknown entities: {report.alias_misses[:10]}")
    retriever = Retriever.build(kb, aliases, cfg.retriever_config())
    _ensure_parent(cfg.at_index)
    _ensure_parent(cfg.kb_index)
    retriever.save(cfg.at_index, cfg.kb_index)
    print(f"at_index: {retriever.at_index.doc_count} docs -> {cfg.at_index}")
    print(f"kb_index: {retriever.kb_index.doc_count} docs -> {cfg.kb_index}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    kb = load_knowledge_base(cfg.kb)
    aliases = load_alias_table(cfg.aliases)
    dataset = load_mentions(cfg.train_mentions, split="train")
    report = validate(kb, aliases, dataset)
    if report.gold_misses:
        raise DataError(f"training golds missing from the knowledge base: {report.gold_misses[:10]}")
    retriever = Retriever.load(cfg.at_index, cfg.kb_index, cfg.retriever_config())
    model, stats = train(dataset, kb, retriever, cfg.train_config(), cfg.encoder_config())
    _ensure_parent(cfg.model)
    model.save(cfg.model)
    print(f"trained on {stats.examples} records for {stats.epochs} epoch(s)")
    print(f"initial loss {stats.initial_loss:.6f} final loss {stats.final_loss:.6f}")
    print(f"model -> {cfg.model}")
    return 0


def cmd_embed_entities(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    kb = load_knowledge_base(cfg.kb)
    model = DualEncoder.load(cfg.model)
    store = precompute_entity_embeddings(model, kb)
    _ensure_parent(cfg.store)
    store.save(cfg.store)
    print(f"entity store: {store.matrix.shape[0]} rows -> {cfg.store}")
    return 0


def _prediction_line(lm: LinkedMention) -> str:
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


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    pipeline = _load_pipeline(cfg)
    mentions_path = args.mentions_path or cfg.eval_mentions
    dataset = load_mentions(mentions_path)
    linked = pipeline.link_dataset(dataset)
    _ensure_parent(cfg.predictions)
    with open(cfg.predictions, "w", encoding="utf-8") as fh:
        for lm in linked:
            fh.write(_prediction_line(lm))
    print(f"{len(linked)} predictions -> {cfg.predictions}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    pipeline = _load_pipeline(cfg)
    dataset = load_mentions(cfg.eval_mentions)
    recall, acc, _ = evaluate_dataset(pipeline, dataset)
    out = Path(cfg.report_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "recall.txt").write_text(recall.to_text(), encoding="utf-8")
    write_json_report(recall.to_json_objects(), out / "recall.json")
    accuracy_text = accuracy_table_text([acc])
    (out / "accuracy.txt").write_text(accuracy_text, encoding="utf-8")
    write_json_report([acc.to_json_object()], out / "accuracy.json")
    print(recall.to_text(), end="")
    print(accuracy_text, end="")
    print(f"reports -> {out}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    toggles = tuple(part.strip() for part in args.toggles.split(",") if part.strip())
    unknown = set(toggles).difference(TOGGLES)
    if unknown:
        raise DataError(f"unknown ablation toggles: {sorted(unknown)}; valid: {list(TOGGLES)}")
    pipeline = _load_pipeline(cfg)
    dataset = load_mentions(cfg.eval_mentions)
    reports = run_ablation(pipeline, dataset, toggles)
    out = Path(cfg.report_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = accuracy_table_text(reports)
    (out / "ablation.txt").write_text(table, encoding="utf-8")
    write_json_report([r.to_json_object() for r in reports], out / "ablation.json")
    print(table, end="")
    print(f"reports -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parent = _common_parser()
    parser = argparse.ArgumentParser(prog="lexlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--seed", dest="synth_seed", type=int, default=7)
    synth.add_argument("--entities", type=int, default=200)
    synth.add_argument("--aliases", dest="n_aliases", type=int, default=300)
    synth.add_argument("--mentions", type=int, default=500)
    synth.add_argument("--ambiguity", type=float, default=0.3)
    synth.add_argument("--tail", type=float, default=0.3)
    synth.add_argument("--out", default="data")
    synth.set_defaults(func=cmd_synth)

    for name, func, extra in (
        ("build-index", cmd_build_index, None),
        ("train", cmd_train, None),
        ("embed-entities", cmd_embed_entities, None),
        ("predict", cmd_predict, "mentions"),
        ("evaluate", cmd_evaluate, None),
        ("ablate", cmd_ablate, "toggles"),
    ):
        command = sub.add_parser(name, parents=[parent], help=f"{name} step")
        if extra == "mentions":
            command.add_argument("--mentions", dest="mentions_path", default=None,
                                 help="mentions file (default: eval_mentions from config)")
        if extra == "toggles":
            command.add_argument("--toggles", default=",".join(TOGGLES),
                                 help="comma-separated subset of " + ",".join(TOGGLES))
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
