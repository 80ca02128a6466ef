"""Command-line front end.

Subcommands: synth, build-index, train, embed-entities, predict, evaluate,
ablate. Exit codes: 0 success, 1 I/O failure, 2 data or validation failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from itertools import zip_longest
from pathlib import Path

from .config import ENV_CONFIG_VAR, FIELD_TYPES, PipelineConfig, load_config
from .corpus import KnowledgeBase, load_alias_table, load_knowledge_base, load_mentions
from .errors import ArtifactFormatError, DataError, StaleStore
from .evaluation import (
    accuracy_table_text,
    evaluate_dataset,
    run_ablation,
    write_json_report,
)
from .pipeline import LinkedMention, Pipeline
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


def _prepare_outputs(*paths) -> None:
    """Make each output path's parent directory, and refuse an empty path or
    one that is a directory, before any input is read. A run that fails later
    leaves the directories made here, but no new or changed output file."""
    for path in map(str, paths):
        if not path or os.path.isdir(path):
            code = errno.EISDIR if path else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _load_retriever(cfg: PipelineConfig, kb: KnowledgeBase) -> Retriever:
    """The stored retriever, refused unless its KB index holds the ``(id, name)``
    rows of ``kb`` in order. An edit to the alias file, which is not read, goes unnoticed."""
    retriever = Retriever.load(cfg.at_index, cfg.kb_index, cfg.retriever_config())
    rows = [(entity.id, entity.name) for entity in kb.entities]
    if retriever.kb_rows != rows:
        stale = next((a or b)[0] for a, b in zip_longest(retriever.kb_rows, rows) if a != b)
        raise DataError(
            f"{cfg.kb_index}: stale KB index: entity {stale!r} differs in {cfg.kb}, so the index no longer"
            " matches the knowledge base; rerun build-index"
        )
    return retriever


def _load_pipeline(cfg: PipelineConfig) -> Pipeline:
    kb = load_knowledge_base(cfg.kb)
    retriever = _load_retriever(cfg, kb)
    model = DualEncoder.load(cfg.model)
    store = EntityEmbeddingStore.load(cfg.store, kb)
    if store.encoder_digest != model.entity_digest:
        raise StaleStore(
            f"{cfg.store}: stale entity store: embedded by another model than {cfg.model}; rerun embed-entities"
        )
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
    _prepare_outputs(cfg.at_index, cfg.kb_index)
    kb = load_knowledge_base(cfg.kb)
    aliases = load_alias_table(cfg.aliases)
    retriever = Retriever.build(kb, aliases, cfg.retriever_config())
    retriever.save(cfg.at_index, cfg.kb_index)
    print(f"at_index: {retriever.at_index.doc_count} docs -> {cfg.at_index}")
    print(f"kb_index: {retriever.kb_index.doc_count} docs -> {cfg.kb_index}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _prepare_outputs(cfg.model)
    kb = load_knowledge_base(cfg.kb)
    dataset = load_mentions(cfg.train_mentions, split="train")
    retriever = _load_retriever(cfg, kb)
    model, stats = train(dataset, kb, retriever, cfg.train_config(), cfg.encoder_config())
    model.save(cfg.model)
    print(f"trained on {stats.examples} records for {stats.epochs} epoch(s)")
    print(f"initial loss {stats.initial_loss:.6f} final loss {stats.final_loss:.6f}")
    print(f"model -> {cfg.model}")
    return 0


def cmd_embed_entities(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _prepare_outputs(cfg.store)
    kb = load_knowledge_base(cfg.kb)
    model = DualEncoder.load(cfg.model)
    store = precompute_entity_embeddings(model, kb)
    if store.encoder_digest != model.entity_digest:
        raise ArtifactFormatError(
            f"{cfg.model}: entity encoder arrays do not match the digest in its header; rerun train"
        )
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
            "votes": lm.votes._asdict(),
        },
        ensure_ascii=False,
    ) + "\n"


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _prepare_outputs(cfg.predictions)
    pipeline = _load_pipeline(cfg)
    mentions_path = args.mentions_path or cfg.eval_mentions
    dataset = load_mentions(mentions_path)
    linked = pipeline.link_dataset(dataset)
    with open(cfg.predictions, "w", encoding="utf-8") as fh:
        for lm in linked:
            fh.write(_prediction_line(lm))
    print(f"{len(linked)} predictions -> {cfg.predictions}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.report_dir)
    _prepare_outputs(*(out / name for name in ("recall.txt", "recall.json", "accuracy.txt", "accuracy.json")))
    pipeline = _load_pipeline(cfg)
    dataset = load_mentions(cfg.eval_mentions)
    recall, acc, _ = evaluate_dataset(pipeline, dataset)
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
    out = Path(cfg.report_dir)
    _prepare_outputs(out / "ablation.txt", out / "ablation.json")
    pipeline = _load_pipeline(cfg)
    dataset = load_mentions(cfg.eval_mentions)
    reports = run_ablation(pipeline, dataset)
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

    for name, func in (
        ("build-index", cmd_build_index), ("train", cmd_train), ("embed-entities", cmd_embed_entities),
        ("predict", cmd_predict), ("evaluate", cmd_evaluate), ("ablate", cmd_ablate),
    ):
        command = sub.add_parser(name, parents=[parent], help=f"{name} step")
        if name == "predict":
            command.add_argument("--mentions", dest="mentions_path", default=None,
                                 help="mentions file (default: eval_mentions from config)")
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
