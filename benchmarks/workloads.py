"""Seeded workload generators.

Each generator is a pure function of its seed and returns the knowledge base,
the alias table and the train/eval mention splits that lexlink receives as
files. The three worlds differ in the input properties that decide where link
time goes: document length (tokenizer and featurizer work) and name
ambiguity across a shared vocabulary (BM25 posting lengths and the size of
the candidate sets the fine stage and the store scoring work on).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lexlink.corpus import (
    AliasEntry,
    AliasTable,
    Dataset,
    EntityRecord,
    KnowledgeBase,
    MentionRecord,
    save_alias_table,
    save_knowledge_base,
    save_mentions,
)
from lexlink.synth import SynthSpec, build_synthetic

# Split sizes are set per workload so that one pass over the eval split
# takes well under a second and the accuracy of a seed varies little.
SYNTH_ENTITIES = 2000
SYNTH_ALIASES = 3000
SHORT_SPLITS = (100, 300)  # train, eval
LONGDOC_SPLITS = (60, 100)
SHARED_SPLITS = (60, 100)

# Words appended to synth-longdoc documents. None of them is a token of any
# name, alias or description the generators emit (a test checks this), so
# they add tokenizer and featurizer work but no retrieval signal.
LONGDOC_WORDS = (
    "report", "morning", "evening", "weather", "market", "street", "people",
    "council", "reader", "column", "editor", "season", "weekend", "traffic",
    "据", "悉", "记", "者", "报", "道", "今", "日", "新", "闻",
)
LONGDOC_EXTRA_WORDS = 100

# shared-names: two-word names over a small shared vocabulary, so every query
# word hits a posting list of about 2 * 6000 / 115 = 104 entities.
SHARED_ENTITIES = 6000
SHARED_VOCAB = 115
_SYLLABLES = (
    "ba", "ce", "do", "fu", "gi", "ha", "ko", "lu", "me", "ni",
    "po", "ra", "si", "tu", "ve", "wo", "xa", "ye", "zo", "mu",
)
_SHARED_TOPICS = (
    "harbor", "valley", "guild", "school", "library", "bridge", "theatre", "orchard",
    "港", "谷", "馆", "桥",
)
_SHARED_CONTEXT = ("city", "daily", "news", "press", "story", "update", "today", "local")


@dataclass(frozen=True)
class World:
    kb: KnowledgeBase
    aliases: AliasTable
    train: Dataset
    eval: Dataset


@dataclass(frozen=True)
class WorldFiles:
    kb: Path
    aliases: Path
    train: Path
    eval: Path

    def digest(self) -> str:
        """SHA-256 over the four input files, in this order."""
        return file_digest(self.kb, self.aliases, self.train, self.eval)


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _split(records: list[MentionRecord], n_train: int) -> tuple[Dataset, Dataset]:
    return (
        Dataset(records=records[:n_train], split="train"),
        Dataset(records=records[n_train:], split="test"),
    )


def synth_world(seed: int, splits: tuple[int, int]) -> World:
    """``build_synthetic`` at the benchmark's KB size, split train/eval."""
    kb, aliases, ds = build_synthetic(
        SynthSpec(seed=seed, n_entities=SYNTH_ENTITIES, n_aliases=SYNTH_ALIASES, n_mentions=sum(splits))
    )
    return World(kb, aliases, *_split(ds.records, splits[0]))


def synth_short(seed: int) -> World:
    """lexlink's own synthetic world: one-token names, ~7-token documents."""
    return synth_world(seed, SHORT_SPLITS)


def _extend(record: MentionRecord, rng: np.random.Generator) -> MentionRecord:
    words = rng.integers(len(LONGDOC_WORDS), size=LONGDOC_EXTRA_WORDS)
    tail = " ".join(LONGDOC_WORDS[int(w)] for w in words)
    return replace(record, text=f"{record.text} {tail}")


def synth_longdoc(seed: int) -> World:
    """synth-short's world with every document extended to the right.

    Offsets are unchanged because text is only appended, and the gold
    signature stays inside the first 128 tokens.
    """
    world = synth_world(seed, LONGDOC_SPLITS)
    rng = np.random.default_rng([seed, 211])
    train = Dataset([_extend(r, rng) for r in world.train.records], split="train")
    ev = Dataset([_extend(r, rng) for r in world.eval.records], split="test")
    return World(world.kb, world.aliases, train, ev)


def shared_names(seed: int) -> World:
    """Entities named by two distinct words of a shared vocabulary.

    No two names use the same pair of words, so the gold entity is the only
    candidate matching both words of its mention; the candidates after it
    share one word and tie with each other in large groups.
    """
    rng = np.random.default_rng([seed, 307])
    pool = [a + b for a in _SYLLABLES for b in _SYLLABLES]
    vocab = [pool[int(i)] for i in rng.choice(len(pool), size=SHARED_VOCAB, replace=False)]
    pairs = [(a, b) for a in range(SHARED_VOCAB) for b in range(a + 1, SHARED_VOCAB)]
    chosen = rng.choice(len(pairs), size=SHARED_ENTITIES, replace=False)
    width = len(str(SHARED_ENTITIES - 1))
    entities = []
    for i, pair_index in enumerate(chosen):
        first, second = pairs[int(pair_index)]
        if rng.integers(2):
            first, second = second, first
        name = f"{vocab[first]} {vocab[second]}"
        topics = " ".join(_SHARED_TOPICS[int(t)] for t in rng.integers(len(_SHARED_TOPICS), size=4))
        entities.append(EntityRecord(id=f"S{i:0{width}d}", name=name, description=f"{name} {topics} sig{i}x"))
    kb = KnowledgeBase(entities)
    # Alias rows in an order of their own, so the alias and name indexes
    # break their many score ties differently and Cand1 grows past k.
    aliases = AliasTable(
        AliasEntry(alias=entities[int(i)].name, entity_id=entities[int(i)].id, prior=1.0)
        for i in rng.permutation(SHARED_ENTITIES)
    )

    records = []
    n_mentions = sum(SHARED_SPLITS)
    mention_width = len(str(n_mentions - 1))
    for m in range(n_mentions):
        gold_index = int(rng.integers(SHARED_ENTITIES))
        gold = entities[gold_index]
        pre = " ".join(_SHARED_CONTEXT[int(w)] for w in rng.integers(len(_SHARED_CONTEXT), size=3))
        post = " ".join(_SHARED_CONTEXT[int(w)] for w in rng.integers(len(_SHARED_CONTEXT), size=2))
        start = len(pre) + 1
        records.append(
            MentionRecord(
                doc_id=f"n{m:0{mention_width}d}",
                text=f"{pre} {gold.name} sig{gold_index}x {post}",
                span_start=start,
                span_end=start + len(gold.name),
                mention=gold.name,
                gold_id=gold.id,
            )
        )
    return World(kb, aliases, *_split(records, SHARED_SPLITS[0]))


def write_world(world: World, out_dir: Path) -> WorldFiles:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = WorldFiles(
        kb=out_dir / "kb.jsonl",
        aliases=out_dir / "aliases.jsonl",
        train=out_dir / "train.jsonl",
        eval=out_dir / "eval.jsonl",
    )
    save_knowledge_base(world.kb, files.kb)
    save_alias_table(world.aliases, files.aliases)
    save_mentions(world.train, files.train)
    save_mentions(world.eval, files.eval)
    return files
