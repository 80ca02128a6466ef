"""Deterministic synthetic corpus generator for desk-scale experiments.

The generated world is engineered so every pipeline mechanism has work to do:

* every entity name is a single unique Latin token, except that an
  ``ambiguity_rate`` fraction of entities share their name with at least one
  other entity and can only be told apart by description;
* every description embeds the entity's name token plus a globally unique
  signature token, and each mention document embeds its gold entity's
  signature, so description retrieval and the reranker have a learnable
  signal;
* a ``tail_rate`` fraction of mentions use alias surface forms that appear
  nowhere among entity names, so they are reachable through the alias table
  but not through name retrieval;
* document context words come from a vocabulary disjoint from every
  description, name, and alias token.

Same seed, same bytes: generation is a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
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
from .errors import InfeasibleSpec

_NAME_SYLLABLES = (
    "ba", "ce", "do", "fu", "gi", "ha", "ko", "lu", "me", "ni",
    "po", "qua", "ri", "su", "te", "vo", "wa", "xe", "yo", "zu",
)
# Document context vocabulary; disjoint from description topics by design.
_CONTEXT_WORDS = (
    "今", "天", "报", "道", "记", "者", "消", "息", "据", "悉",
    "city", "daily", "news", "press", "story", "update", "today", "local",
)
# Description topic vocabulary.
_TOPIC_WORDS = (
    "机", "构", "历", "史", "系", "统", "行", "业", "文", "化",
    "heritage", "archive", "founded", "region", "group", "company", "museum", "village",
)


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 7
    n_entities: int = 200
    n_aliases: int = 300
    n_mentions: int = 500
    ambiguity_rate: float = 0.3
    tail_rate: float = 0.3


@dataclass(frozen=True)
class SynthPaths:
    kb: Path
    aliases: Path
    mentions: Path


def _check_spec(spec: SynthSpec) -> tuple[int, int, int]:
    if spec.seed < 0:
        raise InfeasibleSpec(f"seed must be >= 0, got {spec.seed}")
    for name in ("n_entities", "n_aliases", "n_mentions"):
        if getattr(spec, name) < 1:
            raise InfeasibleSpec(f"{name} must be >= 1")
    for name in ("ambiguity_rate", "tail_rate"):
        rate = getattr(spec, name)
        if not 0.0 <= rate <= 1.0:
            raise InfeasibleSpec(f"{name} must be in [0, 1], got {rate}")

    n_ambiguous = round(spec.ambiguity_rate * spec.n_entities)
    if n_ambiguous == 1:
        if spec.n_entities < 2:
            raise InfeasibleSpec("cannot make a single entity share its name with another")
        n_ambiguous = 2  # sharing needs a partner

    if spec.n_aliases < spec.n_entities:
        raise InfeasibleSpec(
            f"n_aliases ({spec.n_aliases}) must cover one name alias per entity ({spec.n_entities})"
        )
    n_tail_aliases = spec.n_aliases - spec.n_entities

    n_tail_mentions = round(spec.tail_rate * spec.n_mentions)
    if n_tail_mentions > 0 and n_tail_aliases == 0:
        raise InfeasibleSpec("tail mentions requested but the alias budget leaves no tail aliases")
    return n_ambiguous, n_tail_aliases, n_tail_mentions


def build_synthetic(spec: SynthSpec) -> tuple[KnowledgeBase, AliasTable, Dataset]:
    """In-memory counterpart of :func:`generate_synthetic`."""
    n_ambiguous, n_tail_aliases, n_tail_mentions = _check_spec(spec)
    rng = np.random.default_rng([spec.seed, 101])
    n = spec.n_entities
    width = max(len(str(n - 1)), 1)

    # Group ambiguous entities into name-sharing pairs (one triple if odd).
    shuffled = list(rng.permutation(n))
    ambiguous = sorted(int(i) for i in shuffled[:n_ambiguous])
    groups: list[list[int]] = [ambiguous[i : i + 2] for i in range(0, len(ambiguous) - 1, 2)]
    if len(ambiguous) % 2 == 1:
        groups[-1].append(ambiguous[-1])
    group_of: dict[int, int] = {}
    for group_index, members in enumerate(groups):
        for member in members:
            group_of[member] = group_index

    def fresh_name(tag: int) -> str:
        first = _NAME_SYLLABLES[int(rng.integers(len(_NAME_SYLLABLES)))]
        second = _NAME_SYLLABLES[int(rng.integers(len(_NAME_SYLLABLES)))]
        return f"{first}{second}{tag}"

    # Tags n..n+len(groups)-1 cannot collide with the per-entity tags 0..n-1.
    group_names = [fresh_name(n + g) for g in range(len(groups))]

    entities = []
    for i in range(n):
        name = group_names[group_of[i]] if i in group_of else fresh_name(i)
        signature = f"key{i}z"
        topics = " ".join(
            _TOPIC_WORDS[int(t)] for t in rng.integers(len(_TOPIC_WORDS), size=4)
        )
        entities.append(
            EntityRecord(id=f"E{i:0{width}d}", name=name, description=f"{name} {topics} {signature}")
        )
    kb = KnowledgeBase(entities)

    entries = []
    for i, entity in enumerate(entities):
        group_size = len(groups[group_of[i]]) if i in group_of else 1
        entries.append(AliasEntry(alias=entity.name, entity_id=entity.id, prior=round(1.0 / group_size, 6)))
    tail_aliases_of: dict[int, list[str]] = {}
    for j in range(n_tail_aliases):
        owner = j % n
        alias = f"alt{j}q"
        tail_aliases_of.setdefault(owner, []).append(alias)
        entries.append(AliasEntry(alias=alias, entity_id=entities[owner].id, prior=0.5))
    alias_table = AliasTable(entries)

    tail_owners = sorted(tail_aliases_of)
    tail_flags = [True] * n_tail_mentions + [False] * (spec.n_mentions - n_tail_mentions)
    rng.shuffle(tail_flags)

    mention_width = max(len(str(spec.n_mentions - 1)), 1)
    records = []
    for m, is_tail in enumerate(tail_flags):
        if is_tail:
            owner = tail_owners[int(rng.integers(len(tail_owners)))]
            aliases = tail_aliases_of[owner]
            surface = aliases[int(rng.integers(len(aliases)))]
            gold = entities[owner]
        else:
            gold = entities[int(rng.integers(n))]
            surface = gold.name
        pre = " ".join(_CONTEXT_WORDS[int(w)] for w in rng.integers(len(_CONTEXT_WORDS), size=3))
        post = " ".join(_CONTEXT_WORDS[int(w)] for w in rng.integers(len(_CONTEXT_WORDS), size=2))
        signature = f"key{kb.index[gold.id]}z"
        start = len(pre) + 1
        text = f"{pre} {surface} {signature} {post}"
        records.append(
            MentionRecord(
                doc_id=f"d{m:0{mention_width}d}",
                text=text,
                span_start=start,
                span_end=start + len(surface),
                mention=surface,
                gold_id=gold.id,
            )
        )
    return kb, alias_table, Dataset(records=records, split="test")


def generate_synthetic(spec: SynthSpec, out_dir) -> SynthPaths:
    """Write ``kb.jsonl``, ``aliases.jsonl``, and ``mentions.jsonl``."""
    kb, alias_table, dataset = build_synthetic(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = SynthPaths(kb=out / "kb.jsonl", aliases=out / "aliases.jsonl", mentions=out / "mentions.jsonl")
    save_knowledge_base(kb, paths.kb)
    save_alias_table(alias_table, paths.aliases)
    save_mentions(dataset, paths.mentions)
    return paths
