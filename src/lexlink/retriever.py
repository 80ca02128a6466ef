"""Coarse-to-fine candidate retrieval.

The coarse layer runs two BM25 models over the mention string: one across
alias-table surface forms, one across knowledge-base entity names. The
survivors are merged into a duplicate-free candidate list, and the fine layer
re-retrieves from it with a transient BM25 index over the candidates'
descriptions, queried with the mention's document text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .artifacts import decoding, read_container, write_container
from .bm25 import Bm25Index, Bm25Params
from .corpus import AliasEntry, AliasTable, KnowledgeBase, MentionRecord
from .tokenizer import tokenize

AT_FORMAT_TAG = "lexlink.at-index/2"
KB_FORMAT_TAG = "lexlink.kb-index/2"

# The fine stage queries with at most this many document tokens; mirrors the
# encoder sequence cap.
FINE_QUERY_TOKEN_LIMIT = 128

# Ordered duplicate-free list of entity ids.
CandidateSet = list[str]

_EXPANSION_MODES = ("all", "best")


@dataclass(frozen=True)
class RetrieverConfig:
    k_at: int = 10
    k_kb: int = 10
    k_desc: int = 10
    bm25_params: Bm25Params = field(default_factory=Bm25Params)
    # "all": a hit alias expands to every entity it maps to, prior-descending;
    # "best": only its top-prior entity. Full expansion favors tail entities.
    alias_expansion: str = "all"

    def __post_init__(self):
        for name in ("k_at", "k_kb", "k_desc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.alias_expansion not in _EXPANSION_MODES:
            raise ValueError(f"alias_expansion must be one of {_EXPANSION_MODES}")


@dataclass(frozen=True)
class RetrievalResult:
    cand_at: CandidateSet
    cand_kb: CandidateSet
    cand1: CandidateSet
    cand2: CandidateSet
    top1_at: str | None
    top1_kb: str | None
    top1_desc: str | None


def merge_coarse(cand_at: CandidateSet, cand_kb: CandidateSet) -> CandidateSet:
    """Stable duplicate-free union: alias candidates first, then unseen
    name candidates in their rank order."""
    merged = list(cand_at)
    seen = set(cand_at)
    for entity_id in cand_kb:
        if entity_id not in seen:
            seen.add(entity_id)
            merged.append(entity_id)
    return merged


class Retriever:
    """Immutable two-index retriever; safe for concurrent queries."""

    def __init__(
        self,
        at_index: Bm25Index,
        kb_index: Bm25Index,
        alias_table: AliasTable,
        kb_rows: list[str],
        config: RetrieverConfig,
    ):
        self.at_index = at_index
        self.kb_index = kb_index
        self.alias_table = alias_table
        self.alias_rows = alias_table.entries  # doc index -> AliasEntry
        self.kb_rows = kb_rows  # doc index -> entity id
        self.config = config

    @classmethod
    def build(cls, kb: KnowledgeBase, at: AliasTable, config: RetrieverConfig = RetrieverConfig()) -> "Retriever":
        """One alias document per table entry (not deduplicated), one name
        document per entity, both tokenized with the shared tokenizer."""
        at_index = Bm25Index.build([tokenize(entry.alias) for entry in at.entries], config.bm25_params)
        kb_index = Bm25Index.build([tokenize(entity.name) for entity in kb.entities], config.bm25_params)
        return cls(at_index, kb_index, at, [entity.id for entity in kb.entities], config)

    def retrieve_coarse(self, mention: str) -> tuple[CandidateSet, CandidateSet]:
        query = tokenize(mention)
        if not query:
            return [], []

        kb_hits = self.kb_index.top_k(query, self.config.k_kb) if self.kb_index.doc_count else []
        cand_kb = [self.kb_rows[hit.doc_index] for hit in kb_hits]

        at_hits = self.at_index.top_k(query, self.config.k_at) if self.at_index.doc_count else []
        cand_at: CandidateSet = []
        seen: set[str] = set()
        for hit in at_hits:
            bucket = self.alias_table.entries_for(self.alias_rows[hit.doc_index].alias)
            if self.config.alias_expansion == "best":
                bucket = bucket[:1]
            for entry in bucket:
                if entry.entity_id in seen:
                    continue
                seen.add(entry.entity_id)
                cand_at.append(entry.entity_id)
                if len(cand_at) == self.config.k_at:
                    return cand_at, cand_kb
        return cand_at, cand_kb

    def retrieve_fine(self, kb: KnowledgeBase, doc_text: str, cand1: CandidateSet) -> CandidateSet:
        """Rank ``cand1`` by description relevance to the document text.

        The description corpus changes per mention, so the index is transient;
        rebuilding over a handful of candidates is cheap.
        """
        return self._rank_descriptions(kb, _fine_query(doc_text), cand1) if cand1 else []

    def _rank_descriptions(self, kb: KnowledgeBase, query: list[str], cand1: CandidateSet) -> CandidateSet:
        docs = [tokenize(kb.lookup(entity_id).description) for entity_id in cand1]
        index = Bm25Index.build(docs, self.config.bm25_params)
        hits = index.top_k(query, self.config.k_desc) if query else []
        return [cand1[hit.doc_index] for hit in hits]

    def narrow(
        self,
        kb: KnowledgeBase,
        doc_text: str,
        cand_at: CandidateSet,
        cand_kb: CandidateSet,
        disabled_sets: Sequence[frozenset[str]],
    ) -> list[RetrievalResult]:
        """The rest of the cascade after the coarse stage, once per set of
        disabled stages: drop the coarse lists the set names (``at_bm25``,
        ``kb_bm25``), merge what is left into Cand1 and, unless ``desc_bm25``
        is named, rank Cand1 with the fine stage. The document text is
        tokenized at most once for all sets.
        """
        query: list[str] | None = None
        results = []
        for disabled in disabled_sets:
            kept_at = [] if "at_bm25" in disabled else cand_at
            kept_kb = [] if "kb_bm25" in disabled else cand_kb
            cand1 = merge_coarse(kept_at, kept_kb)
            cand2: CandidateSet = []
            if cand1 and "desc_bm25" not in disabled:
                if query is None:
                    query = _fine_query(doc_text)
                cand2 = self._rank_descriptions(kb, query, cand1)
            results.append(
                RetrievalResult(
                    cand_at=kept_at,
                    cand_kb=kept_kb,
                    cand1=cand1,
                    cand2=cand2,
                    top1_at=kept_at[0] if kept_at else None,
                    top1_kb=kept_kb[0] if kept_kb else None,
                    top1_desc=cand2[0] if cand2 else None,
                )
            )
        return results

    def retrieve(self, kb: KnowledgeBase, mention: MentionRecord, disabled: frozenset[str] = frozenset()) -> RetrievalResult:
        """Full cascade. ``disabled`` may name BM25 stages to leave out
        (``at_bm25``, ``kb_bm25``, ``desc_bm25``), used by ablations."""
        cand_at, cand_kb = self.retrieve_coarse(mention.mention)
        return self.narrow(kb, mention.text, cand_at, cand_kb, [disabled])[0]

    def save(self, at_path, kb_path) -> None:
        """Each index as a container with no arrays: its postings and document
        lengths plus the alias entries or entity ids of its documents."""
        entries = [{"alias": e.alias, "entity_id": e.entity_id, "prior": e.prior} for e in self.alias_rows]
        write_container(at_path, AT_FORMAT_TAG, {"index": self.at_index.to_dict(), "entries": entries}, {})
        write_container(kb_path, KB_FORMAT_TAG, {"index": self.kb_index.to_dict(), "entity_ids": self.kb_rows}, {})

    @classmethod
    def load(cls, at_path, kb_path, config: RetrieverConfig = RetrieverConfig()) -> "Retriever":
        """Both indexes score with ``config.bm25_params``."""
        at_meta, _ = read_container(at_path, AT_FORMAT_TAG)
        kb_meta, _ = read_container(kb_path, KB_FORMAT_TAG)
        # Ids are read as strings: one that is not cannot match the knowledge
        # base, and must not reach the sets and dicts that hold candidates.
        with decoding(at_path):
            at_index = _index_of(at_meta, "entries", config)
            alias_table = AliasTable(
                AliasEntry(alias=str(e["alias"]), entity_id=str(e["entity_id"]), prior=float(e["prior"]))
                for e in at_meta["entries"]
            )
        with decoding(kb_path):
            kb_index = _index_of(kb_meta, "entity_ids", config)
            kb_rows = [str(entity_id) for entity_id in kb_meta["entity_ids"]]
        return cls(at_index, kb_index, alias_table, kb_rows, config)


def _index_of(meta: dict, rows_key: str, config: RetrieverConfig) -> Bm25Index:
    index = Bm25Index.from_dict(meta["index"], config.bm25_params)
    if index.doc_count != len(meta[rows_key]):
        raise ValueError(f"the index has {index.doc_count} documents but {len(meta[rows_key])} {rows_key}")
    return index


def _fine_query(doc_text: str) -> list[str]:
    return tokenize(doc_text)[:FINE_QUERY_TOKEN_LIMIT]
