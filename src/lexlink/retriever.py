"""Coarse-to-fine candidate retrieval.

The coarse layer runs two BM25 models over the mention string: one across
alias-table surface forms, one across knowledge-base entity names. The
survivors are merged into a duplicate-free candidate list, and the fine layer
re-retrieves from it by ranking the candidates' descriptions with BM25 for the
mention's document text. ``Retriever.retrieve`` is the one place the two layers
are chained, always all of them: leaving a stage out, as an ablation does, is
done by ``Pipeline`` on the lists it returns. A caller that has already
tokenized the document (``Pipeline.link`` does, once per link, for the fine
query and the reranker's mention sequence alike) passes the tokens in.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .artifacts import decoding, read_container, write_container
from .bm25 import Bm25Index, Bm25Params, TermCounts, rank_term_counts
from .corpus import AliasEntry, AliasTable, KnowledgeBase, MentionRecord, alias_prior
from .errors import DataError, InvalidConfig, config_integer
from .tokenizer import TokenStream, tokenize

AT_FORMAT_TAG = "lexlink.at-index/3"
KB_FORMAT_TAG = "lexlink.kb-index/3"

# The fine stage queries with at most this many document tokens. It equals the
# encoder's default sequence cap and does not follow ``EncoderConfig.max_len``.
FINE_QUERY_TOKEN_LIMIT = 128

# Entries of the description -> term counts memo; each takes ≈90 bytes per
# distinct term plus ≈0.15 KB.
DESCRIPTION_COUNTS_MEMO_SIZE = 2**12

# Ordered duplicate-free list of entity ids.
CandidateSet = list[str]


@dataclass(frozen=True)
class RetrieverConfig:
    k_at: int = 10
    k_kb: int = 10
    k_desc: int = 10
    bm25_params: Bm25Params = field(default_factory=Bm25Params)

    def __post_init__(self):
        # A k beyond sys.maxsize cannot bound a list slice or islice.
        for name in ("k_at", "k_kb", "k_desc"):
            object.__setattr__(self, name, config_integer(name, getattr(self, name)))
            if not 1 <= getattr(self, name) <= sys.maxsize:
                raise InvalidConfig(f"{name} must be in [1, {sys.maxsize}]")


class RetrievalResult(NamedTuple):
    cand_at: CandidateSet
    cand_kb: CandidateSet
    cand1: CandidateSet
    cand2: CandidateSet
    top1_at: str | None
    top1_kb: str | None
    top1_desc: str | None

    @classmethod
    def of(
        cls, cand_at: CandidateSet, cand_kb: CandidateSet, cand1: CandidateSet, cand2: CandidateSet
    ) -> RetrievalResult:
        """The result holding these lists; each stage's top-1 is its list's head."""
        heads = (cands[0] if cands else None for cands in (cand_at, cand_kb, cand2))
        return cls(cand_at, cand_kb, cand1, cand2, *heads)


def merge_coarse(cand_at: CandidateSet, cand_kb: CandidateSet) -> CandidateSet:
    """Stable duplicate-free union: alias candidates first, then unseen
    name candidates in their rank order."""
    return list(dict.fromkeys([*cand_at, *cand_kb]))


class Retriever:
    """Immutable two-index retriever; safe for concurrent queries. ``build``
    and ``load`` both pass rows to the constructor, which builds the indexes."""

    def __init__(self, alias_table: AliasTable, kb_rows: list[tuple[str, str]], config: RetrieverConfig):
        """One alias document per table entry (not deduplicated), one name
        document per ``(entity id, name)`` row, both tokenized with the shared
        tokenizer. Each distinct string among the aliases and names is
        tokenized once, and its documents in both indexes share that token
        list. Every alias must map to an entity of ``kb_rows``."""
        known = {entity_id for entity_id, _ in kb_rows}
        misses = list(dict.fromkeys(entry.entity_id for entry in alias_table.entries if entry.entity_id not in known))
        if misses:
            raise DataError(f"alias table references unknown entities: {misses[:10]}")
        aliases = [entry.alias for entry in alias_table.entries]
        names = [name for _, name in kb_rows]
        tokens = {text: tokenize(text) for text in {*aliases, *names}}
        self.at_index = Bm25Index.build([tokens[alias] for alias in aliases], config.bm25_params)
        self.kb_index = Bm25Index.build([tokens[name] for name in names], config.bm25_params)
        self.alias_table = alias_table  # entries: doc index -> AliasEntry
        self.kb_rows = kb_rows  # doc index -> (entity id, name)
        self.config = config

    @classmethod
    def build(cls, kb: KnowledgeBase, at: AliasTable, config: RetrieverConfig = RetrieverConfig()) -> "Retriever":
        return cls(at, [(entity.id, entity.name) for entity in kb.entities], config)

    def retrieve_coarse(self, mention: str) -> tuple[CandidateSet, CandidateSet]:
        """The KB-BM25 and AT-BM25 candidates, each at most ``k_kb`` / ``k_at``
        long. Each alias hit expands to every entity its alias maps to,
        prior-descending; the first ``k_at`` distinct ones are kept."""
        query = tokenize(mention)
        if not query:
            return [], []

        kb_hits = self.kb_index.top_k(query, self.config.k_kb)
        cand_kb = [self.kb_rows[hit.doc_index][0] for hit in kb_hits]

        at_hits = self.at_index.top_k(query, self.config.k_at)
        entries, by_alias = self.alias_table.entries, self.alias_table.by_alias
        expanded = (entries[p].entity_id for hit in at_hits for p in by_alias[entries[hit.doc_index].alias])
        cand_at = list(islice(dict.fromkeys(expanded), self.config.k_at))
        return cand_at, cand_kb

    def retrieve_fine(
        self,
        kb: KnowledgeBase,
        doc_text: str,
        cand1: CandidateSet,
        doc_tokens: TokenStream | None = None,
    ) -> CandidateSet:
        """Rank ``cand1`` by description relevance to the document text, queried
        with its first ``FINE_QUERY_TOKEN_LIMIT`` tokens. ``doc_tokens``, when
        given, is ``tokenize(doc_text)`` computed by the caller.

        The description corpus changes per mention, so no index is built:
        ``rank_term_counts`` scores the candidates' memoized description term
        counts directly, as an index over them would.
        """
        if not cand1:
            return []
        query = (tokenize(doc_text) if doc_tokens is None else doc_tokens)[:FINE_QUERY_TOKEN_LIMIT]
        docs = [_description_counts(kb.lookup(entity_id).description) for entity_id in cand1]
        hits = rank_term_counts(docs, query, self.config.k_desc, self.config.bm25_params)
        return [cand1[hit.doc_index] for hit in hits]

    def retrieve(
        self, kb: KnowledgeBase, mention: MentionRecord, doc_tokens: TokenStream | None = None
    ) -> RetrievalResult:
        """The cascade: the coarse lists, Cand1 as their merge, and Cand2 as
        Cand1 ranked by the fine stage. ``doc_tokens``, when given, is the
        document's tokens, passed on to ``retrieve_fine``."""
        cand_at, cand_kb = self.retrieve_coarse(mention.mention)
        cand1 = merge_coarse(cand_at, cand_kb)
        return RetrievalResult.of(cand_at, cand_kb, cand1, self.retrieve_fine(kb, mention.text, cand1, doc_tokens))

    def save(self, at_path, kb_path) -> None:
        """Each index as a container with no arrays holding the rows it is
        built from: the alias entries, and the ``(entity id, name)`` rows."""
        entries = [{"alias": e.alias, "entity_id": e.entity_id, "prior": e.prior} for e in self.alias_table.entries]
        write_container(at_path, AT_FORMAT_TAG, {"entries": entries}, {})
        write_container(kb_path, KB_FORMAT_TAG, {"entities": self.kb_rows}, {})

    @classmethod
    def load(cls, at_path, kb_path, config: RetrieverConfig = RetrieverConfig()) -> "Retriever":
        """``build`` over the stored rows; both indexes score with
        ``config.bm25_params``."""
        at_meta, _ = read_container(at_path, AT_FORMAT_TAG, rerun="build-index")
        kb_meta, _ = read_container(kb_path, KB_FORMAT_TAG, rerun="build-index")
        # Ids and names are read as strings: another type cannot match the
        # knowledge base, and must not reach the sets that hold candidates.
        with decoding(at_path):
            alias_table = AliasTable(
                AliasEntry(alias=str(e["alias"]), entity_id=str(e["entity_id"]), prior=alias_prior(e["prior"]))
                for e in at_meta["entries"]
            )
        with decoding(kb_path):
            kb_rows = [(str(entity_id), str(name)) for entity_id, name in kb_meta["entities"]]
        # Both files decode, yet an alias entry may name an entity absent from the other.
        try:
            return cls(alias_table, kb_rows, config)
        except DataError as exc:
            raise DataError(f"{at_path} does not match {kb_path}: {exc}; rerun build-index") from None


@functools.lru_cache(maxsize=DESCRIPTION_COUNTS_MEMO_SIZE)
def _description_counts(description: str) -> TermCounts:
    """A description's term counts, memoized by its text: an edited description
    is a new key, so it never reads the counts of the old one."""
    return TermCounts.of(tokenize(description))
