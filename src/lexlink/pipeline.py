"""End-to-end linking shared by the CLI and the evaluation harness:
retrieve, rerank Cand1 (the fine stage's Cand2 is a subset of it), vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Dataset, KnowledgeBase, MentionRecord
from .ensemble import Prediction, VoteInput, vote
from .errors import InvalidConfig
from .reranker import DualEncoder, EntityEmbeddingStore, rerank
from .retriever import RetrievalResult, Retriever, merge_coarse
from .tokenizer import TokenStream, tokenize_around

# Pipeline pieces that ablations may disable.
TOGGLES = ("ensemble", "at_bm25", "kb_bm25", "desc_bm25")
_KNOWN_TOGGLES = frozenset(TOGGLES)

# decided_by label used when the ensemble is disabled and the reranker's
# top-1 is taken directly.
RERANKER_ONLY = "reranker_only"

_NO_VOTES = VoteInput()


def check_toggles(toggles) -> None:
    """Raise ``InvalidConfig`` naming any toggle outside ``TOGGLES``."""
    if not _KNOWN_TOGGLES.issuperset(toggles):
        unknown = sorted(set(toggles).difference(TOGGLES))
        raise InvalidConfig(f"unknown toggles: {unknown}; valid: {list(TOGGLES)}")


@dataclass
class LinkedMention:
    doc_id: str
    gold_id: str | None
    retrieval: RetrievalResult
    votes: VoteInput
    reranked: list[tuple[str, float]]
    prediction: Prediction | None  # None when no stage produced a hypothesis
    # The document's tokens, when the link tokenized it: ablation rows that
    # rerun the fine stage query with them. Not part of the result.
    doc_tokens: TokenStream | None = field(default=None, compare=False, repr=False)


@dataclass
class Pipeline:
    kb: KnowledgeBase
    retriever: Retriever
    model: DualEncoder
    store: EntityEmbeddingStore

    def link(self, m: MentionRecord, disabled: frozenset[str] = frozenset()) -> LinkedMention:
        check_toggles(disabled)
        # One tokenization of the document serves the fine query and the
        # mention sequence.
        left, span, right, doc_tokens = tokenize_around(m.text, m.span_start, m.span_end)
        result = self.retriever.retrieve(self.kb, m, doc_tokens)
        if disabled:
            result = self._without(m, result, disabled, doc_tokens)
        reranked = rerank(self.model, self.store, m, result.cand1, (left, span, right))
        return _decide(m, result, reranked, disabled, doc_tokens)

    def ablate(self, m: MentionRecord) -> list[LinkedMention]:
        """``link(m)`` followed by, for each toggle in ``TOGGLES`` order, what
        ``link(m, {toggle})`` returns, derived from that one link instead of
        linking again.

        The ``ensemble`` row keeps the link's retrieval, and each stage row is
        ``_without`` over it, as in a toggled ``link``: only the fine stage
        reruns, and only where the row's Cand1 differs from the full one.
        Disabling ``ensemble`` or ``desc_bm25`` keeps the reranker pool, which
        is Cand1 either way. The reranker's scores depend only on the mention
        and the entity and it ranks by ``(-score, entity_id)``, so the full
        ranking filtered to a smaller pool is that pool's ranking. A row whose
        Cand1 equals the full one shares the link's ranking list.
        """
        lm = self.link(m)
        views = [lm]
        for toggle in TOGGLES:
            disabled = frozenset((toggle,))
            result = lm.retrieval if toggle == "ensemble" else self._without(m, lm.retrieval, disabled, lm.doc_tokens)
            if result.cand1 == lm.retrieval.cand1:
                reranked = lm.reranked
            else:
                pool = set(result.cand1)
                reranked = [pair for pair in lm.reranked if pair[0] in pool]
            views.append(_decide(m, result, reranked, disabled))
        return views

    def _without(
        self, m: MentionRecord, full: RetrievalResult, disabled: frozenset[str], doc_tokens: TokenStream | None
    ) -> RetrievalResult:
        """``full``, the cascade's result for ``m``, with the BM25 stages in
        ``disabled`` left out: their lists emptied and the coarse lists merged
        again. A Cand1 equal to the full one keeps its Cand2; another is ranked
        again by the fine stage alone, with the link's document tokens."""
        cand_at = [] if "at_bm25" in disabled else full.cand_at
        cand_kb = [] if "kb_bm25" in disabled else full.cand_kb
        cand1 = merge_coarse(cand_at, cand_kb)
        if "desc_bm25" in disabled:
            cand2 = []
        elif cand1 == full.cand1:
            cand2 = full.cand2
        else:
            cand2 = self.retriever.retrieve_fine(self.kb, m.text, cand1, doc_tokens)
        return RetrievalResult.of(cand_at, cand_kb, cand1, cand2)

    def link_dataset(self, ds: Dataset) -> list[LinkedMention]:
        return [self.link(record) for record in ds.records]


def _decide(
    m: MentionRecord,
    result: RetrievalResult,
    reranked: list[tuple[str, float]],
    disabled: frozenset[str],
    doc_tokens: TokenStream | None = None,
) -> LinkedMention:
    """Vote over the stage heads, or take the reranker's top-1 directly when
    ``ensemble`` is disabled."""
    top_reranked = reranked[0][0] if reranked else None
    votes = VoteInput(result.top1_at, result.top1_kb, result.top1_desc, top_reranked)
    if "ensemble" in disabled:
        prediction = Prediction(top_reranked, RERANKER_ONLY) if top_reranked is not None else None
    elif votes == _NO_VOTES:
        prediction = None
    else:
        prediction = vote(votes)
    return LinkedMention(m.doc_id, m.gold_id, result, votes, reranked, prediction, doc_tokens)
