"""End-to-end linking shared by the CLI and the evaluation harness:
retrieve, rerank Cand1 (the fine stage's Cand2 is a subset of it), vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Dataset, KnowledgeBase, MentionRecord
from .ensemble import Prediction, VoteInput, vote
from .errors import InvalidConfig
from .reranker import DualEncoder, EntityEmbeddingStore, rerank
from .retriever import RetrievalResult, Retriever
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
        result = self.retriever.retrieve(self.kb, m, disabled, doc_tokens=doc_tokens)
        reranked = rerank(self.model, self.store, m, result.cand1, (left, span, right))
        return _decide(m, result, reranked, disabled, doc_tokens)

    def ablate(self, m: MentionRecord) -> list[LinkedMention]:
        """``link(m)`` followed by, for each toggle in ``TOGGLES`` order, what
        ``link(m, {toggle})`` returns, derived from that one link instead of
        linking again.

        Disabling ``ensemble`` or ``desc_bm25`` keeps the reranker pool, which
        is Cand1 either way. Each stage row comes from ``Retriever.retrieve``
        given the full result, which reruns only the fine stage, and only where
        the row's Cand1 differs from the full one, with the link's document
        tokens. The reranker's scores depend only on the mention and the
        entity and it ranks by ``(-score, entity_id)``, so the full ranking
        filtered to a smaller pool is that pool's ranking. A row whose Cand1
        equals the full one shares the link's ranking list.
        """
        lm = self.link(m)
        views = [lm]
        for toggle in TOGGLES:
            disabled = frozenset((toggle,))
            result = (
                lm.retrieval
                if toggle == "ensemble"
                else self.retriever.retrieve(self.kb, m, disabled, full=lm.retrieval, doc_tokens=lm.doc_tokens)
            )
            if result.cand1 == lm.retrieval.cand1:
                reranked = lm.reranked
            else:
                pool = set(result.cand1)
                reranked = [pair for pair in lm.reranked if pair[0] in pool]
            views.append(_decide(m, result, reranked, disabled))
        return views

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
