"""Four-way vote over the stage top-1 predictions.

The voters are the alias-table retriever, the name retriever, the
description retriever, and the reranker. Absent votes (a stage that returned
nothing) are dropped from the multiset rather than treated as a value, since
absence carries no entity hypothesis.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NoVotes


class VoteInput(NamedTuple):
    at: str | None = None
    kb: str | None = None
    desc: str | None = None
    reranker: str | None = None


class Prediction(NamedTuple):
    entity_id: str
    decided_by: str  # majority | pair_with_reranker | reranker_fallback | only_available


def vote(v: VoteInput) -> Prediction:
    """Resolve the four votes.

    1. A value with strictly greater multiplicity than every other, at least
       2, wins (covers 4:0, 3:1, 2:1, 2:1:1).
    2. A 2:2 split goes to the side containing the reranker's vote.
    3. All-distinct votes fall back to the reranker, or to the first present
       retriever vote (at, kb, desc) when the reranker abstained.

    >>> vote(VoteInput(at="Q1", kb="Q1", desc="Q2", reranker="Q3"))
    Prediction(entity_id='Q1', decided_by='majority')
    >>> vote(VoteInput(at="Q1", kb="Q2", desc="Q2", reranker="Q1"))
    Prediction(entity_id='Q1', decided_by='pair_with_reranker')
    >>> vote(VoteInput(at="Q1", kb="Q2", desc="Q3", reranker="Q4"))
    Prediction(entity_id='Q4', decided_by='reranker_fallback')
    >>> vote(VoteInput(kb="Q2", desc="Q3"))
    Prediction(entity_id='Q2', decided_by='only_available')
    """
    counts: dict[str, int] = {}
    top_count = 0
    for value in v:
        if value is not None:
            count = counts[value] = counts.get(value, 0) + 1
            if count > top_count:
                top_value, top_count = value, count
    if not counts:
        raise NoVotes("all four votes are absent")
    if top_count == 2 and len(counts) == 2 and None not in v:
        # All four voted, two for each value; the reranker is on one side.
        return Prediction(v.reranker, "pair_with_reranker")
    if top_count >= 2:
        return Prediction(top_value, "majority")
    if v.reranker is not None:
        return Prediction(v.reranker, "reranker_fallback")
    return Prediction(next(value for value in v if value is not None), "only_available")
