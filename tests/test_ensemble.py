import itertools
from collections import Counter

import pytest

import oracles
from lexlink.ensemble import Prediction, VoteInput, vote
from lexlink.errors import NoVotes


def reference_winner(at, kb, desc, reranker):
    """Independent restatement of the voting rules for the exhaustive check."""
    present = [v for v in (at, kb, desc, reranker) if v is not None]
    if not present:
        return None
    counts = sorted(Counter(present).items(), key=lambda item: -item[1])
    if counts[0][1] >= 2 and (len(counts) == 1 or counts[1][1] < counts[0][1]):
        return counts[0][0], "majority"
    if counts[0][1] == 2 and counts[1][1] == 2:
        return reranker, "pair_with_reranker"
    if reranker is not None:
        return reranker, "reranker_fallback"
    first = next(v for v in (at, kb, desc) if v is not None)
    return first, "only_available"


# -- worked cases ------------------------------------------------------------


def test_majority_two_or_more_identical():
    assert vote(VoteInput(at="A", kb="A", desc="B", reranker="C")) == Prediction("A", "majority")


def test_all_distinct_falls_back_to_reranker():
    assert vote(VoteInput(at="A", kb="B", desc="C", reranker="D")) == Prediction("D", "reranker_fallback")


def test_two_two_split_goes_with_reranker_side():
    assert vote(VoteInput(at="A", kb="A", desc="B", reranker="B")) == Prediction("B", "pair_with_reranker")
    assert vote(VoteInput(at="B", kb="A", desc="A", reranker="B")) == Prediction("B", "pair_with_reranker")


def test_unanimity():
    assert vote(VoteInput(at="A", kb="A", desc="A", reranker="A")) == Prediction("A", "majority")


def test_single_present_vote():
    assert vote(VoteInput(reranker="B")) == Prediction("B", "reranker_fallback")
    assert vote(VoteInput(kb="B")) == Prediction("B", "only_available")


def test_three_present_with_two_one_split_is_majority():
    assert vote(VoteInput(at="A", kb="A", desc="B")) == Prediction("A", "majority")


def test_two_present_split_without_reranker_takes_first_stage():
    assert vote(VoteInput(at="A", desc="B")) == Prediction("A", "only_available")


def test_no_votes_raises():
    with pytest.raises(NoVotes):
        vote(VoteInput())


# -- exhaustive and structural properties -------------------------------------


SYMBOLS = (None, "A", "B", "C", "D")


def test_exhaustive_over_all_625_inputs():
    checked = 0
    for at, kb, desc, reranker in itertools.product(SYMBOLS, repeat=4):
        expected = reference_winner(at, kb, desc, reranker)
        v = VoteInput(at=at, kb=kb, desc=desc, reranker=reranker)
        if expected is None:
            with pytest.raises(NoVotes):
                vote(v)
            continue
        prediction = vote(v)
        assert (prediction.entity_id, prediction.decided_by) == expected, v
        checked += 1
    assert checked == 5**4 - 1


def test_vote_equals_the_counter_vote_on_all_625_inputs():
    for values in itertools.product(SYMBOLS, repeat=4):
        v = VoteInput(*values)
        if values == (None,) * 4:
            with pytest.raises(NoVotes):
                vote(v)
            continue
        prediction, expected = vote(v), oracles.vote(v)
        assert type(prediction) is Prediction
        assert (prediction.entity_id, prediction.decided_by) == (expected.entity_id, expected.decided_by), v


def test_decided_by_matches_multiset_shape():
    for at, kb, desc, reranker in itertools.product(SYMBOLS, repeat=4):
        present = [v for v in (at, kb, desc, reranker) if v is not None]
        if not present:
            continue
        prediction = vote(VoteInput(at=at, kb=kb, desc=desc, reranker=reranker))
        counts = Counter(present)
        top = counts.most_common()
        if prediction.decided_by == "majority":
            assert counts[prediction.entity_id] >= 2
            others = [c for v, c in counts.items() if v != prediction.entity_id]
            assert all(c < counts[prediction.entity_id] for c in others)
        elif prediction.decided_by == "pair_with_reranker":
            assert sorted(c for _, c in top) == [2, 2]
            assert prediction.entity_id == reranker
        elif prediction.decided_by == "reranker_fallback":
            assert len(set(present)) == len(present)
            assert prediction.entity_id == reranker
        else:  # only_available
            assert reranker is None
            assert len(set(present)) == len(present)
            assert prediction.entity_id == next(v for v in (at, kb, desc) if v is not None)


def test_permuting_retriever_votes_preserves_winner():
    for at, kb, desc, reranker in itertools.product(SYMBOLS, repeat=4):
        present = [v for v in (at, kb, desc, reranker) if v is not None]
        if not present:
            continue
        distinct = len(set(present)) == len(present)
        if distinct and reranker is None and len(set(present)) > 1:
            # only_available picks by stage position; the winner may move.
            continue
        base = vote(VoteInput(at=at, kb=kb, desc=desc, reranker=reranker)).entity_id
        for p_at, p_kb, p_desc in itertools.permutations((at, kb, desc)):
            permuted = vote(VoteInput(at=p_at, kb=p_kb, desc=p_desc, reranker=reranker)).entity_id
            assert permuted == base


def test_two_two_always_equals_reranker_vote():
    for at, kb, desc, reranker in itertools.product("ABCD", repeat=4):
        counts = Counter((at, kb, desc, reranker))
        if sorted(counts.values()) == [2, 2]:
            assert vote(VoteInput(at=at, kb=kb, desc=desc, reranker=reranker)).entity_id == reranker


def test_unanimity_over_present_votes():
    for mask in itertools.product((False, True), repeat=4):
        if not any(mask):
            continue
        values = tuple("X" if m else None for m in mask)
        assert vote(VoteInput(*values)).entity_id == "X"
