"""The library calls the benchmark's traced and end-to-end drivers make.

``benchmarks/tests`` is not collected here (``testpaths``), so a change to one
of these names or signatures would otherwise show only in a benchmark run.
Each call is bound, not run, against the current signature, with the
arguments the drivers pass.
"""

import inspect
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from lexlink import reranker
from lexlink.bm25 import Bm25Index
from lexlink.corpus import AliasEntry, Dataset, EntityRecord, MentionRecord
from lexlink.ensemble import Prediction, VoteInput
from lexlink.pipeline import LinkedMention, Pipeline
from lexlink.reranker import (
    DualEncoder,
    EncoderConfig,
    EntityEmbeddingStore,
    TrainConfig,
    build_mention_sequence,
    encode,
    precompute_entity_embeddings,
    score_pair,
    sequence_features,
)
from lexlink.retriever import RetrievalResult, Retriever, merge_coarse
from lexlink.synth import SynthSpec, build_synthetic

SELF = object()
RESULT_FIELDS = ("cand_at", "cand_kb", "cand1", "cand2", "top1_at", "top1_kb", "top1_desc")
VOTE_FIELDS = ("at", "kb", "desc", "reranker")
# The fields the traced driver fills, and ``==`` compares with a plain link's.
LINKED_FIELDS = ("doc_id", "gold_id", "retrieval", "votes", "reranked", "prediction")

# Each callable, with positional and keyword arguments as the drivers pass them.
CALLS = [
    (Pipeline.link, (SELF, "record"), {"disabled": frozenset()}),
    (Retriever.retrieve_coarse, (SELF, "mention"), {}),
    (Retriever.retrieve_fine, (SELF, "kb", "text", ["cand1"]), {}),
    (Retriever.build, ("kb", "aliases"), {}),
    (Retriever.load, ("at_index", "kb_index"), {}),
    (Retriever.save, (SELF, "at_index", "kb_index"), {}),
    (merge_coarse, (["a"], ["b"]), {}),
    (RetrievalResult, (), dict.fromkeys(RESULT_FIELDS)),
    (VoteInput, (), dict.fromkeys(VOTE_FIELDS)),
    (LinkedMention, (), dict.fromkeys(LINKED_FIELDS)),
    (EntityEmbeddingStore.row, (SELF, "entity_id"), {}),
    (build_mention_sequence, ("record", "cfg"), {}),
    (sequence_features, ("seq", "cfg"), {}),
    (encode, ("features", "params", "cfg"), {}),
    (score_pair, ("y_m", "y_e"), {}),
    (reranker.train, ("train_ds", "kb", "retriever", "train_config", "encoder_config"), {}),
    (DualEncoder.initialize, ("cfg",), {}),
    (DualEncoder.save, (SELF, "path"), {}),
    (DualEncoder.load, ("path",), {}),
    (EntityEmbeddingStore.load, ("path", "kb"), {}),
    (precompute_entity_embeddings, ("model", "kb"), {}),
    # The shared-names world's records (``benchmarks/workloads.py``).
    (EntityRecord, (), {"id": "S0", "name": "name", "description": "desc"}),
    (AliasEntry, (), {"alias": "name", "entity_id": "S0", "prior": 1.0}),
]


def test_the_calls_the_benchmark_drivers_make_still_bind():
    for fn, args, kwargs in CALLS:
        inspect.signature(fn).bind(*args, **kwargs)
    # The traced driver wraps ``build`` and the steps ``train`` looks up, and reads ``postings``.
    assert isinstance(Bm25Index.__dict__["build"], classmethod)
    assert isinstance(Bm25Index.build([["a"], ["a", "b"]]).postings, dict)
    assert {"build_training_examples", "batch_loss_and_grads", "dataset_loss"} <= set(reranker.train.__code__.co_names)
    assert tuple(f.name for f in fields(LinkedMention) if f.compare) == LINKED_FIELDS
    # The long-document world extends each mention's text with ``dataclasses.replace``.
    record = MentionRecord(doc_id="d", text="a b", span_start=0, span_end=1, mention="a")
    assert is_dataclass(MentionRecord) and replace(record, text="a b c").text == "a b c"


def test_trained_and_initialized_models_read_as_whole_tables():
    """The traced driver counts the rows training changed by comparing the
    embedding tables of a trained and an initialized model, and fingerprints
    a model by all six of its arrays; each is read as a whole array."""
    kb, at, ds = build_synthetic(SynthSpec(seed=3, n_entities=20, n_aliases=25, n_mentions=30))
    cfg = EncoderConfig(dim=8, hash_buckets=256, max_len=32, seed=1)
    trained, _ = reranker.train(Dataset(ds.records, split="train"), kb, Retriever.build(kb, at), TrainConfig(), cfg)
    initial = DualEncoder.initialize(trained.cfg)
    pairs = ((trained.mention_params, initial.mention_params), (trained.entity_params, initial.entity_params))
    for params in (param for pair in pairs for param in pair):
        assert isinstance(params.embedding, np.ndarray) and params.embedding.shape == (cfg.hash_buckets, cfg.dim)
        assert params.projection.shape == (cfg.dim, cfg.dim) and params.bias.shape == (cfg.dim,)
    for after, before in pairs:
        assert 0 < np.any(after.embedding != before.embedding, axis=1).sum() < cfg.hash_buckets


@pytest.mark.parametrize(
    "kind,values",
    [
        (VoteInput, {"at": "Q1", "kb": "Q1", "desc": None, "reranker": "Q2"}),
        (Prediction, {"entity_id": "Q1", "decided_by": "majority"}),
        (RetrievalResult, {"cand_at": ["Q1"], "cand_kb": ["Q2"], "cand1": ["Q1", "Q2"], "cand2": ["Q2"],
                           "top1_at": "Q1", "top1_kb": "Q2", "top1_desc": "Q2"}),
        (EntityRecord, {"id": "Q1", "name": "Apple", "description": "a fruit"}),
        (AliasEntry, {"alias": "apple", "entity_id": "Q1", "prior": 0.5}),
    ],
    ids=["VoteInput", "Prediction", "RetrievalResult", "EntityRecord", "AliasEntry"],
)
def test_the_result_and_vote_types_are_immutable_tuples_bound_by_keyword(kind, values):
    value = kind(**values)
    assert value == kind(*values.values()) == tuple(values.values())
    assert {name: getattr(value, name) for name in values} == values
    assert repr(value) == f"{kind.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    for name in (*values, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
