"""The library calls the benchmark's traced and end-to-end drivers make.

``benchmarks/tests`` is not collected here (``testpaths``), so a change to one
of these names or signatures would otherwise show only in a benchmark run.
Each call is bound, not run, against the current signature, with the
arguments the drivers pass.
"""

import inspect
from dataclasses import fields

from lexlink import reranker
from lexlink.bm25 import Bm25Index
from lexlink.pipeline import LinkedMention, Pipeline
from lexlink.reranker import EntityEmbeddingStore, build_mention_sequence, encode, score_pair, sequence_features
from lexlink.retriever import RetrievalResult, Retriever, merge_coarse

SELF = object()
RESULT_FIELDS = ("cand_at", "cand_kb", "cand1", "cand2", "top1_at", "top1_kb", "top1_desc")
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
    (LinkedMention, (), dict.fromkeys(LINKED_FIELDS)),
    (EntityEmbeddingStore.row, (SELF, "entity_id"), {}),
    (build_mention_sequence, ("record", "cfg"), {}),
    (sequence_features, ("seq", "cfg"), {}),
    (encode, ("features", "params", "cfg"), {}),
    (score_pair, ("y_m", "y_e"), {}),
]


def test_the_calls_the_benchmark_drivers_make_still_bind():
    for fn, args, kwargs in CALLS:
        inspect.signature(fn).bind(*args, **kwargs)
    # The traced driver wraps ``build`` and the steps ``train`` looks up, and reads ``postings``.
    assert isinstance(Bm25Index.__dict__["build"], classmethod)
    assert isinstance(Bm25Index.build([["a"], ["a", "b"]]).postings, dict)
    assert {"build_training_examples", "batch_loss_and_grads", "dataset_loss"} <= set(reranker.train.__code__.co_names)
    assert tuple(f.name for f in fields(LinkedMention) if f.compare) == LINKED_FIELDS
