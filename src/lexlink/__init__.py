"""Coarse-to-fine lexical entity linking.

A two-layer BM25 cascade (alias table + entity names, then candidate
descriptions) proposes candidates, a dual encoder reranks them, and a
four-way vote combines the stage predictions.
"""

from .bm25 import Bm25Index, Bm25Params, ScoredDoc
from .corpus import (
    AliasEntry,
    AliasTable,
    Dataset,
    EntityRecord,
    KnowledgeBase,
    MentionRecord,
    load_alias_table,
    load_knowledge_base,
    load_mentions,
)
from .ensemble import Prediction, VoteInput, vote
from .evaluation import (
    AccuracyReport,
    RecallReport,
    accuracy,
    recall_at_k,
    recall_report,
    run_ablation,
)
from .pipeline import LinkedMention, Pipeline
from .reranker import (
    DualEncoder,
    EncoderConfig,
    EntityEmbeddingStore,
    MarkedSequence,
    TrainConfig,
    TrainStats,
    build_entity_sequence,
    build_mention_sequence,
    encode,
    precompute_entity_embeddings,
    rerank,
    score_pair,
    train,
)
from .retriever import (
    RetrievalResult,
    Retriever,
    RetrieverConfig,
    merge_coarse,
)
from .synth import SynthSpec, build_synthetic, generate_synthetic
from .tokenizer import tokenize

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AliasEntry",
    "AliasTable",
    "Bm25Index",
    "Bm25Params",
    "Dataset",
    "DualEncoder",
    "EncoderConfig",
    "EntityEmbeddingStore",
    "EntityRecord",
    "KnowledgeBase",
    "LinkedMention",
    "MarkedSequence",
    "MentionRecord",
    "Pipeline",
    "Prediction",
    "RecallReport",
    "RetrievalResult",
    "Retriever",
    "RetrieverConfig",
    "ScoredDoc",
    "SynthSpec",
    "TrainConfig",
    "TrainStats",
    "VoteInput",
    "accuracy",
    "build_entity_sequence",
    "build_mention_sequence",
    "build_synthetic",
    "encode",
    "generate_synthetic",
    "load_alias_table",
    "load_knowledge_base",
    "load_mentions",
    "merge_coarse",
    "precompute_entity_embeddings",
    "recall_at_k",
    "recall_report",
    "rerank",
    "run_ablation",
    "score_pair",
    "tokenize",
    "train",
    "vote",
]
