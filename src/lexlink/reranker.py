"""Dual-encoder reranker with a precomputed entity-embedding store.

Two structurally identical encoders that share no parameters: the mention
encoder reads the document with boundary markers around the mention span, the
entity encoder reads the entity name and description joined by a separator
marker. Each encoder hashes character n-grams of its tokens into an embedding
table, mean-pools over the sequence, and applies an affine projection; a
mention-entity pair is scored by the dot product of the two outputs.

Mean pooling alone is a bag and would make the span markers inert, so tokens
between the markers additionally contribute span-tagged copies of their
n-grams. The plain grams keep the lexical-overlap signal with entity names;
the tagged grams make the marked span positionally meaningful.

Training minimizes softmax cross-entropy over the gold entity against
retrieval-driven negatives, with plain mini-batch gradient descent and
hand-written backpropagation. Everything is seeded and float64, so identical
configurations reproduce bitwise-identical parameters.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .artifacts import decoding, read_container, write_container
from .corpus import Dataset, EntityRecord, KnowledgeBase, MentionRecord
from .errors import (
    DimensionMismatch,
    EmptyKb,
    MentionTooLong,
    MissingGold,
    NameTooLong,
    StaleStore,
    UnknownCandidate,
)
from .retriever import CandidateSet, Retriever, merge_coarse
from .tokenizer import tokenize

MODEL_FORMAT_TAG = "lexlink.dual-encoder/1"
STORE_FORMAT_TAG = "lexlink.entity-store/1"

# Reserved marker tokens. Real tokens are lowercase alphanumeric runs or CJK
# characters, so the brackets guarantee no collision.
MENTION_START = "[M_START]"
MENTION_END = "[M_END]"
NAME_DESC_SEP = "[NAME_DESC]"
_MARKERS = frozenset((MENTION_START, MENTION_END, NAME_DESC_SEP))

# Prefix for the span-tagged copies of in-span n-grams; cannot collide with
# plain grams (no brackets in tokenizer output) or marker features.
_IN_SPAN_PREFIX = "[IN]"


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 64
    hash_buckets: int = 2**16
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    max_len: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.hash_buckets < 1:
            raise ValueError("hash_buckets must be >= 1")
        if self.max_len < 8:
            raise ValueError("max_len must be >= 8")
        if not self.ngram_orders or any(n < 1 for n in self.ngram_orders):
            raise ValueError("ngram_orders must be non-empty positive integers")
        object.__setattr__(self, "ngram_orders", tuple(self.ngram_orders))


@dataclass(frozen=True)
class MarkedSequence:
    tokens: tuple[str, ...]
    role: str  # "mention" | "entity"


def build_mention_sequence(m: MentionRecord, cfg: EncoderConfig) -> MarkedSequence:
    """Marker-annotated context window around the mention span.

    Truncation keeps the marker span intact and drops outermost context
    tokens from whichever side currently has more, left first on ties, so the
    mention stays as centered as the budget allows.
    """
    left = tokenize(m.text[: m.span_start])
    span = tokenize(m.text[m.span_start : m.span_end])
    right = tokenize(m.text[m.span_end :])
    core_len = len(span) + 2
    if core_len > cfg.max_len:
        raise MentionTooLong(
            f"doc {m.doc_id!r}: mention spans {len(span)} tokens; limit is {cfg.max_len - 2}"
        )
    budget = cfg.max_len - core_len
    keep_left, keep_right = len(left), len(right)
    while keep_left + keep_right > budget:
        if keep_left >= keep_right:
            keep_left -= 1
        else:
            keep_right -= 1
    tokens = (
        *left[len(left) - keep_left :],
        MENTION_START,
        *span,
        MENTION_END,
        *right[:keep_right],
    )
    return MarkedSequence(tokens=tokens, role="mention")


def build_entity_sequence(e: EntityRecord, cfg: EncoderConfig) -> MarkedSequence:
    """Name, separator marker, then as much description as fits."""
    name = tokenize(e.name)
    if len(name) + 1 > cfg.max_len:
        raise NameTooLong(f"entity {e.id!r}: name spans {len(name)} tokens; limit is {cfg.max_len - 1}")
    desc = tokenize(e.description)[: cfg.max_len - len(name) - 1]
    return MarkedSequence(tokens=(*name, NAME_DESC_SEP, *desc), role="entity")


def _token_features(token: str, orders: tuple[int, ...], in_span: bool) -> list[str]:
    if token in _MARKERS:
        return [token]
    grams = [token[i : i + n] for n in orders for i in range(len(token) - n + 1)]
    return [f for gram in grams for f in (gram, _IN_SPAN_PREFIX + gram)] if in_span else grams


@dataclass(frozen=True)
class SequenceFeatures:
    """Hashed feature counts of one sequence: the sparse encoder input."""

    buckets: np.ndarray  # unique bucket ids, int64
    counts: np.ndarray  # multiplicity per bucket, float64
    token_count: int


def sequence_features(seq: MarkedSequence, cfg: EncoderConfig) -> SequenceFeatures:
    # Each distinct (token, in-span) pair is featurized once and weighted by
    # its multiplicity; buckets keep their order of first occurrence. Plain
    # dicts, because Counter's item access is slower.
    pairs: dict[tuple[str, bool], int] = {}
    in_span = False
    for token in seq.tokens:
        if token == MENTION_END:
            in_span = False
        pair = (token, in_span)
        pairs[pair] = pairs.get(pair, 0) + 1
        if token == MENTION_START:
            in_span = True
    counter: dict[int, int] = {}
    for (token, tagged), multiplicity in pairs.items():
        for feature in _token_features(token, cfg.ngram_orders, tagged):
            bucket = zlib.crc32(feature.encode()) % cfg.hash_buckets
            counter[bucket] = counter.get(bucket, 0) + multiplicity
    buckets = np.fromiter(counter.keys(), dtype=np.int64, count=len(counter))
    counts = np.fromiter(counter.values(), dtype=np.float64, count=len(counter))
    return SequenceFeatures(buckets=buckets, counts=counts, token_count=max(len(seq.tokens), 1))


@dataclass
class EncoderParams:
    embedding: np.ndarray  # (hash_buckets, dim)
    projection: np.ndarray  # (dim, dim)
    bias: np.ndarray  # (dim,)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embedding.copy(), self.projection.copy(), self.bias.copy())


def _init_params(cfg: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    # Embedding rows uniform in [-1/sqrt(dim), 1/sqrt(dim)]; projection starts
    # near the identity so early scores reflect raw feature overlap.
    bound = 1.0 / math.sqrt(cfg.dim)
    embedding = rng.uniform(-bound, bound, size=(cfg.hash_buckets, cfg.dim))
    projection = np.eye(cfg.dim) + 1e-2 * rng.standard_normal((cfg.dim, cfg.dim))
    bias = np.zeros(cfg.dim)
    return EncoderParams(embedding=embedding, projection=projection, bias=bias)


def _pool(feats: SequenceFeatures, params: EncoderParams) -> np.ndarray:
    if feats.buckets.size == 0:
        return np.zeros(params.embedding.shape[1])
    weighted = params.embedding[feats.buckets] * feats.counts[:, None]
    return weighted.sum(axis=0) / feats.token_count


def encode(seq: MarkedSequence | SequenceFeatures, params: EncoderParams, cfg: EncoderConfig) -> np.ndarray:
    """Mean-pooled hashed n-gram embedding followed by the affine projection."""
    feats = seq if isinstance(seq, SequenceFeatures) else sequence_features(seq, cfg)
    return params.projection @ _pool(feats, params) + params.bias


def score_pair(y_m: np.ndarray, y_e: np.ndarray) -> float:
    if y_m.shape != y_e.shape:
        raise DimensionMismatch(f"mention dim {y_m.shape} vs entity dim {y_e.shape}")
    return float(np.dot(y_m, y_e))


@dataclass
class DualEncoder:
    mention_params: EncoderParams
    entity_params: EncoderParams
    cfg: EncoderConfig
    train_seed: int | None = None

    @classmethod
    def initialize(cls, cfg: EncoderConfig) -> "DualEncoder":
        return cls(
            mention_params=_init_params(cfg, np.random.default_rng([cfg.seed, 0])),
            entity_params=_init_params(cfg, np.random.default_rng([cfg.seed, 1])),
            cfg=cfg,
        )

    def encode_mention(self, m: MentionRecord) -> np.ndarray:
        return encode(build_mention_sequence(m, self.cfg), self.mention_params, self.cfg)

    def encode_entity(self, e: EntityRecord) -> np.ndarray:
        return encode(build_entity_sequence(e, self.cfg), self.entity_params, self.cfg)

    def save(self, path) -> None:
        meta = {"encoder_config": asdict(self.cfg), "train_seed": self.train_seed}
        arrays = {
            f"{side}.{name}": getattr(params, name)
            for side, params in (("mention", self.mention_params), ("entity", self.entity_params))
            for name in ("embedding", "projection", "bias")
        }
        write_container(path, MODEL_FORMAT_TAG, meta, arrays)

    @classmethod
    def load(cls, path) -> "DualEncoder":
        meta, arrays = read_container(path, MODEL_FORMAT_TAG)
        with decoding(path):
            # Every field is required: a default would silently change features.
            cfg = EncoderConfig(**{f.name: meta["encoder_config"][f.name] for f in fields(EncoderConfig)})
            shapes = {"embedding": (cfg.hash_buckets, cfg.dim), "projection": (cfg.dim, cfg.dim), "bias": (cfg.dim,)}
            params = []
            for side in ("mention", "entity"):
                for name, shape in shapes.items():
                    array = arrays[f"{side}.{name}"]
                    if array.shape != shape:
                        raise ValueError(f"array {side}.{name} has shape {array.shape}, expected {shape}")
                params.append(EncoderParams(**{name: arrays[f"{side}.{name}"] for name in shapes}))
            return cls(*params, cfg, train_seed=meta.get("train_seed"))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 1
    batch_size: int = 64
    negatives_per_example: int = 7
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "batch_size", "negatives_per_example"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class TrainStats:
    initial_loss: float
    final_loss: float
    examples: int
    epochs: int


@dataclass
class TrainExample:
    mention: SequenceFeatures
    candidate_ids: list[str]  # gold first
    candidates: list[SequenceFeatures]


@dataclass
class ParamGrads:
    """Gradients for one parameter set; embedding gradients stay sparse."""

    emb_buckets: np.ndarray  # (n,)
    emb_grads: np.ndarray  # (n, dim), aligned with emb_buckets
    projection: np.ndarray
    bias: np.ndarray

    def embedding_row(self, bucket: int) -> np.ndarray:
        hits = np.nonzero(self.emb_buckets == bucket)[0]
        if hits.size == 0:
            return np.zeros(self.projection.shape[0])
        return self.emb_grads[hits[0]]


def build_training_examples(
    ds: Dataset,
    kb: KnowledgeBase,
    retriever: Retriever,
    tc: TrainConfig,
    ec: EncoderConfig,
) -> list[TrainExample]:
    """Pair each record with its gold entity plus hard negatives.

    Negatives come first from the record's own retrieved candidates (gold
    excluded), then uniform-random knowledge-base entities until the quota is
    met or the KB runs out. Candidate lists stay duplicate-free.
    """
    if len(kb) == 0:
        raise EmptyKb("knowledge base has no entities")
    rng = np.random.default_rng([tc.seed, 17])
    entity_feats: dict[str, SequenceFeatures] = {}

    def feats_for(entity_id: str) -> SequenceFeatures:
        if entity_id not in entity_feats:
            entity_feats[entity_id] = sequence_features(
                build_entity_sequence(kb.lookup(entity_id), ec), ec
            )
        return entity_feats[entity_id]

    examples = []
    for record in ds.records:
        if record.gold_id is None:
            raise MissingGold(f"doc {record.doc_id!r} has no gold id")
        if record.gold_id not in kb:
            raise MissingGold(f"doc {record.doc_id!r}: gold id {record.gold_id!r} not in knowledge base")
        result = retriever.retrieve(kb, record)
        pool = merge_coarse(result.cand1, result.cand2)
        negatives = [eid for eid in pool if eid != record.gold_id][: tc.negatives_per_example]
        chosen = set(negatives)
        chosen.add(record.gold_id)
        while len(negatives) < tc.negatives_per_example and len(chosen) < len(kb):
            entity_id = kb.entities[int(rng.integers(len(kb)))].id
            if entity_id in chosen:
                continue
            chosen.add(entity_id)
            negatives.append(entity_id)
        candidate_ids = [record.gold_id, *negatives]
        examples.append(
            TrainExample(
                mention=sequence_features(build_mention_sequence(record, ec), ec),
                candidate_ids=candidate_ids,
                candidates=[feats_for(eid) for eid in candidate_ids],
            )
        )
    return examples


def example_loss(model: DualEncoder, example: TrainExample) -> float:
    """Cross-entropy of the gold candidate under the softmax over scores."""
    y_m = encode(example.mention, model.mention_params, model.cfg)
    scores = np.array([score_pair(y_m, encode(c, model.entity_params, model.cfg)) for c in example.candidates])
    shifted = scores - scores.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[0])


def dataset_loss(model: DualEncoder, examples: Sequence[TrainExample]) -> float:
    if not examples:
        return 0.0
    return sum(example_loss(model, ex) for ex in examples) / len(examples)


def batch_loss_and_grads(
    model: DualEncoder, examples: Sequence[TrainExample]
) -> tuple[float, ParamGrads, ParamGrads]:
    """Mean loss over the batch and its analytic gradients.

    Backpropagation through: dot-product scores -> softmax cross-entropy,
    affine projection, mean pooling, embedding lookups. This is the exact
    gradient the finite-difference checks validate.
    """
    mp, ep = model.mention_params, model.entity_params
    cfg = model.cfg
    n = len(examples)

    d_proj_m = np.zeros_like(mp.projection)
    d_bias_m = np.zeros_like(mp.bias)
    d_proj_e = np.zeros_like(ep.projection)
    d_bias_e = np.zeros_like(ep.bias)
    emb_bucket_chunks_m: list[np.ndarray] = []
    emb_grad_chunks_m: list[np.ndarray] = []
    emb_bucket_chunks_e: list[np.ndarray] = []
    emb_grad_chunks_e: list[np.ndarray] = []

    total_loss = 0.0
    for example in examples:
        x_m = _pool(example.mention, mp)
        y_m = mp.projection @ x_m + mp.bias
        x_es = [_pool(c, ep) for c in example.candidates]
        y_es = np.stack([ep.projection @ x + ep.bias for x in x_es])
        scores = y_es @ y_m

        shifted = scores - scores.max()
        exp = np.exp(shifted)
        probs = exp / exp.sum()
        total_loss += float(np.log(exp.sum()) - shifted[0])

        d_scores = probs.copy()
        d_scores[0] -= 1.0

        # Mention side: dL/dy_m = sum_k d_scores[k] * y_e[k].
        dy_m = y_es.T @ d_scores
        d_proj_m += np.outer(dy_m, x_m)
        d_bias_m += dy_m
        dx_m = mp.projection.T @ dy_m
        if example.mention.buckets.size:
            emb_bucket_chunks_m.append(example.mention.buckets)
            emb_grad_chunks_m.append(
                np.outer(example.mention.counts, dx_m) / example.mention.token_count
            )

        # Entity side, one affine backprop per candidate.
        for k, feats in enumerate(example.candidates):
            dy_e = d_scores[k] * y_m
            d_proj_e += np.outer(dy_e, x_es[k])
            d_bias_e += dy_e
            dx_e = ep.projection.T @ dy_e
            if feats.buckets.size:
                emb_bucket_chunks_e.append(feats.buckets)
                emb_grad_chunks_e.append(np.outer(feats.counts, dx_e) / feats.token_count)

    def collapse(bucket_chunks, grad_chunks) -> tuple[np.ndarray, np.ndarray]:
        if not bucket_chunks:
            return np.zeros(0, dtype=np.int64), np.zeros((0, cfg.dim))
        buckets = np.concatenate(bucket_chunks)
        grads = np.vstack(grad_chunks)
        unique, inverse = np.unique(buckets, return_inverse=True)
        summed = np.zeros((unique.size, cfg.dim))
        np.add.at(summed, inverse, grads)
        return unique, summed / n

    buckets_m, grads_m = collapse(emb_bucket_chunks_m, emb_grad_chunks_m)
    buckets_e, grads_e = collapse(emb_bucket_chunks_e, emb_grad_chunks_e)
    return (
        total_loss / n,
        ParamGrads(buckets_m, grads_m, d_proj_m / n, d_bias_m / n),
        ParamGrads(buckets_e, grads_e, d_proj_e / n, d_bias_e / n),
    )


def _apply_grads(params: EncoderParams, grads: ParamGrads, learning_rate: float) -> None:
    if grads.emb_buckets.size:
        params.embedding[grads.emb_buckets] -= learning_rate * grads.emb_grads
    params.projection -= learning_rate * grads.projection
    params.bias -= learning_rate * grads.bias


def train(
    ds: Dataset,
    kb: KnowledgeBase,
    retriever: Retriever,
    tc: TrainConfig = TrainConfig(),
    ec: EncoderConfig = EncoderConfig(),
) -> tuple[DualEncoder, TrainStats]:
    """Train a fresh dual encoder on the dataset; deterministic under seed."""
    model = DualEncoder.initialize(ec)
    examples = build_training_examples(ds, kb, retriever, tc, ec)
    initial = dataset_loss(model, examples)
    order_rng = np.random.default_rng([tc.seed, 29])
    for _ in range(tc.epochs):
        order = order_rng.permutation(len(examples))
        for lo in range(0, len(order), tc.batch_size):
            batch = [examples[i] for i in order[lo : lo + tc.batch_size]]
            _, grads_m, grads_e = batch_loss_and_grads(model, batch)
            _apply_grads(model.mention_params, grads_m, tc.learning_rate)
            _apply_grads(model.entity_params, grads_e, tc.learning_rate)
    final = dataset_loss(model, examples)
    model.train_seed = tc.seed
    return model, TrainStats(initial_loss=initial, final_loss=final, examples=len(examples), epochs=tc.epochs)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


@dataclass
class EntityEmbeddingStore:
    """Precomputed entity vectors in knowledge-base order."""

    matrix: np.ndarray  # (n_entities, dim)
    entity_ids: list[str]
    kb_fingerprint: str

    def __post_init__(self):
        self._row_of = {entity_id: row for row, entity_id in enumerate(self.entity_ids)}

    def row(self, entity_id: str) -> np.ndarray:
        if entity_id not in self._row_of:
            raise UnknownCandidate(entity_id)
        return self.matrix[self._row_of[entity_id]]

    def save(self, path) -> None:
        write_container(path, STORE_FORMAT_TAG, {"kb_fingerprint": self.kb_fingerprint}, {"values": self.matrix})

    @classmethod
    def load(cls, path, kb: KnowledgeBase) -> "EntityEmbeddingStore":
        meta, arrays = read_container(path, STORE_FORMAT_TAG)
        with decoding(path):
            if meta["kb_fingerprint"] != kb.fingerprint():
                raise StaleStore(
                    "entity store is stale: knowledge base changed since the store was computed"
                )
            matrix = arrays["values"]
            if matrix.shape[0] != len(kb):
                raise StaleStore(f"entity store has {matrix.shape[0]} rows for a KB of {len(kb)} entities")
            return cls(matrix=matrix, entity_ids=[e.id for e in kb.entities], kb_fingerprint=meta["kb_fingerprint"])


def precompute_entity_embeddings(model: DualEncoder, kb: KnowledgeBase) -> EntityEmbeddingStore:
    rows = [model.encode_entity(entity) for entity in kb.entities]
    matrix = np.stack(rows) if rows else np.zeros((0, model.cfg.dim))
    return EntityEmbeddingStore(matrix=matrix, entity_ids=[e.id for e in kb.entities], kb_fingerprint=kb.fingerprint())


def rerank(
    model: DualEncoder,
    store: EntityEmbeddingStore,
    m: MentionRecord,
    candidates: CandidateSet,
) -> list[tuple[str, float]]:
    """Score candidates against the mention, best first, ties by entity id."""
    if not candidates:
        return []
    y_m = model.encode_mention(m)
    scored = [(entity_id, score_pair(y_m, store.row(entity_id))) for entity_id in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored
