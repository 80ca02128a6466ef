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

import functools
import math
import operator
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .artifacts import decoding, read_container, write_container
from .corpus import Dataset, EntityRecord, KnowledgeBase, MentionRecord
from .errors import (
    DimensionMismatch,
    EmptyKb,
    InvalidConfig,
    MentionTooLong,
    MissingGold,
    NameTooLong,
    StaleStore,
    UnknownCandidate,
)
from .retriever import CandidateSet, Retriever, merge_coarse
from .tokenizer import TokenStream, tokenize

MODEL_FORMAT_TAG = "lexlink.dual-encoder/2"
STORE_FORMAT_TAG = "lexlink.entity-store/3"

# Largest (hash_buckets + dim) * dim accepted: the float64 embedding table and
# projection of one of the model's two encoders, 1 GiB at this limit.
MAX_ENCODER_CELLS = 2**27

# Reserved marker tokens. Real tokens are lowercase alphanumeric runs or CJK
# characters, so the brackets guarantee no collision.
MENTION_START = "[M_START]"
MENTION_END = "[M_END]"
NAME_DESC_SEP = "[NAME_DESC]"
_MARKERS = frozenset((MENTION_START, MENTION_END, NAME_DESC_SEP))

# Prefix for the span-tagged copies of in-span n-grams; cannot collide with
# plain grams (no brackets in tokenizer output) or marker features.
_IN_SPAN_PREFIX = "[IN]"

# Entries of the token -> bucket ids memo; at ≈1 KB each it holds at most
# ≈16 MB.
TOKEN_BUCKETS_MEMO_SIZE = 2**14


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 64
    hash_buckets: int = 2**16
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    max_len: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "hash_buckets", "max_len", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "ngram_orders", tuple(_integer("an ngram_orders entry", n) for n in self.ngram_orders))
        if self.dim < 1:
            raise InvalidConfig("dim must be >= 1")
        if self.hash_buckets < 1:
            raise InvalidConfig("hash_buckets must be >= 1")
        if (self.hash_buckets + self.dim) * self.dim > MAX_ENCODER_CELLS:
            raise InvalidConfig(
                f"(hash_buckets + dim) * dim must be <= {MAX_ENCODER_CELLS}, got hash_buckets {self.hash_buckets},"
                f" dim {self.dim}"
            )
        if self.max_len < 8:
            raise InvalidConfig("max_len must be >= 8")
        if not self.ngram_orders or any(n < 1 for n in self.ngram_orders):
            raise InvalidConfig("ngram_orders must be non-empty positive integers")
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise InvalidConfig("seed must be >= 0")


def _integer(name: str, value) -> int:
    """``value`` as an ``int``. A model header is JSON, so a float or a boolean
    may reach a field that must be an integer; both are refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class MarkedSequence:
    tokens: tuple[str, ...]


def build_mention_sequence(
    m: MentionRecord,
    cfg: EncoderConfig,
    pieces: tuple[TokenStream, TokenStream, TokenStream] | None = None,
) -> MarkedSequence:
    """Marker-annotated context window around the mention span.

    ``pieces``, when given, is the tokens of the text before, inside and after
    the span, as ``tokenizer.tokenize_around`` returns them; otherwise they
    are tokenized here.

    Truncation keeps the marker span intact and drops outermost context
    tokens from whichever side currently has more, left first on ties, so the
    mention stays as centered as the budget allows: the right side keeps half
    the budget, rounded up, or what the left side leaves, if more.
    """
    if pieces is None:
        text, start, end = m.text, m.span_start, m.span_end
        pieces = tokenize(text[:start]), tokenize(text[start:end]), tokenize(text[end:])
    left, span, right = pieces
    core_len = len(span) + 2
    if core_len > cfg.max_len:
        raise MentionTooLong(
            f"doc {m.doc_id!r}: mention spans {len(span)} tokens; limit is {cfg.max_len - 2}"
        )
    budget = cfg.max_len - core_len
    keep_left, keep_right = len(left), len(right)
    if keep_left + keep_right > budget:
        keep_right = min(keep_right, max(budget - keep_left, (budget + 1) // 2))
        keep_left = budget - keep_right
    tokens = (
        *left[len(left) - keep_left :],
        MENTION_START,
        *span,
        MENTION_END,
        *right[:keep_right],
    )
    return MarkedSequence(tokens=tokens)


def build_entity_sequence(e: EntityRecord, cfg: EncoderConfig) -> MarkedSequence:
    """Name, separator marker, then as much description as fits."""
    name = tokenize(e.name)
    if len(name) + 1 > cfg.max_len:
        raise NameTooLong(f"entity {e.id!r}: name spans {len(name)} tokens; limit is {cfg.max_len - 1}")
    desc = tokenize(e.description)[: cfg.max_len - len(name) - 1]
    return MarkedSequence(tokens=(*name, NAME_DESC_SEP, *desc))


def _token_features(token: str, orders: tuple[int, ...], in_span: bool) -> list[str]:
    if token in _MARKERS:
        return [token]
    grams = [token[i : i + n] for n in orders for i in range(len(token) - n + 1)]
    return [f for gram in grams for f in (gram, _IN_SPAN_PREFIX + gram)] if in_span else grams


@functools.lru_cache(maxsize=TOKEN_BUCKETS_MEMO_SIZE)
def _token_buckets(token: str, in_span: bool, ngram_orders: tuple[int, ...], hash_buckets: int) -> tuple[int, ...]:
    """Bucket ids of one token's features, in order. A pure function of its
    arguments, so memoized by value: two configs never share an entry."""
    features = _token_features(token, ngram_orders, in_span)
    return tuple(zlib.crc32(feature.encode()) % hash_buckets for feature in features)


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
        for bucket in _token_buckets(token, tagged, cfg.ngram_orders, cfg.hash_buckets):
            counter[bucket] = counter.get(bucket, 0) + multiplicity
    buckets = np.fromiter(counter.keys(), dtype=np.int64, count=len(counter))
    counts = np.fromiter(counter.values(), dtype=np.float64, count=len(counter))
    return SequenceFeatures(buckets=buckets, counts=counts, token_count=max(len(seq.tokens), 1))


@dataclass
class EncoderParams:
    embedding: np.ndarray  # (hash_buckets, dim)
    projection: np.ndarray  # (dim, dim)
    bias: np.ndarray  # (dim,)


def _init_params(cfg: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    # Embedding rows uniform in [-1/sqrt(dim), 1/sqrt(dim)]; projection starts
    # near the identity. The mention and entity tables are drawn from separate
    # seed streams, so untrained scores carry no lexical signal.
    bound = 1.0 / math.sqrt(cfg.dim)
    embedding = rng.uniform(-bound, bound, size=(cfg.hash_buckets, cfg.dim))
    projection = np.eye(cfg.dim) + 1e-2 * rng.standard_normal((cfg.dim, cfg.dim))
    bias = np.zeros(cfg.dim)
    return EncoderParams(embedding=embedding, projection=projection, bias=bias)


def _pool(feats: SequenceFeatures, params: EncoderParams) -> np.ndarray:
    if feats.buckets.size == 0:
        return np.zeros(params.embedding.shape[1])
    weighted = params.embedding.take(feats.buckets, axis=0)  # a copy: the table is never written
    weighted *= feats.counts[:, None]
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
    # The entity_encoder_digest recorded in the file the model was loaded
    # from, so that a store can be checked without reading the entity arrays.
    entity_digest: str | None = None

    @classmethod
    def initialize(cls, cfg: EncoderConfig) -> "DualEncoder":
        return cls(
            mention_params=_init_params(cfg, np.random.default_rng([cfg.seed, 0])),
            entity_params=_init_params(cfg, np.random.default_rng([cfg.seed, 1])),
            cfg=cfg,
        )

    def encode_mention(
        self, m: MentionRecord, pieces: tuple[TokenStream, TokenStream, TokenStream] | None = None
    ) -> np.ndarray:
        return encode(build_mention_sequence(m, self.cfg, pieces), self.mention_params, self.cfg)

    def encode_entity(self, e: EntityRecord) -> np.ndarray:
        return encode(build_entity_sequence(e, self.cfg), self.entity_params, self.cfg)

    def save(self, path) -> None:
        meta = {
            "encoder_config": asdict(self.cfg),
            "train_seed": self.train_seed,
            "entity_encoder_digest": entity_encoder_digest(self),
        }
        arrays = {
            f"{side}.{name}": getattr(params, name)
            for side, params in (("mention", self.mention_params), ("entity", self.entity_params))
            for name in ("embedding", "projection", "bias")
        }
        write_container(path, MODEL_FORMAT_TAG, meta, arrays)

    @classmethod
    def load(cls, path) -> "DualEncoder":
        meta, arrays = read_container(path, MODEL_FORMAT_TAG, rerun="train")
        with decoding(path):
            # Every field is required: a default would silently change features.
            cfg = EncoderConfig(**{f.name: meta["encoder_config"][f.name] for f in fields(EncoderConfig)})
            digest = meta["entity_encoder_digest"]
            if not isinstance(digest, str):
                raise TypeError(f"entity_encoder_digest is {digest!r}, not a string")
            shapes = {"embedding": (cfg.hash_buckets, cfg.dim), "projection": (cfg.dim, cfg.dim), "bias": (cfg.dim,)}
            params = []
            for side in ("mention", "entity"):
                for name, shape in shapes.items():
                    array = arrays[f"{side}.{name}"]
                    if array.shape != shape:
                        raise ValueError(f"array {side}.{name} has shape {array.shape}, expected {shape}")
                params.append(EncoderParams(**{name: arrays[f"{side}.{name}"] for name in shapes}))
            return cls(*params, cfg, train_seed=meta.get("train_seed"), entity_digest=digest)


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
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and positive")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


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

    Negatives come first from the record's own coarse candidates, Cand1 (gold
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
        cand1 = merge_coarse(*retriever.retrieve_coarse(record.mention))
        negatives = [eid for eid in cand1 if eid != record.gold_id][: tc.negatives_per_example]
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


def _bucket_rows(sequences: Sequence[SequenceFeatures]) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The distinct bucket ids of ``sequences``, ascending, and each
    sequence's rows among them, one sequence after another."""
    unique, inverse = np.unique(np.concatenate([feats.buckets for feats in sequences]), return_inverse=True)
    return unique, iter(np.split(inverse, np.cumsum([feats.buckets.size for feats in sequences])[:-1]))


def batch_loss_and_grads(
    model: DualEncoder, examples: Sequence[TrainExample]
) -> tuple[float, ParamGrads, ParamGrads]:
    """Mean loss over the batch and its analytic gradients.

    Backpropagation through: dot-product scores -> softmax cross-entropy,
    affine projection, mean pooling, embedding lookups. This is the exact
    gradient the finite-difference checks validate.

    Each side's embedding gradient holds one row per distinct bucket of the
    batch. A sequence's rows are added into it as soon as they are made, in
    loop order, so a row sums the same terms in the same order as a sum over
    every sequence's rows stacked together would.
    """
    mp, ep = model.mention_params, model.entity_params
    cfg = model.cfg
    n = len(examples)

    d_proj_m = np.zeros_like(mp.projection)
    d_bias_m = np.zeros_like(mp.bias)
    d_proj_e = np.zeros_like(ep.projection)
    d_bias_e = np.zeros_like(ep.bias)
    buckets_m, mention_rows = _bucket_rows([example.mention for example in examples])
    buckets_e, entity_rows = _bucket_rows([feats for example in examples for feats in example.candidates])
    d_emb_m = np.zeros((buckets_m.size, cfg.dim))
    d_emb_e = np.zeros((buckets_e.size, cfg.dim))

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
        np.add.at(d_emb_m, next(mention_rows), np.outer(example.mention.counts, dx_m) / example.mention.token_count)

        # Entity side, one affine backprop per candidate.
        for k, feats in enumerate(example.candidates):
            dy_e = d_scores[k] * y_m
            d_proj_e += np.outer(dy_e, x_es[k])
            d_bias_e += dy_e
            dx_e = ep.projection.T @ dy_e
            np.add.at(d_emb_e, next(entity_rows), np.outer(feats.counts, dx_e) / feats.token_count)

    return (
        total_loss / n,
        ParamGrads(buckets_m, d_emb_m / n, d_proj_m / n, d_bias_m / n),
        ParamGrads(buckets_e, d_emb_e / n, d_proj_e / n, d_bias_e / n),
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
    row_of: dict[str, int]  # the knowledge base's own id -> row map, not a copy
    kb_fingerprint: str
    encoder_digest: str  # entity_encoder_digest of the model that embedded it

    def row(self, entity_id: str) -> np.ndarray:
        if entity_id not in self.row_of:
            raise UnknownCandidate(entity_id)
        return self.matrix[self.row_of[entity_id]]

    def rows(self, entity_ids: Sequence[str]) -> np.ndarray:
        """The vectors of ``entity_ids``, one row each, in their order."""
        try:
            return self.matrix.take([self.row_of[entity_id] for entity_id in entity_ids], axis=0)
        except KeyError as exc:
            raise UnknownCandidate(exc.args[0]) from None

    def save(self, path) -> None:
        meta = {"kb_fingerprint": self.kb_fingerprint, "encoder_digest": self.encoder_digest}
        write_container(path, STORE_FORMAT_TAG, meta, {"values": self.matrix})

    @classmethod
    def load(cls, path, kb: KnowledgeBase) -> "EntityEmbeddingStore":
        meta, arrays = read_container(path, STORE_FORMAT_TAG, rerun="embed-entities")
        with decoding(path):
            if meta["kb_fingerprint"] != kb.fingerprint():
                raise StaleStore(
                    "entity store is stale: knowledge base changed since the store was computed"
                )
            matrix = arrays["values"]
            if matrix.shape[0] != len(kb):
                raise StaleStore(f"entity store has {matrix.shape[0]} rows for a KB of {len(kb)} entities")
            return cls(matrix, kb.index, meta["kb_fingerprint"], meta["encoder_digest"])


def entity_encoder_digest(model: DualEncoder) -> str:
    """CRC-32, in hex, of the entity encoder's three arrays: a model's header
    and a store record it, so that a store embedded by another model can be
    told apart."""
    crc = 0
    for array in (model.entity_params.embedding, model.entity_params.projection, model.entity_params.bias):
        crc = zlib.crc32(np.ascontiguousarray(array, dtype="<f8").data, crc)
    return f"{crc:08x}"


def precompute_entity_embeddings(model: DualEncoder, kb: KnowledgeBase) -> EntityEmbeddingStore:
    matrix = np.empty((len(kb), model.cfg.dim))
    for row, entity in enumerate(kb.entities):
        matrix[row] = model.encode_entity(entity)
    return EntityEmbeddingStore(matrix, kb.index, kb.fingerprint(), entity_encoder_digest(model))


def rerank(
    model: DualEncoder,
    store: EntityEmbeddingStore,
    m: MentionRecord,
    candidates: CandidateSet,
    pieces: tuple[TokenStream, TokenStream, TokenStream] | None = None,
) -> list[tuple[str, float]]:
    """Score candidates against the mention, best first, ties by entity id.
    ``pieces`` is passed on to ``build_mention_sequence``."""
    if not candidates:
        return []
    y_m = model.encode_mention(m, pieces)
    if y_m.shape != store.matrix.shape[1:]:
        raise DimensionMismatch(f"mention dim {y_m.shape} vs entity dim {store.matrix.shape[1:]}")
    # vecdot runs the per-row dot kernel of score_pair, so the scores are its
    # floats; a matrix-vector product (rows @ y_m) sums in another order.
    scores = np.vecdot(store.rows(candidates), y_m).tolist()
    scored = list(zip(candidates, scores))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored
