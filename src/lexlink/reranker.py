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
import itertools
import math
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
    config_integer,
    config_real,
)
from .retriever import CandidateSet, Retriever, merge_coarse
from .tokenizer import TokenStream, tokenize

MODEL_FORMAT_TAG = "lexlink.dual-encoder/3"
STORE_FORMAT_TAG = "lexlink.entity-store/3"

# Largest (hash_buckets + dim) * dim accepted: the float64 embedding table and
# projection of one of the model's two encoders, 1 GiB at this limit. Training
# holds only the rows its examples touch; saving a trained model draws the
# mention table whole and embedding entities the entity table.
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

# Doubles per chunk in which an encoder's embedding table is drawn and read,
# whole or as held rows over its seeded draw: 64 KB, so that training a model,
# or comparing or digesting its entity table, holds no table.
EMBEDDING_DRAW_CELLS = 2**13

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
            object.__setattr__(self, name, config_integer(name, getattr(self, name)))
        orders = tuple(config_integer("an ngram_orders entry", n) for n in self.ngram_orders)
        object.__setattr__(self, "ngram_orders", orders)
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
    embedding: np.ndarray  # (hash_buckets, dim), or the rows at indices, in order
    projection: np.ndarray  # (dim, dim)
    bias: np.ndarray  # (dim,)
    # Ascending row ids, each other row being the one the encoder's seed
    # stream draws; None when embedding is the whole table.
    indices: np.ndarray | None = None


def _stream(cfg: EncoderConfig, encoder: int) -> np.random.Generator:
    """The seed stream of the mention (0) or the entity (1) encoder. The two
    tables come from separate streams, so untrained scores carry no lexical
    signal."""
    return np.random.default_rng([cfg.seed, encoder])


def _chunk_rows(cfg: EncoderConfig) -> int:
    return max(1, EMBEDDING_DRAW_CELLS // cfg.dim)


def _seeded_embedding(cfg: EncoderConfig, rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """The initial embedding table ``rng`` draws, rows uniform in
    [-1/sqrt(dim), 1/sqrt(dim)], as ``(first row, rows)`` chunks of a fixed
    size, in order. ``Generator.uniform`` takes one double per cell from the
    stream, so the chunks are bitwise the table one call would draw, and
    ``rng`` is left where that call would leave it."""
    bound = 1.0 / math.sqrt(cfg.dim)
    step = _chunk_rows(cfg)
    for lo in range(0, cfg.hash_buckets, step):
        yield lo, rng.uniform(-bound, bound, size=(min(step, cfg.hash_buckets - lo), cfg.dim))


def _initial_params(cfg: EncoderConfig, encoder: int, indices: np.ndarray) -> EncoderParams:
    """The initial rows ``indices`` (ascending) of an encoder's embedding
    table, in that order, gathered one drawn chunk at a time, with its initial
    projection, near the identity, and bias."""
    rng = _stream(cfg, encoder)
    rows = np.empty((indices.size, cfg.dim))
    for lo, chunk in _seeded_embedding(cfg, rng):
        first, last = np.searchsorted(indices, (lo, lo + len(chunk)))
        rows[first:last] = chunk[indices[first:last] - lo]
    projection = np.eye(cfg.dim) + 1e-2 * rng.standard_normal((cfg.dim, cfg.dim))
    return EncoderParams(embedding=rows, projection=projection, bias=np.zeros(cfg.dim))


def _table_chunks(params: EncoderParams, cfg: EncoderConfig, encoder: int) -> Iterator[tuple[int, np.ndarray]]:
    """The embedding table of the mention (0) or the entity (1) encoder as
    ``(first row, rows)`` chunks, in order: slices of a whole table, or drawn
    chunks with the held rows written over them. No more than one chunk is
    made at a time."""
    if params.indices is None:
        step = _chunk_rows(cfg)
        yield from ((lo, params.embedding[lo : lo + step]) for lo in range(0, cfg.hash_buckets, step))
        return
    for lo, chunk in _seeded_embedding(cfg, _stream(cfg, encoder)):
        first, last = np.searchsorted(params.indices, (lo, lo + len(chunk)))
        chunk[params.indices[first:last] - lo] = params.embedding[first:last]
        yield lo, chunk


def _whole(params: EncoderParams, cfg: EncoderConfig, encoder: int) -> EncoderParams:
    """``params`` with its embedding table whole: ``params`` itself if it is,
    else drawn and written over by the held rows."""
    if params.indices is None:
        return params
    embedding = np.empty((cfg.hash_buckets, cfg.dim))
    for lo, rows in _table_chunks(params, cfg, encoder):
        embedding[lo : lo + len(rows)] = rows
    return EncoderParams(embedding, params.projection, params.bias)


def _changed_rows(cfg: EncoderConfig, params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """The ascending indices of the rows of the entity table of ``params``
    whose bits differ from its seeded draw, and those rows. Of an encoder
    that holds some rows, only those can differ, and they are compared with
    the draw at their own indices; a whole table is compared one chunk at a
    time.

    Held rows are compared rather than stored as they are, because training
    holds rows whose bits it never changes: a bucket that is the same share
    of every candidate of each example (say, the ``[NAME_DESC]`` marker's
    when the candidates are equally long) gets an entity gradient that
    cancels across the softmax to far below a row's last bit (≈8e-19).
    Storing such rows would change the file."""
    if params.indices is not None:
        start = _initial_params(cfg, 1, params.indices).embedding
        changed = np.flatnonzero((params.embedding.view(np.uint64) != start.view(np.uint64)).any(axis=1))
        return params.indices[changed], params.embedding[changed]
    indices, rows = [np.empty(0, dtype=np.intp)], [np.empty((0, cfg.dim))]
    for (lo, table), (_, start) in zip(_table_chunks(params, cfg, 1), _seeded_embedding(cfg, _stream(cfg, 1))):
        changed = np.flatnonzero((table.view(np.uint64) != start.view(np.uint64)).any(axis=1))
        indices.append(lo + changed)
        rows.append(table[changed])
    return np.concatenate(indices), np.concatenate(rows)


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


class DualEncoder:
    """The mention and entity encoders and their config.

    Each encoder is an ``EncoderParams``: its embedding table whole, or
    with ``indices``, only the rows that may differ from the table
    ``cfg.seed`` draws. ``initialize`` holds both tables whole and ``train``
    holds rows; ``load`` maps the mention table whole and keeps the entity
    rows its file stores. Reading ``mention_params`` or ``entity_params``
    draws a held-rows table once, writes the rows over it and keeps it;
    ``save`` does so for the mention table without keeping it, and reads the
    entity table, as ``entity_encoder_digest`` does, one chunk at a time.
    Linking reads the entity store, never the entity encoder, so only
    embedding entities pays for the entity draw.
    """

    def __init__(
        self,
        mention_params: EncoderParams,
        entity_params: EncoderParams,
        cfg: EncoderConfig,
        train_seed: int | None = None,
        entity_digest: str | None = None,
    ):
        self._mention_params = mention_params
        self._entity_params = entity_params
        self.cfg = cfg
        self.train_seed = train_seed
        # The entity_encoder_digest recorded in the file the model was loaded
        # from, so that a store can be checked without reading the entity arrays.
        self.entity_digest = entity_digest

    @property
    def mention_params(self) -> EncoderParams:
        self._mention_params = _whole(self._mention_params, self.cfg, 0)
        return self._mention_params

    @property
    def entity_params(self) -> EncoderParams:
        self._entity_params = _whole(self._entity_params, self.cfg, 1)
        return self._entity_params

    @classmethod
    def initialize(cls, cfg: EncoderConfig) -> "DualEncoder":
        """A fresh model, both encoders whole."""
        every_row = np.arange(cfg.hash_buckets)
        return cls(_initial_params(cfg, 0, every_row), _initial_params(cfg, 1, every_row), cfg)

    def encode_mention(
        self, m: MentionRecord, pieces: tuple[TokenStream, TokenStream, TokenStream] | None = None
    ) -> np.ndarray:
        return encode(build_mention_sequence(m, self.cfg, pieces), self.mention_params, self.cfg)

    def encode_entity(self, e: EntityRecord) -> np.ndarray:
        return encode(build_entity_sequence(e, self.cfg), self.entity_params, self.cfg)

    def save(self, path) -> None:
        """Write the mention encoder whole, and of the entity encoder the
        projection, the bias and the embedding rows whose bits differ from
        the table ``cfg.seed`` draws, with their indices in the header. A
        mention table held as rows is drawn whole for the write and freed
        after it, not kept; the entity table is read one chunk at a time."""
        cfg, mention, entity = self.cfg, self._mention_params, self._entity_params
        indices, rows = _changed_rows(cfg, entity)
        meta = {
            "encoder_config": asdict(cfg),
            "train_seed": self.train_seed,
            "entity_encoder_digest": entity_encoder_digest(self),
            "entity_row_indices": indices.tolist(),
        }
        arrays = {
            "mention.embedding": _whole(mention, cfg, 0).embedding,
            "mention.projection": mention.projection,
            "mention.bias": mention.bias,
            "entity.projection": entity.projection,
            "entity.bias": entity.bias,
            "entity.embedding_rows": rows,
        }
        write_container(path, MODEL_FORMAT_TAG, meta, arrays)

    @classmethod
    def load(cls, path) -> "DualEncoder":
        """The model in ``path``. No array is read and nothing is drawn: the
        mention encoder is mapped whole, and the entity embedding table is
        rebuilt when ``entity_params`` is first read."""
        meta, arrays = read_container(path, MODEL_FORMAT_TAG, rerun="train")
        with decoding(path):
            # Every field is required: a default would silently change features.
            cfg = EncoderConfig(**{f.name: meta["encoder_config"][f.name] for f in fields(EncoderConfig)})
            digest = meta["entity_encoder_digest"]
            if not isinstance(digest, str):
                raise TypeError(f"entity_encoder_digest is {digest!r}, not a string")
            indices = meta["entity_row_indices"]
            if not isinstance(indices, list) or not all(type(index) is int for index in indices):
                raise TypeError("entity_row_indices is not a list of integers")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError("entity_row_indices are not strictly ascending")
            if indices and not (indices[0] >= 0 and indices[-1] < cfg.hash_buckets):
                raise ValueError(
                    f"entity_row_indices run from {indices[0]} to {indices[-1]}, outside [0, {cfg.hash_buckets})"
                )
            shapes = {
                "mention.embedding": (cfg.hash_buckets, cfg.dim),
                "mention.projection": (cfg.dim, cfg.dim),
                "mention.bias": (cfg.dim,),
                "entity.projection": (cfg.dim, cfg.dim),
                "entity.bias": (cfg.dim,),
                "entity.embedding_rows": (len(indices), cfg.dim),
            }
            for name, shape in shapes.items():
                if arrays[name].shape != shape:
                    raise ValueError(f"array {name} has shape {arrays[name].shape}, expected {shape}")
            mention = EncoderParams(*(arrays[f"mention.{name}"] for name in ("embedding", "projection", "bias")))
            entity = EncoderParams(
                arrays["entity.embedding_rows"], arrays["entity.projection"], arrays["entity.bias"],
                np.array(indices, dtype=np.intp),
            )
            return cls(mention, entity, cfg, train_seed=meta.get("train_seed"), entity_digest=digest)


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
        for name in ("epochs", "batch_size", "negatives_per_example", "seed"):
            object.__setattr__(self, name, config_integer(name, getattr(self, name)))
        object.__setattr__(self, "learning_rate", config_real("learning_rate", self.learning_rate))
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
    buckets = np.concatenate([np.empty(0, dtype=np.int64), *(feats.buckets for feats in sequences)])
    unique, inverse = np.unique(buckets, return_inverse=True)
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


def _renumbered(examples: Sequence[TrainExample]) -> tuple[np.ndarray, np.ndarray, list[TrainExample]]:
    """The distinct bucket ids of the mention side and of the entity side,
    each ascending, and ``examples`` with every bucket id replaced by its
    position among its side's. The map keeps the order of bucket ids."""
    mention_ids, mention_rows = _bucket_rows([example.mention for example in examples])
    # Examples share the features of an entity; each is renumbered once.
    candidates = {id(feats): feats for example in examples for feats in example.candidates}
    entity_ids, entity_rows = _bucket_rows(list(candidates.values()))
    renumbered = {key: SequenceFeatures(next(entity_rows), f.counts, f.token_count) for key, f in candidates.items()}
    return mention_ids, entity_ids, [
        TrainExample(SequenceFeatures(next(mention_rows), example.mention.counts, example.mention.token_count),
                     example.candidate_ids, [renumbered[id(feats)] for feats in example.candidates])
        for example in examples
    ]


def train(
    ds: Dataset,
    kb: KnowledgeBase,
    retriever: Retriever,
    tc: TrainConfig = TrainConfig(),
    ec: EncoderConfig = EncoderConfig(),
) -> tuple[DualEncoder, TrainStats]:
    """Train a fresh dual encoder on the dataset; deterministic under seed.

    Only the embedding rows of the buckets the examples hold are read or
    written, so only they are held: each side's are gathered from its seeded
    draw into a table of their own, in ascending bucket order. Renumbering
    the examples' buckets into that table keeps their order, so every step
    below gathers, sums and updates the same floats in the same order as on
    the whole table. The model returned holds those rows of each encoder,
    with their bucket ids as ``indices``.
    """
    examples = build_training_examples(ds, kb, retriever, tc, ec)
    mention_ids, entity_ids, examples = _renumbered(examples)
    # Tables of the touched rows alone: row i is the i-th bucket id of its side.
    model = DualEncoder(_initial_params(ec, 0, mention_ids), _initial_params(ec, 1, entity_ids), ec, train_seed=tc.seed)
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
    # Set after the last read: read through the model, a table with indices is drawn whole.
    model.mention_params.indices, model.entity_params.indices = mention_ids, entity_ids
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
    told apart. The embedding table is read one chunk at a time."""
    params = model._entity_params
    table = (chunk for _, chunk in _table_chunks(params, model.cfg, 1))
    crc = 0
    for array in itertools.chain(table, (params.projection, params.bias)):
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
