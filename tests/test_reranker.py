import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles

from lexlink.corpus import AliasEntry, AliasTable, Dataset, EntityRecord, KnowledgeBase, MentionRecord
from lexlink.errors import (
    DimensionMismatch,
    MentionTooLong,
    MissingGold,
    NameTooLong,
    StaleStore,
    UnknownCandidate,
)
from lexlink.reranker import (
    MENTION_END,
    MENTION_START,
    NAME_DESC_SEP,
    TOKEN_BUCKETS_MEMO_SIZE,
    DualEncoder,
    EncoderConfig,
    EntityEmbeddingStore,
    MarkedSequence,
    TrainConfig,
    TrainExample,
    batch_loss_and_grads,
    build_entity_sequence,
    build_mention_sequence,
    build_training_examples,
    dataset_loss,
    encode,
    example_loss,
    precompute_entity_embeddings,
    rerank,
    score_pair,
    _token_buckets,
    sequence_features,
    train,
)
from lexlink.retriever import Retriever
from lexlink.synth import SynthSpec, build_synthetic

SMALL = EncoderConfig(dim=8, hash_buckets=512, ngram_orders=(1, 2, 3), max_len=16, seed=3)


def mention(text, surface, gold=None, doc_id="d"):
    start = text.index(surface)
    return MentionRecord(
        doc_id=doc_id, text=text, span_start=start, span_end=start + len(surface),
        mention=surface, gold_id=gold,
    )


# -- sequence construction ---------------------------------------------------


def test_mention_sequence_places_markers_around_span():
    cfg = EncoderConfig()
    m = mention("I ate an Apple.", "Apple")
    seq = build_mention_sequence(m, cfg)
    assert list(seq.tokens) == ["i", "ate", "an", MENTION_START, "apple", MENTION_END]


def test_mention_sequence_truncates_to_max_len_keeping_markers():
    cfg = EncoderConfig(max_len=128)
    words = [f"w{i}" for i in range(500)]
    text = " ".join(words[:250]) + " TARGET " + " ".join(words[250:])
    m = mention(text, "TARGET")
    seq = build_mention_sequence(m, cfg)
    assert len(seq.tokens) == cfg.max_len
    assert MENTION_START in seq.tokens and MENTION_END in seq.tokens
    start = seq.tokens.index(MENTION_START)
    assert seq.tokens[start + 1] == "target"


def test_mention_sequence_keeps_span_centered():
    cfg = EncoderConfig(max_len=9)
    text = "a b c d e f X g h i j k"
    seq = build_mention_sequence(mention(text, "X"), cfg)
    # budget of 6 context tokens, split evenly around the 3-token core
    assert list(seq.tokens) == ["d", "e", "f", MENTION_START, "x", MENTION_END, "g", "h", "i"]


@settings(max_examples=300, deadline=None)
@given(n_left=st.integers(0, 300), n_right=st.integers(0, 300), budget=st.integers(0, 130), n_span=st.integers(0, 20))
@example(n_left=0, n_right=0, budget=0, n_span=6)
@example(n_left=0, n_right=9, budget=0, n_span=6)
@example(n_left=9, n_right=0, budget=0, n_span=6)
@example(n_left=0, n_right=0, budget=126, n_span=0)
@example(n_left=5000, n_right=5000, budget=125, n_span=1)
def test_mention_window_equals_the_one_token_at_a_time_trim(n_left, n_right, budget, n_span):
    max_len = budget + n_span + 2  # budget: the context tokens that fit beside the marked span
    assume(max_len >= 8)
    left, span, right = ([f"{side}{i}" for i in range(n)] for side, n in (("l", n_left), ("m", n_span), ("r", n_right)))
    m = MentionRecord(doc_id="d", text="", span_start=0, span_end=0, mention="")
    seq = build_mention_sequence(m, EncoderConfig(max_len=max_len), (left, span, right))
    assert seq.tokens == oracles.mention_window(left, span, right, max_len)


def test_mention_too_long():
    cfg = EncoderConfig(max_len=8)
    surface = " ".join(f"m{i}" for i in range(10))
    with pytest.raises(MentionTooLong):
        build_mention_sequence(mention(surface, surface), cfg)


def test_entity_sequence_name_sep_description():
    cfg = EncoderConfig()
    e = EntityRecord(id="Q1", name="Apple", description="fruit of the apple tree")
    seq = build_entity_sequence(e, cfg)
    assert list(seq.tokens) == ["apple", NAME_DESC_SEP, "fruit", "of", "the", "apple", "tree"]


def test_entity_sequence_empty_description():
    seq = build_entity_sequence(EntityRecord(id="Q1", name="Apple", description=""), EncoderConfig())
    assert list(seq.tokens) == ["apple", NAME_DESC_SEP]


def test_entity_sequence_truncates_description_tail_only():
    cfg = EncoderConfig(max_len=128)
    desc = " ".join(f"d{i}" for i in range(300))
    seq = build_entity_sequence(EntityRecord(id="Q1", name="Long Name Here", description=desc), cfg)
    assert len(seq.tokens) == cfg.max_len
    assert list(seq.tokens[:4]) == ["long", "name", "here", NAME_DESC_SEP]
    assert list(seq.tokens[4:10]) == ["d0", "d1", "d2", "d3", "d4", "d5"]


def test_entity_name_too_long():
    cfg = EncoderConfig(max_len=8)
    name = " ".join(f"n{i}" for i in range(9))
    with pytest.raises(NameTooLong):
        build_entity_sequence(EntityRecord(id="Q1", name=name, description=""), cfg)


# -- encoding ----------------------------------------------------------------


def test_encode_zero_parameters_give_zero_vector():
    model = DualEncoder.initialize(SMALL)
    model.mention_params.embedding[:] = 0.0
    model.mention_params.projection[:] = 0.0
    model.mention_params.bias[:] = 0.0
    seq = MarkedSequence(tokens=("hello", "world"))
    y = encode(seq, model.mention_params, SMALL)
    assert np.all(y == 0.0)


def test_encode_is_deterministic():
    model = DualEncoder.initialize(SMALL)
    seq = build_entity_sequence(EntityRecord(id="Q", name="中国银行", description="bank 中国"), SMALL)
    first = encode(seq, model.entity_params, SMALL)
    second = encode(seq, model.entity_params, SMALL)
    assert np.array_equal(first, second)


def test_encode_single_token_matches_hand_matrix_multiply():
    cfg = EncoderConfig(dim=3, hash_buckets=32, ngram_orders=(1,), max_len=8, seed=0)
    model = DualEncoder.initialize(cfg)
    params = model.entity_params
    # Single token "a" yields exactly one feature; setting every embedding row
    # to v makes the pooled vector v regardless of the hash bucket.
    params.embedding[:] = np.array([1.0, 2.0, 3.0])
    params.projection[:] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
    params.bias[:] = np.array([0.5, -1.0, 0.0])
    y = encode(MarkedSequence(tokens=("a",)), params, cfg)
    # y = W @ v + b worked out by hand
    assert y == pytest.approx([7.5, 1.0, 6.0], abs=1e-12)


def test_marker_tokens_contribute_a_single_reserved_feature():
    cfg = EncoderConfig(dim=4, hash_buckets=64, ngram_orders=(1, 2, 3), max_len=8, seed=0)
    feats = sequence_features(MarkedSequence(tokens=(MENTION_START,)), cfg)
    assert feats.counts.sum() == 1.0
    assert feats.token_count == 1


# A small vocabulary makes tokens repeat inside and outside the span; tiny
# bucket counts make distinct features collide.
_TOKENS = st.one_of(
    st.sampled_from(["apple", "a", "ab", "中", "ß", "gpt4", "\u0130x"]),
    st.text(min_size=1, max_size=5),
)
_MARKER_OR_TOKEN = st.one_of(st.sampled_from([MENTION_START, MENTION_END, NAME_DESC_SEP]), _TOKENS)
_MARKED = st.one_of(
    st.builds(
        lambda left, span, right: (*left, MENTION_START, *span, MENTION_END, *right),
        st.lists(_TOKENS, max_size=8),
        st.lists(_TOKENS, min_size=1, max_size=4),
        st.lists(_TOKENS, max_size=8),
    ),
    st.lists(_MARKER_OR_TOKEN, max_size=16).map(tuple),
)


@lru_cache(maxsize=None)
def _featurizer_model(hash_buckets, ngram_orders):
    cfg = EncoderConfig(dim=4, hash_buckets=hash_buckets, ngram_orders=ngram_orders, max_len=16, seed=5)
    return cfg, DualEncoder.initialize(cfg).mention_params


@settings(max_examples=200, deadline=None)
@given(
    tokens=_MARKED,
    hash_buckets=st.sampled_from([7, 64, 2**16]),
    ngram_orders=st.sampled_from([(1, 2, 3), (2,), (3, 1)]),
)
def test_sequence_features_match_token_by_token_reference_bitwise(tokens, hash_buckets, ngram_orders):
    cfg, params = _featurizer_model(hash_buckets, ngram_orders)
    seq = MarkedSequence(tokens=tokens)
    got, want = sequence_features(seq, cfg), oracles.sequence_features(seq, cfg)
    assert got.buckets.dtype == want.buckets.dtype and got.counts.dtype == want.counts.dtype
    assert got.buckets.tobytes() == want.buckets.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.token_count == want.token_count
    assert encode(got, params, cfg).tobytes() == encode(want, params, cfg).tobytes()


def assert_features_equal(seq, cfg):
    got, want = sequence_features(seq, cfg), oracles.sequence_features(seq, cfg)
    assert got.buckets.tobytes() == want.buckets.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()


def test_the_token_memo_keeps_configs_apart():
    # The same tokens, in and out of the span, under two configs in turn:
    # an entry keyed by the token alone would hand one config the other's buckets.
    configs = [
        EncoderConfig(dim=4, hash_buckets=61, ngram_orders=(1, 2, 3), max_len=16),
        EncoderConfig(dim=4, hash_buckets=2**16, ngram_orders=(3, 2), max_len=16),
    ]
    tokens = ("apple", MENTION_START, "pie", "apple", MENTION_END, "pie", "tree")
    _token_buckets.cache_clear()
    for _ in range(2):
        for cfg in configs:
            assert_features_equal(MarkedSequence(tokens=tokens), cfg)
            assert_features_equal(MarkedSequence(tokens=tokens[2:4]), cfg)


def test_the_token_memo_is_bounded_and_exact_after_eviction():
    assert _token_buckets.cache_info().maxsize == TOKEN_BUCKETS_MEMO_SIZE
    cfg = EncoderConfig(dim=4, hash_buckets=4093, ngram_orders=(1, 3), max_len=16)
    first = tuple(f"t{i}" for i in range(64))
    _token_buckets.cache_clear()
    sequence_features(MarkedSequence(tokens=first), cfg)
    crowd = tuple(f"u{i}" for i in range(TOKEN_BUCKETS_MEMO_SIZE + 1000))
    assert_features_equal(MarkedSequence(tokens=crowd), cfg)
    assert _token_buckets.cache_info().currsize == TOKEN_BUCKETS_MEMO_SIZE
    misses = _token_buckets.cache_info().misses
    assert_features_equal(MarkedSequence(tokens=first), cfg)
    assert _token_buckets.cache_info().misses == misses + len(first)  # evicted, so hashed again


def test_score_pair_zero_vector():
    assert score_pair(np.ones(4), np.zeros(4)) == 0.0


def test_score_pair_all_ones_dim_64():
    assert score_pair(np.ones(64), np.ones(64)) == 64.0


def test_score_pair_matches_elementwise_oracle():
    rng = np.random.default_rng(12)
    y_m = rng.standard_normal(16)
    y_e = rng.standard_normal(16)
    expected = sum(float(a) * float(b) for a, b in zip(y_m, y_e))
    assert score_pair(y_m, y_e) == pytest.approx(expected, abs=1e-12)


def test_score_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        score_pair(np.ones(3), np.ones(4))


# -- loss and gradients ------------------------------------------------------


def small_world():
    kb = KnowledgeBase([
        EntityRecord(id=f"E{i}", name=f"name{i} tok{i}", description=f"desc{i} body word{i}")
        for i in range(8)
    ])
    records = [
        mention("some context name0 tok0 appears here", "name0 tok0", gold="E0", doc_id="t0"),
        mention("other text with name3 tok3 inside", "name3 tok3", gold="E3", doc_id="t1"),
        mention("中文 上下文 name5 tok5 出现", "name5 tok5", gold="E5", doc_id="t2"),
    ]
    return kb, Dataset(records=records, split="train")


def small_examples(tc=TrainConfig(seed=5)):
    kb, ds = small_world()
    retriever = Retriever.build(kb, AliasTable([]))
    return build_training_examples(ds, kb, retriever, tc, SMALL)


def test_uniform_scores_give_log_k_loss():
    model = DualEncoder.initialize(SMALL)
    for params in (model.mention_params, model.entity_params):
        params.embedding[:] = 0.0
        params.bias[:] = 0.0
    examples = small_examples(TrainConfig(seed=5, negatives_per_example=7))
    assert len(examples[0].candidates) == 8
    assert example_loss(model, examples[0]) == pytest.approx(math.log(8), abs=1e-9)


def test_loss_is_nonnegative():
    model = DualEncoder.initialize(SMALL)
    for example in small_examples():
        assert example_loss(model, example) >= 0.0


def test_analytic_gradients_match_finite_differences():
    model = DualEncoder.initialize(SMALL)
    examples = small_examples()
    _, grads_m, grads_e = batch_loss_and_grads(model, examples)
    eps = 1e-4
    rng = np.random.default_rng(81)

    def finite_difference(array, index):
        original = array[index]
        array[index] = original + eps
        up = dataset_loss(model, examples)
        array[index] = original - eps
        down = dataset_loss(model, examples)
        array[index] = original
        return (up - down) / (2.0 * eps)

    def check(analytic, array, index):
        fd = finite_difference(array, index)
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
        assert rel < 1e-4, f"analytic {analytic} vs fd {fd} at {index}"

    for params, grads in ((model.mention_params, grads_m), (model.entity_params, grads_e)):
        touched = grads.emb_buckets
        assert touched.size >= 5
        samples = 0
        for _ in range(12):
            bucket = int(touched[rng.integers(touched.size)])
            j = int(rng.integers(SMALL.dim))
            check(grads.embedding_row(bucket)[j], params.embedding, (bucket, j))
            samples += 1
        for _ in range(6):
            i, j = int(rng.integers(SMALL.dim)), int(rng.integers(SMALL.dim))
            check(grads.projection[i, j], params.projection, (i, j))
            samples += 1
        for _ in range(2):
            j = int(rng.integers(SMALL.dim))
            check(grads.bias[j], params.bias, (j,))
            samples += 1
        assert samples == 20


def test_untouched_embedding_rows_have_zero_gradient():
    model = DualEncoder.initialize(SMALL)
    examples = small_examples()
    _, grads_m, _ = batch_loss_and_grads(model, examples)
    untouched = next(b for b in range(SMALL.hash_buckets) if b not in set(grads_m.emb_buckets.tolist()))
    assert np.all(grads_m.embedding_row(untouched) == 0.0)


def assert_same_grads(got, want):
    for name in ("emb_buckets", "emb_grads", "projection", "bias"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# Marker tokens alone and empty token lists make sequences with one bucket and
# with none; a handful of buckets makes features of different tokens collide.
_GRAD_TOKENS = ["ab", "abc", "b", "ca", "中", MENTION_START, MENTION_END, NAME_DESC_SEP]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_gradients_equal_the_stacking_reference_bitwise(data):
    cfg = EncoderConfig(
        dim=data.draw(st.integers(1, 5), label="dim"),
        hash_buckets=data.draw(st.sampled_from([1, 2, 3, 7, 512]), label="hash_buckets"),
        max_len=8,
        seed=data.draw(st.integers(0, 3), label="seed"),
    )
    token_lists = data.draw(st.lists(st.lists(st.sampled_from(_GRAD_TOKENS), max_size=6), min_size=1, max_size=6))
    sequences = st.sampled_from([sequence_features(MarkedSequence(tuple(tokens)), cfg) for tokens in token_lists])
    examples = data.draw(st.lists(
        st.builds(
            lambda m, cs: TrainExample(mention=m, candidate_ids=[f"E{i}" for i in range(len(cs))], candidates=cs),
            sequences,
            st.lists(sequences, min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=4,
    ))
    # Indexes drawn with repeats put one example in the batch more than once.
    batch = [examples[i] for i in data.draw(st.lists(st.integers(0, len(examples) - 1), min_size=1, max_size=8))]
    model = DualEncoder.initialize(cfg)
    loss, grads_m, grads_e = batch_loss_and_grads(model, batch)
    want_loss, want_m, want_e = oracles.batch_loss_and_grads(model, batch)
    assert loss.hex() == want_loss.hex()
    assert_same_grads(grads_m, want_m)
    assert_same_grads(grads_e, want_e)


def test_a_batch_gradient_holds_one_row_per_distinct_bucket_not_one_per_sequence_bucket():
    kb, at, ds = build_synthetic(SynthSpec(seed=1, n_entities=300, n_aliases=450, n_mentions=64))
    ec = EncoderConfig(hash_buckets=2**14, seed=2)
    examples = build_training_examples(Dataset(ds.records, split="train"), kb, Retriever.build(kb, at), TrainConfig(), ec)
    model = DualEncoder.initialize(ec)
    sequences = [feats for example in examples for feats in (example.mention, *example.candidates)]
    dense_rows = sum(feats.buckets.size for feats in sequences) * ec.dim * 8
    tracemalloc.start()
    try:
        batch_loss_and_grads(model, examples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(examples) == 64
    assert peak < dense_rows


def test_training_reduces_loss_on_separable_data():
    kb, at, ds = build_synthetic(SynthSpec(
        seed=11, n_entities=60, n_aliases=80, n_mentions=200, ambiguity_rate=0.5, tail_rate=0.3,
    ))
    retriever = Retriever.build(kb, at)
    ec = EncoderConfig(dim=32, hash_buckets=4096, max_len=64, seed=5)
    tc = TrainConfig(learning_rate=0.05, epochs=2, batch_size=64, seed=5)
    _, stats = train(Dataset(ds.records, split="train"), kb, retriever, tc, ec)
    assert math.isfinite(stats.final_loss)
    assert stats.final_loss < stats.initial_loss


def test_training_is_bitwise_reproducible():
    kb, at, ds = build_synthetic(SynthSpec(
        seed=13, n_entities=30, n_aliases=40, n_mentions=60, ambiguity_rate=0.4, tail_rate=0.2,
    ))
    retriever = Retriever.build(kb, at)
    ec = EncoderConfig(dim=16, hash_buckets=1024, max_len=64, seed=9)
    tc = TrainConfig(epochs=1, seed=9)
    first, _ = train(Dataset(ds.records, split="train"), kb, retriever, tc, ec)
    second, _ = train(Dataset(ds.records, split="train"), kb, retriever, tc, ec)
    for a, b in (
        (first.mention_params, second.mention_params),
        (first.entity_params, second.entity_params),
    ):
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.bias, b.bias)


def test_train_rejects_missing_gold():
    kb, ds = small_world()
    records = ds.records + [mention("text name1 tok1 here", "name1 tok1", gold=None, doc_id="bad")]
    retriever = Retriever.build(kb, AliasTable([]))
    with pytest.raises(MissingGold):
        train(Dataset(records, split="train"), kb, retriever, TrainConfig(seed=1), SMALL)


def test_negatives_prefer_retrieved_candidates():
    kb, ds = small_world()
    retriever = Retriever.build(kb, AliasTable([]))
    examples = build_training_examples(ds, kb, retriever, TrainConfig(seed=5, negatives_per_example=3), SMALL)
    for example, record in zip(examples, ds.records):
        assert example.candidate_ids[0] == record.gold_id
        assert len(example.candidate_ids) == 4
        assert len(set(example.candidate_ids)) == 4


def test_negatives_are_cand1_then_the_seeded_fill_without_ranking_descriptions(monkeypatch):
    kb, at, ds = build_synthetic(SynthSpec(seed=3, n_entities=40, n_aliases=55, n_mentions=40))
    # Synth Cand1s hold at most one negative; six more entities under the
    # first mention's surface make one Cand1 longer than the quota.
    extra = [AliasEntry(alias=ds.records[0].mention, entity_id=e.id, prior=0.0) for e in kb.entities[:6]]
    retriever = Retriever.build(kb, AliasTable([*at.entries, *extra]))
    cand1s = [retriever.retrieve(kb, record).cand1 for record in ds.records]
    monkeypatch.setattr(retriever, "retrieve_fine", lambda *args: pytest.fail("ranked descriptions"))
    tc = TrainConfig(seed=4, negatives_per_example=4)
    examples = build_training_examples(ds, kb, retriever, tc, SMALL)

    # The random fill, drawn as it always has been: one seeded stream across
    # records, redrawing ids already chosen.
    rng = np.random.default_rng([tc.seed, 17])
    capped = filled = 0
    for example, record, cand1 in zip(examples, ds.records, cand1s):
        cand1 = [eid for eid in cand1 if eid != record.gold_id]
        negatives = cand1[: tc.negatives_per_example]
        capped += len(cand1) > tc.negatives_per_example
        chosen = {record.gold_id, *negatives}
        while len(negatives) < tc.negatives_per_example:
            entity_id = kb.entities[int(rng.integers(len(kb)))].id
            if entity_id not in chosen:
                chosen.add(entity_id)
                negatives.append(entity_id)
                filled += 1
        assert example.candidate_ids == [record.gold_id, *negatives]
    assert capped and filled


# -- store and rerank --------------------------------------------------------


def test_store_rows_equal_on_the_fly_encoding():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    rows = np.stack([model.encode_entity(entity) for entity in kb.entities])
    assert (store.matrix.dtype, store.matrix.shape, store.matrix.tobytes()) == (rows.dtype, rows.shape, rows.tobytes())
    assert precompute_entity_embeddings(model, KnowledgeBase([])).matrix.shape == (0, SMALL.dim)


def test_store_save_load_and_staleness(tmp_path):
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    path = tmp_path / "store.lxc"
    store.save(path)
    reloaded = EntityEmbeddingStore.load(path, kb)
    assert np.array_equal(reloaded.matrix, store.matrix)
    edited = KnowledgeBase(kb.entities + [EntityRecord(id="E99", name="new", description="")])
    with pytest.raises(StaleStore):
        EntityEmbeddingStore.load(path, edited)


def test_rerank_singleton():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    m = mention("talking about name4 tok4 today", "name4 tok4")
    assert [eid for eid, _ in rerank(model, store, m, ["E7"])] == ["E7"]


def test_rerank_orders_by_score_then_id():
    kb, _ = small_world()
    cfg = EncoderConfig(dim=2, hash_buckets=64, ngram_orders=(1,), max_len=16, seed=0)
    model = DualEncoder.initialize(cfg)
    # Hand-set parameters: y_m = (1, 0) for every mention, entity scores
    # controlled via constant embeddings.
    model.mention_params.embedding[:] = 0.0
    model.mention_params.projection[:] = 0.0
    model.mention_params.bias[:] = np.array([1.0, 0.0])
    model.entity_params.embedding[:] = 0.0
    model.entity_params.projection[:] = 0.0
    store = precompute_entity_embeddings(model, kb)
    store.matrix[0] = np.array([3.0, 9.9])
    store.matrix[1] = np.array([5.0, -1.0])
    m = mention("about name0 tok0", "name0 tok0")
    ranked = rerank(model, store, m, ["E0", "E1"])
    assert [eid for eid, _ in ranked] == ["E1", "E0"]
    assert ranked[0][1] == 5.0 and ranked[1][1] == 3.0


def test_rerank_matches_exhaustive_scoring_oracle():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    m = mention("mention of name2 tok2 in context", "name2 tok2")
    candidates = [e.id for e in kb.entities]
    got = rerank(model, store, m, candidates)
    y_m = model.encode_mention(m)
    expected = []
    for eid in candidates:
        y_e = model.encode_entity(kb.lookup(eid))
        expected.append((eid, sum(float(a) * float(b) for a, b in zip(y_m, y_e))))
    expected.sort(key=lambda pair: (-pair[1], pair[0]))
    assert [eid for eid, _ in got] == [eid for eid, _ in expected]
    for (_, s_got), (_, s_exp) in zip(got, expected):
        assert s_got == pytest.approx(s_exp, abs=1e-9)


def test_rerank_scores_each_candidate_as_score_pair_does_bitwise():
    kb = KnowledgeBase([
        EntityRecord(id=f"E{i}", name=f"name{i} tok{i % 7}", description=f"desc{i % 5} body word{i}")
        for i in range(40)
    ])
    cfg = EncoderConfig(dim=64, hash_buckets=4096, max_len=32, seed=8)
    model = DualEncoder.initialize(cfg)
    store = precompute_entity_embeddings(model, kb)
    ids = [entity.id for entity in kb.entities]
    rng = np.random.default_rng(14)
    for i in range(60):
        m = mention(f"talk of name{i % 40} tok{i % 7} and word{i}", f"name{i % 40}")
        y_m = model.encode_mention(m)
        candidates = [str(eid) for eid in rng.choice(ids, size=rng.integers(1, 31), replace=False)]
        got = rerank(model, store, m, candidates)
        assert sorted(eid for eid, _ in got) == sorted(candidates)
        assert {eid: score.hex() for eid, score in got} == {
            eid: score_pair(y_m, store.row(eid)).hex() for eid in candidates
        }
    narrow = precompute_entity_embeddings(DualEncoder.initialize(EncoderConfig(dim=32, hash_buckets=4096, seed=8)), kb)
    with pytest.raises(DimensionMismatch):
        rerank(model, narrow, m, ids[:3])


def test_rerank_unknown_candidate():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    m = mention("about name0 tok0", "name0 tok0")
    with pytest.raises(UnknownCandidate):
        rerank(model, store, m, ["nope"])


def test_rerank_empty_candidates():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    m = mention("about name0 tok0", "name0 tok0")
    assert rerank(model, store, m, []) == []


def test_markers_are_not_inert():
    cfg = EncoderConfig(dim=16, hash_buckets=2048, max_len=32, seed=21)
    model = DualEncoder.initialize(cfg)
    text = "alpha beta gamma delta"
    m1 = mention(text, "alpha")
    m2 = mention(text, "gamma")
    assert not np.allclose(model.encode_mention(m1), model.encode_mention(m2))


def test_rerank_order_invariant_under_positive_scaling():
    kb, _ = small_world()
    model = DualEncoder.initialize(SMALL)
    store = precompute_entity_embeddings(model, kb)
    m = mention("context name6 tok6 words", "name6 tok6")
    candidates = [e.id for e in kb.entities]
    base = rerank(model, store, m, candidates)

    c = 3.7
    scaled = DualEncoder.initialize(SMALL)
    for source, target in (
        (model.mention_params, scaled.mention_params),
        (model.entity_params, scaled.entity_params),
    ):
        target.embedding[:] = source.embedding
        target.projection[:] = c * source.projection
        target.bias[:] = c * source.bias
    scaled_store = precompute_entity_embeddings(scaled, kb)
    result = rerank(scaled, scaled_store, m, candidates)
    assert [eid for eid, _ in result] == [eid for eid, _ in base]
    for (_, s_base), (_, s_scaled) in zip(base, result):
        assert s_scaled == pytest.approx(c * c * s_base, rel=1e-9)


# -- model artifact ----------------------------------------------------------


def test_model_save_load_round_trip(tmp_path):
    kb, at, ds = build_synthetic(SynthSpec(
        seed=3, n_entities=20, n_aliases=25, n_mentions=30, ambiguity_rate=0.2, tail_rate=0.2,
    ))
    retriever = Retriever.build(kb, at)
    ec = EncoderConfig(dim=16, hash_buckets=1024, max_len=64, seed=4)
    model, _ = train(Dataset(ds.records, split="train"), kb, retriever, TrainConfig(seed=4), ec)
    path = tmp_path / "model.lxc"
    model.save(path)
    reloaded = DualEncoder.load(path)
    assert reloaded.cfg == model.cfg
    assert reloaded.train_seed == 4
    assert np.array_equal(reloaded.mention_params.embedding, model.mention_params.embedding)
    assert np.array_equal(reloaded.entity_params.projection, model.entity_params.projection)
    m = ds.records[0]
    assert np.array_equal(reloaded.encode_mention(m), model.encode_mention(m))


def test_saving_a_model_copies_none_of_its_arrays(tmp_path):
    model = DualEncoder.initialize(EncoderConfig(hash_buckets=2**14, seed=6))
    array_bytes = sum(
        getattr(params, name).nbytes
        for params in (model.mention_params, model.entity_params)
        for name in ("embedding", "projection", "bias")
    )
    tracemalloc.start()
    try:
        model.save(tmp_path / "model.lxc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * array_bytes
    assert (tmp_path / "model.lxc").stat().st_size > array_bytes
