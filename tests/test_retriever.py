import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lexlink import retriever as retriever_module
from lexlink.bm25 import Bm25Index, Bm25Params
from lexlink.corpus import AliasEntry, AliasTable, EntityRecord, KnowledgeBase, MentionRecord
from lexlink.errors import ArtifactFormatError, DataError, StaleIndex
from lexlink.pipeline import Pipeline
from lexlink.reranker import DualEncoder, EncoderConfig, precompute_entity_embeddings
from lexlink.retriever import (
    DESCRIPTION_COUNTS_MEMO_SIZE,
    FINE_QUERY_TOKEN_LIMIT,
    Retriever,
    RetrieverConfig,
    _description_counts,
    merge_coarse,
)
from lexlink.tokenizer import tokenize

from oracles import bm25_ranking, bm25_term_rankings, bm25_top_k, term_map_items


def mention(text, surface, gold=None):
    start = text.index(surface)
    return MentionRecord(
        doc_id="d",
        text=text,
        span_start=start,
        span_end=start + len(surface),
        mention=surface,
        gold_id=gold,
    )


@pytest.fixture
def retriever(fruit_kb, fruit_aliases):
    return Retriever.build(fruit_kb, fruit_aliases)


# -- build -------------------------------------------------------------------


def test_build_one_document_per_record(fruit_kb, fruit_aliases):
    r = Retriever.build(fruit_kb, fruit_aliases)
    assert r.kb_index.doc_count == 3
    assert r.at_index.doc_count == 5


def test_build_empty_alias_table(fruit_kb):
    r = Retriever.build(fruit_kb, AliasTable([]))
    assert r.at_index.doc_count == 0
    cand_at, cand_kb = r.retrieve_coarse("Apple")
    assert cand_at == []
    assert cand_kb


def test_build_rejects_alias_targets_missing_from_the_kb(fruit_kb):
    ghosts = [f"G{n}" for n in (3, 1, 3, 2, 12, 11, 10, 9, 8, 7, 6, 5, 4)]
    at = AliasTable([AliasEntry(alias="Apple", entity_id="Q1", prior=0.1)] + [
        AliasEntry(alias=f"ghost{i}", entity_id=entity_id, prior=0.5) for i, entity_id in enumerate(ghosts)
    ])
    with pytest.raises(DataError) as info:
        Retriever.build(fruit_kb, at)
    # The first ten distinct missing ids, in table order.
    assert str(info.value) == f"alias table references unknown entities: {list(dict.fromkeys(ghosts))[:10]}"


def test_duplicate_alias_strings_stay_separate_documents(fruit_kb, fruit_aliases):
    r = Retriever.build(fruit_kb, fruit_aliases)
    apple_docs = [i for i, e in enumerate(r.alias_table.entries) if e.alias == "Apple"]
    assert len(apple_docs) == 2


def test_a_string_that_is_an_alias_and_a_name_is_tokenized_once_for_both_indexes(monkeypatch):
    """Each distinct alias or name string is tokenized once, and its one token
    list stands for all its documents in both indexes. The indexes equal
    those built from a fresh token list per document, and queries leave
    both as built."""
    names = ["Iron River", "gold crane", "Iron River", "petal", "river gold"]
    kb_rows = [(f"E{i}", name) for i, name in enumerate(names)]
    at = AliasTable([AliasEntry(alias=name, entity_id=eid, prior=0.5) for eid, name in kb_rows] + [
        AliasEntry(alias="river", entity_id="E4", prior=0.5),
        AliasEntry(alias="gold crane", entity_id="E4", prior=0.5),
    ])
    aliases = [entry.alias for entry in at.entries]
    tokenized, built = [], []
    monkeypatch.setattr(retriever_module, "tokenize", lambda text: tokenized.append(text) or tokenize(text))
    real_build = Bm25Index.build
    record = classmethod(lambda cls, docs, params: built.append(docs) or real_build(docs, params))
    monkeypatch.setattr(Bm25Index, "build", record)
    r = Retriever(at, kb_rows, RetrieverConfig())
    monkeypatch.undo()

    assert sorted(tokenized) == sorted({*aliases, *names})
    at_docs, kb_docs = built
    for i, alias in enumerate(aliases):
        assert all(kb_docs[j] is at_docs[i] for j, name in enumerate(names) if name == alias)
        assert all(at_docs[j] is at_docs[i] for j, other in enumerate(aliases) if other == alias)
    separate = Bm25Index.build([tokenize(a) for a in aliases]), Bm25Index.build([tokenize(n) for n in names])

    def assert_as_built():
        for index, fresh in zip((r.at_index, r.kb_index), separate):
            assert index.postings == fresh.postings
            assert term_map_items(index) == term_map_items(fresh)

    assert_as_built()
    for query in ["iron river", "river", "gold", "Gold Crane", "petal river gold", "absent"]:
        r.retrieve_coarse(query)
    assert_as_built()


# -- coarse ------------------------------------------------------------------


def test_exact_unique_name_heads_kb_candidates():
    kb = KnowledgeBase([
        EntityRecord(id="Q1", name="zebra", description=""),
        EntityRecord(id="Q2", name="yak", description=""),
        EntityRecord(id="Q3", name="marmot", description=""),
    ])
    r = Retriever.build(kb, AliasTable([]))
    _, cand_kb = r.retrieve_coarse("zebra")
    assert cand_kb == ["Q1"]


def test_alias_hit_expands_full_bucket_in_prior_order(fruit_kb, fruit_aliases):
    r = Retriever.build(fruit_kb, fruit_aliases)
    cand_at, _ = r.retrieve_coarse("BigA")
    assert cand_at == ["Q2", "Q1"]


def test_empty_mention_yields_empty_sets(retriever):
    assert retriever.retrieve_coarse("") == ([], [])


def test_cand_kb_matches_brute_force_over_names():
    rng = random.Random(31)
    words = ["north", "south", "bank", "river", "union", "trust", "light", "house"]
    kb = KnowledgeBase([
        EntityRecord(id=f"E{i:02d}", name=f"{rng.choice(words)} {rng.choice(words)}", description="")
        for i in range(20)
    ])
    r = Retriever.build(kb, AliasTable([]))
    query_text = "bank union"
    _, cand_kb = r.retrieve_coarse(query_text)
    docs = [tokenize(e.name) for e in kb.entities]
    expected = bm25_ranking(docs, tokenize(query_text), 1.5, 0.75, 10)
    assert cand_kb == [kb.entities[i].id for i, _ in expected]


def test_cand_at_truncated_to_k_at():
    entries = [AliasEntry(alias="hub", entity_id=f"E{i}", prior=round(1 / 40, 6)) for i in range(30)]
    kb = KnowledgeBase([EntityRecord(id=f"E{i}", name=f"n{i}", description="") for i in range(30)])
    r = Retriever.build(kb, AliasTable(entries), RetrieverConfig(k_at=10))
    cand_at, _ = r.retrieve_coarse("hub")
    assert len(cand_at) == 10
    # equal priors: expansion order falls back to entity id ascending
    assert cand_at == sorted((f"E{i}" for i in range(30)))[:10]


# -- merge -------------------------------------------------------------------


def test_merge_stable_union():
    assert merge_coarse(["Q1", "Q2"], ["Q2", "Q3"]) == ["Q1", "Q2", "Q3"]


def test_merge_empty_left():
    assert merge_coarse([], ["Q5"]) == ["Q5"]


def test_merge_full_overlap():
    assert merge_coarse(["Q1"], ["Q1"]) == ["Q1"]


_WORDS = ("iron", "gold", "river", "petal", "crane")


@st.composite
def alias_worlds(draw):
    """Entities named from a few shared words, and unique aliases of one or
    two of those words, each shared by two or three entities at priors that
    may tie (then the entity id decides)."""
    n = draw(st.integers(3, 8))
    ids = [f"E{i}" for i in range(n)]
    phrase = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(" ".join)
    kb_rows = [(entity_id, draw(phrase)) for entity_id in ids]
    entries = [
        AliasEntry(alias=alias, entity_id=entity_id, prior=draw(st.sampled_from((0.1, 0.2, 0.3))))
        for alias in draw(st.lists(phrase, min_size=1, max_size=6, unique=True))
        for entity_id in draw(st.lists(st.sampled_from(ids), min_size=2, max_size=3, unique=True))
    ]
    return AliasTable(entries), kb_rows


def test_coarse_lists_equal_the_one_entity_at_a_time_reference():
    """``retrieve_coarse`` and ``merge_coarse`` against the seen-set loops in
    ``oracles``, on draws that cut ``k_at`` inside one alias's entity list and
    draws that meet one entity under two hit aliases."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(
        world=alias_worlds(),
        k_at=st.integers(1, 5),
        k_kb=st.integers(1, 5),
        queries=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join), max_size=4),
    )
    def check(world, k_at, k_kb, queries):
        at, kb_rows = world
        r = Retriever(at, kb_rows, RetrieverConfig(k_at=k_at, k_kb=k_kb))
        for query in queries:
            cand_at, cand_kb = r.retrieve_coarse(query)
            assert (cand_at, cand_kb) == oracles.retrieve_coarse(r, query)
            assert merge_coarse(cand_at, cand_kb) == oracles.merge_coarse(cand_at, cand_kb)
            assert merge_coarse(cand_kb, cand_at) == oracles.merge_coarse(cand_kb, cand_at)
            # Each hit's alias, and the hit that first yields each entity.
            aliases = [at.entries[hit.doc_index].alias for hit in r.at_index.top_k(tokenize(query), k_at)]
            first = {}
            for i, alias in enumerate(aliases):
                for p in at.by_alias[alias]:
                    first.setdefault(at.entries[p].entity_id, i)
            if sum(len(at.by_alias[alias]) for alias in set(aliases)) > len(first):
                seen.add("repeat across hit aliases")
            order = list(first)
            if len(order) > k_at and first[order[k_at - 1]] == first[order[k_at]]:
                seen.add("cut inside one alias")

    check()
    assert seen == {"repeat across hit aliases", "cut inside one alias"}


# -- fine --------------------------------------------------------------------


def test_fine_single_candidate_with_token_overlap(fruit_kb, retriever):
    cand2 = retriever.retrieve_fine(fruit_kb, "the fruit bowl", ["Q1"])
    assert cand2 == ["Q1"]


def test_fine_excludes_zero_score_candidates(fruit_kb, retriever):
    cand2 = retriever.retrieve_fine(fruit_kb, "完全无关 totally unrelated words", ["Q1", "Q2", "Q3"])
    assert cand2 == []


def test_fine_matches_brute_force_over_descriptions():
    rng = random.Random(77)
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]
    kb = KnowledgeBase([
        EntityRecord(
            id=f"E{i}",
            name=f"name{i}",
            description=" ".join(rng.choice(words) for _ in range(rng.randrange(1, 8))),
        )
        for i in range(10)
    ])
    r = Retriever.build(kb, AliasTable([]))
    cand1 = [e.id for e in kb.entities]
    doc_text = "alpha sigma delta alpha"
    got = r.retrieve_fine(kb, doc_text, cand1)
    docs = [tokenize(e.description) for e in kb.entities]
    expected = bm25_ranking(docs, tokenize(doc_text), 1.5, 0.75, 10)
    assert got == [kb.entities[i].id for i, _ in expected]


def test_fine_empty_candidates(fruit_kb, retriever):
    assert retriever.retrieve_fine(fruit_kb, "anything", []) == []


def test_fine_over_empty_descriptions_returns_nothing():
    kb = KnowledgeBase([EntityRecord(id=f"Q{i}", name=f"name {i}", description="") for i in range(3)])
    r = Retriever.build(kb, AliasTable([]))
    assert r.retrieve_fine(kb, "name of anything", ["Q0", "Q1", "Q2"]) == []


# -- full cascade ------------------------------------------------------------


def test_retrieve_empty_mention_and_document(fruit_kb, retriever):
    m = MentionRecord(doc_id="d", text="。", span_start=0, span_end=1, mention="。")
    result = retriever.retrieve(fruit_kb, m)
    assert result.cand_at == result.cand_kb == result.cand1 == result.cand2 == []
    assert result.top1_at is result.top1_kb is result.top1_desc is None


def test_retrieve_composes_stage_oracles(fruit_kb, retriever):
    m = mention("I bought an Apple phone from the technology company", "Apple")
    result = retriever.retrieve(fruit_kb, m)
    cand_at, cand_kb = retriever.retrieve_coarse(m.mention)
    cand1 = merge_coarse(cand_at, cand_kb)
    cand2 = retriever.retrieve_fine(fruit_kb, m.text, cand1)
    assert result.cand_at == cand_at
    assert result.cand_kb == cand_kb
    assert result.cand1 == cand1
    assert result.cand2 == cand2
    assert result.top1_at == cand_at[0]
    assert result.top1_desc == cand2[0]


def test_retrieve_result_top1s_are_stage_heads(fruit_kb, retriever):
    m = mention("the Banana was yellow tropical", "Banana")
    result = retriever.retrieve(fruit_kb, m)
    assert result.top1_kb == result.cand_kb[0] == "Q3"
    assert result.top1_desc == "Q3"


def random_world(rng, n_entities=30, n_aliases=45):
    words = ["iron", "gold", "river", "petal", "crane", "maple", "stone", "cloud", "中", "华", "银", "行"]
    entities = [
        EntityRecord(
            id=f"E{i:02d}",
            name=" ".join(rng.choice(words) for _ in range(rng.randrange(1, 3))),
            description=" ".join(rng.choice(words) for _ in range(rng.randrange(0, 10))),
        )
        for i in range(n_entities)
    ]
    entries = [
        AliasEntry(
            alias=" ".join(rng.choice(words) for _ in range(rng.randrange(1, 3))),
            entity_id=f"E{rng.randrange(n_entities):02d}",
            prior=0.0,
        )
        for _ in range(n_aliases)
    ]
    return KnowledgeBase(entities), AliasTable(entries)


def random_mentions(rng, n):
    words = ["iron", "gold", "river", "petal", "crane", "maple", "stone", "cloud", "中", "华"]
    for i in range(n):
        surface = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 3)))
        text = f"{surface} " + " ".join(rng.choice(words) for _ in range(rng.randrange(0, 12)))
        yield MentionRecord(doc_id=f"d{i}", text=text, span_start=0, span_end=len(surface), mention=surface)


def test_subset_and_cap_invariants_over_random_mentions():
    rng = random.Random(20230917)
    kb, at = random_world(rng)
    cfg = RetrieverConfig(k_at=4, k_kb=5, k_desc=3)
    r = Retriever.build(kb, at, cfg)
    for m in random_mentions(rng, 200):
        result = r.retrieve(kb, m)
        cand1 = set(result.cand1)
        assert set(result.cand2) <= cand1
        assert set(result.cand_at) <= cand1
        assert set(result.cand_kb) <= cand1
        assert len(result.cand_at) <= cfg.k_at
        assert len(result.cand_kb) <= cfg.k_kb
        assert len(result.cand2) <= cfg.k_desc
        assert len(result.cand1) <= cfg.k_at + cfg.k_kb
        assert len(cand1) == len(result.cand1)  # duplicate-free


def test_retrieve_is_deterministic(fruit_kb, retriever):
    m = mention("an Apple from the tree", "Apple")
    assert retriever.retrieve(fruit_kb, m) == retriever.retrieve(fruit_kb, m)


def test_fine_stage_ignores_tokens_beyond_limit(fruit_kb, retriever):
    base_tokens = ["fruit"] * FINE_QUERY_TOKEN_LIMIT
    text_a = " ".join(base_tokens + ["company"] * 40)
    text_b = " ".join(base_tokens + ["tree", "cupertino"] * 20)
    m_a = MentionRecord(doc_id="a", text=text_a, span_start=0, span_end=5, mention="fruit")
    m_b = MentionRecord(doc_id="b", text=text_b, span_start=0, span_end=5, mention="fruit")
    cand1 = ["Q1", "Q2", "Q3"]
    assert retriever.retrieve_fine(fruit_kb, m_a.text, cand1) == retriever.retrieve_fine(fruit_kb, m_b.text, cand1)


# -- description token memo --------------------------------------------------


def test_the_description_memo_keeps_edited_kbs_apart(fruit_kb, fruit_aliases):
    # The same ids under two KBs, Q1's description edited in one, linked in
    # turn: an entry keyed by entity id would hand one KB the other's tokens.
    edited = KnowledgeBase(
        EntityRecord(id=e.id, name=e.name, description="a green leaf" if e.id == "Q1" else e.description)
        for e in fruit_kb.entities
    )
    model = DualEncoder.initialize(EncoderConfig(dim=8, hash_buckets=512, max_len=32, seed=1))
    pipelines = [
        Pipeline(
            kb=kb,
            retriever=Retriever.build(kb, fruit_aliases),
            model=model,
            store=precompute_entity_embeddings(model, kb),
        )
        for kb in (fruit_kb, edited)
    ]
    m = mention("I bought an Apple phone from the fruit tree", "Apple")
    assert len({tuple(oracles.link(p, m).retrieval.cand2) for p in pipelines}) == 2
    _description_counts.cache_clear()
    for _ in range(2):
        for p in pipelines:
            assert p.link(m) == oracles.link(p, m)


def test_the_description_memo_is_bounded_and_exact_after_eviction():
    assert _description_counts.cache_info().maxsize == DESCRIPTION_COUNTS_MEMO_SIZE
    rng = random.Random(8)
    words = ["alpha", "beta", "gamma", "delta"]
    n = DESCRIPTION_COUNTS_MEMO_SIZE + 256
    descriptions = [" ".join([f"d{i}", *rng.choices(words, k=rng.randrange(6))]) for i in range(n)]
    kb = KnowledgeBase(EntityRecord(id=f"E{i}", name=f"name{i}", description=d) for i, d in enumerate(descriptions))
    r = Retriever.build(kb, AliasTable([]))
    doc_text = "alpha d0 delta d4000 alpha d31"

    def assert_ranked_as_the_oracle(cand1):
        docs = [oracles.tokenize(kb.lookup(entity_id).description) for entity_id in cand1]
        want = oracles.bm25_top_k(docs, oracles.tokenize(doc_text), 1.5, 0.75, r.config.k_desc)
        assert r.retrieve_fine(kb, doc_text, cand1) == [cand1[i] for i, _ in want]

    ids = [e.id for e in kb.entities]
    first, *crowd = [ids[i : i + 32] for i in range(0, len(ids), 32)]
    _description_counts.cache_clear()
    assert_ranked_as_the_oracle(first)
    for cand1 in crowd:
        assert_ranked_as_the_oracle(cand1)
    assert _description_counts.cache_info().currsize == DESCRIPTION_COUNTS_MEMO_SIZE
    misses = _description_counts.cache_info().misses
    assert_ranked_as_the_oracle(first)
    assert _description_counts.cache_info().misses == misses + len(first)  # evicted, so tokenized again


def test_the_fine_stage_tokenizes_each_description_once(monkeypatch, fruit_kb, retriever):
    calls = Counter()

    def counting_tokenize(text):
        calls[text] += 1
        return tokenize(text)

    monkeypatch.setattr(retriever_module, "tokenize", counting_tokenize)
    _description_counts.cache_clear()
    doc_text = "an apple from the fruit tree"
    for _ in range(2):
        assert retriever.retrieve_fine(fruit_kb, doc_text, ["Q1", "Q2", "Q3"])
    assert calls == Counter({doc_text: 2, **{e.description: 1 for e in fruit_kb.entities}})


# -- serialization -----------------------------------------------------------


def test_retriever_save_load_round_trip(tmp_path, fruit_kb, fruit_aliases):
    cfg = RetrieverConfig(bm25_params=Bm25Params(k1=1.3, b=0.6))
    r = Retriever.build(fruit_kb, fruit_aliases, cfg)
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    r.save(at_path, kb_path)
    reloaded = Retriever.load(at_path, kb_path, cfg)
    m = mention("an Apple a day", "Apple")
    assert reloaded.retrieve(fruit_kb, m) == r.retrieve(fruit_kb, m)
    assert reloaded.kb_rows == r.kb_rows
    assert reloaded.alias_table.entries == r.alias_table.entries


def test_save_load_round_trip_keeps_both_indexes(tmp_path):
    rng = random.Random(5)
    cfg = RetrieverConfig(bm25_params=Bm25Params(k1=1.2, b=0.4))
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    for _ in range(10):
        kb, aliases = random_world(rng, rng.randrange(1, 31), rng.randrange(1, 46))
        built = Retriever.build(kb, aliases, cfg)
        built.save(at_path, kb_path)
        loaded = Retriever.load(at_path, kb_path, cfg)
        rows = {"at_index": [e.alias for e in aliases.entries], "kb_index": [e.name for e in kb.entities]}
        for name, texts in rows.items():
            before, after, docs = getattr(built, name), getattr(loaded, name), [tokenize(t) for t in texts]
            assert after.postings == before.postings
            assert term_map_items(after) == bm25_term_rankings(before)
            query = [rng.choice([*sorted(before.postings), "absent"]) for _ in range(3)]
            # The loaded index scores with the configured params over the stored rows.
            want = [(d, score.hex()) for d, score in bm25_top_k(docs, query, 1.2, 0.4, 10)]
            assert [(hit.doc_index, hit.score.hex()) for hit in after.top_k(query, 10)] == want
            assert after.top_k(query, 10) == before.top_k(query, 10)


def test_load_rejects_wrong_format_tag(tmp_path, retriever):
    at_path, kb_path, bad = tmp_path / "at.json", tmp_path / "kb.json", tmp_path / "bad.json"
    retriever.save(at_path, kb_path)
    bad.write_text('{"format": "something-else/9"}', encoding="utf-8")
    for paths, culprit, expected, got in (
        ((bad, kb_path), bad, "lexlink.at-index/3", "something-else/9"),
        ((at_path, bad), bad, "lexlink.kb-index/3", "something-else/9"),
        ((kb_path, at_path), kb_path, "lexlink.at-index/3", "lexlink.kb-index/3"),
    ):
        with pytest.raises(ArtifactFormatError) as info:
            Retriever.load(*paths)
        assert str(info.value) == f"{culprit}: expected format {expected!r}, got {got!r}; rerun build-index"


def test_load_scores_with_the_configured_bm25_params(tmp_path):
    # Names and aliases of one to three tokens, so that b changes the length norms.
    kb = KnowledgeBase(
        EntityRecord(id=f"Q{i}", name=name, description="")
        for i, name in enumerate(["apple", "apple pie", "big apple tree", "pie"])
    )
    aliases = AliasTable(
        AliasEntry(alias=alias, entity_id=entity_id, prior=1.0)
        for alias, entity_id in [("apple", "Q0"), ("big apple", "Q2"), ("apple pie crust", "Q1"), ("pie", "Q3")]
    )
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    Retriever.build(kb, aliases).save(at_path, kb_path)
    cfg = RetrieverConfig(bm25_params=Bm25Params(b=0.2))
    loaded = Retriever.load(at_path, kb_path, cfg)
    rows = {"at_index": [e.alias for e in aliases.entries], "kb_index": [e.name for e in kb.entities]}
    for name, texts in rows.items():
        docs = [tokenize(text) for text in texts]
        for query in (["apple"], ["pie"], ["apple", "pie"], ["big", "tree"]):
            want = [(d, score.hex()) for d, score in bm25_top_k(docs, query, 1.5, 0.2, 4)]
            assert [(hit.doc_index, hit.score.hex()) for hit in getattr(loaded, name).top_k(query, 4)] == want
    built, default = Retriever.build(kb, aliases, cfg), Retriever.build(kb, aliases)
    for index in ("at_index", "kb_index"):
        assert term_map_items(getattr(loaded, index)) == term_map_items(getattr(built, index))
        assert term_map_items(getattr(loaded, index)) != term_map_items(getattr(default, index))


def test_a_loaded_index_older_than_the_kb_raises_stale_index_naming_the_entity(tmp_path, retriever, fruit_kb):
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    retriever.save(at_path, kb_path)
    loaded = Retriever.load(at_path, kb_path)
    newer = KnowledgeBase(entity for entity in fruit_kb if entity.id != "Q1")
    with pytest.raises(StaleIndex) as info:
        loaded.retrieve(newer, mention("an Apple a day", "Apple"))
    assert info.value.entity_id == "Q1"
    assert "'Q1'" in str(info.value) and "rerun build-index" in str(info.value)
