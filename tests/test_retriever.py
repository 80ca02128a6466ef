import json
import random

import pytest

from lexlink.bm25 import Bm25Params
from lexlink.corpus import AliasEntry, AliasTable, EntityRecord, KnowledgeBase, MentionRecord
from lexlink.errors import ArtifactFormatError
from lexlink.retriever import (
    FINE_QUERY_TOKEN_LIMIT,
    Retriever,
    RetrieverConfig,
    merge_coarse,
)
from lexlink.tokenizer import tokenize

from oracles import bm25_ranking


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


def test_duplicate_alias_strings_stay_separate_documents(fruit_kb, fruit_aliases):
    r = Retriever.build(fruit_kb, fruit_aliases)
    apple_docs = [i for i, e in enumerate(r.alias_rows) if e.alias == "Apple"]
    assert len(apple_docs) == 2


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


def test_alias_expansion_best_takes_top_prior_only(fruit_kb, fruit_aliases):
    r = Retriever.build(fruit_kb, fruit_aliases, RetrieverConfig(alias_expansion="best"))
    cand_at, _ = r.retrieve_coarse("BigA")
    assert cand_at == ["Q2"]


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


def test_subset_and_cap_invariants_over_random_mentions():
    rng = random.Random(20230917)
    kb, at = random_world(rng)
    cfg = RetrieverConfig(k_at=4, k_kb=5, k_desc=3)
    r = Retriever.build(kb, at, cfg)
    words = ["iron", "gold", "river", "petal", "crane", "maple", "stone", "cloud", "中", "华"]
    for i in range(200):
        surface = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 3)))
        text = f"{surface} " + " ".join(rng.choice(words) for _ in range(rng.randrange(0, 12)))
        m = MentionRecord(doc_id=f"d{i}", text=text, span_start=0, span_end=len(surface), mention=surface)
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


def test_disabled_stages_drop_candidates_and_votes(fruit_kb, retriever):
    m = mention("I bought an Apple phone", "Apple")
    result = retriever.retrieve(fruit_kb, m, disabled=frozenset(("at_bm25",)))
    assert result.cand_at == []
    assert result.top1_at is None
    assert result.cand1 == result.cand_kb


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
    assert reloaded.alias_rows == r.alias_rows


def test_save_load_round_trip_keeps_both_indexes(tmp_path):
    rng = random.Random(5)
    cfg = RetrieverConfig(bm25_params=Bm25Params(k1=1.2, b=0.4))
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    for _ in range(10):
        kb, aliases = random_world(rng, rng.randrange(1, 31), rng.randrange(1, 46))
        built = Retriever.build(kb, aliases, cfg)
        built.save(at_path, kb_path)
        loaded = Retriever.load(at_path, kb_path, cfg)
        for before, after in ((built.at_index, loaded.at_index), (built.kb_index, loaded.kb_index)):
            assert after.postings == before.postings
            assert after.doc_lengths == before.doc_lengths
            assert after.norms == before.norms
            assert after.params == before.params
            query = [rng.choice([*sorted(before.postings), "absent"]) for _ in range(3)]
            assert after.top_k(query, 10) == before.top_k(query, 10)


def test_load_rejects_wrong_format_tag(tmp_path, retriever):
    at_path, kb_path, bad = tmp_path / "at.json", tmp_path / "kb.json", tmp_path / "bad.json"
    retriever.save(at_path, kb_path)
    bad.write_text('{"format": "something-else/9"}', encoding="utf-8")
    for paths, culprit, expected, got in (
        ((bad, kb_path), bad, "lexlink.at-index/2", "something-else/9"),
        ((at_path, bad), bad, "lexlink.kb-index/2", "something-else/9"),
        ((kb_path, at_path), kb_path, "lexlink.at-index/2", "lexlink.kb-index/2"),
    ):
        with pytest.raises(ArtifactFormatError) as info:
            Retriever.load(*paths)
        assert str(info.value) == f"{culprit}: expected format {expected!r}, got {got!r}"


def test_load_scores_with_the_configured_bm25_params(tmp_path, fruit_kb, fruit_aliases):
    at_path, kb_path = tmp_path / "at.json", tmp_path / "kb.json"
    Retriever.build(fruit_kb, fruit_aliases).save(at_path, kb_path)
    cfg = RetrieverConfig(bm25_params=Bm25Params(b=0.2))
    loaded = Retriever.load(at_path, kb_path, cfg)
    assert loaded.at_index.params == loaded.kb_index.params == cfg.bm25_params
    built = Retriever.build(fruit_kb, fruit_aliases, cfg)
    assert loaded.at_index.norms == built.at_index.norms
    assert loaded.kb_index.norms == built.kb_index.norms


@pytest.mark.parametrize(
    "culprit,edit,message",
    [
        ("kb", lambda meta: meta["entity_ids"].pop(), "3 documents but 2 entity_ids"),
        ("at", lambda meta: meta["entries"].append(meta["entries"][0]), "5 documents but 6 entries"),
        ("kb", lambda meta: meta["index"]["postings"]["apple"].append([3, 1]), "outside 3 documents"),
        ("kb", lambda meta: meta["index"]["postings"]["apple"].append([-1, 1]), "outside 3 documents"),
        ("at", lambda meta: meta["index"]["postings"]["banana"][0].__setitem__(1, 0), "tf < 1"),
        ("at", lambda meta: meta["index"]["doc_lengths"].__setitem__(0, -1), "document lengths differ"),
    ],
)
def test_load_rejects_an_index_that_contradicts_itself(tmp_path, retriever, culprit, edit, message):
    paths = {"at": tmp_path / "at.json", "kb": tmp_path / "kb.json"}
    retriever.save(paths["at"], paths["kb"])
    header = json.loads(paths[culprit].read_text(encoding="utf-8"))
    edit(header["meta"])
    paths[culprit].write_text(json.dumps(header) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactFormatError, match=message) as info:
        Retriever.load(paths["at"], paths["kb"])
    assert str(info.value).startswith(f"{paths[culprit]}: malformed artifact (ValueError: ")
