import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexlink.corpus import (
    AliasEntry,
    AliasTable,
    Dataset,
    EntityRecord,
    KnowledgeBase,
    MentionRecord,
    load_alias_table,
    load_knowledge_base,
    load_mentions,
    save_alias_table,
    save_knowledge_base,
    save_mentions,
    validate,
)
from lexlink.errors import (
    DuplicateId,
    MalformedLine,
    PriorOutOfRange,
    PriorSumExceeded,
    SpanMismatch,
)

from oracles import entity_line


def write_lines(path, lines):
    path.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in lines), encoding="utf-8")


# -- knowledge base ----------------------------------------------------------


def test_load_knowledge_base_preserves_order_and_builds_index(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_lines(path, [
        {"id": "Q1", "name": "Apple", "desc": "fruit"},
        {"id": "Q2", "name": "Apple", "desc": "company"},
    ])
    kb = load_knowledge_base(path)
    assert len(kb) == 2
    assert kb.index == {"Q1": 0, "Q2": 1}
    assert kb.lookup("Q2").description == "company"


def test_load_knowledge_base_empty_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_knowledge_base(path)) == 0


def test_load_knowledge_base_duplicate_id(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_lines(path, [
        {"id": "Q1", "name": "a", "desc": ""},
        {"id": "Q1", "name": "b", "desc": ""},
    ])
    with pytest.raises(DuplicateId) as err:
        load_knowledge_base(path)
    assert err.value.entity_id == "Q1"


@pytest.mark.parametrize("line", [
    "not json",
    '{"id": "Q1", "name": "a"}',          # missing desc
    '{"id": "", "name": "a", "desc": ""}',  # empty id
    '{"id": "Q1", "name": "", "desc": ""}',  # empty name
    '[1, 2]',
])
def test_load_knowledge_base_malformed(tmp_path, line):
    path = tmp_path / "kb.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        load_knowledge_base(path)
    assert err.value.line_no == 1


# -- alias table -------------------------------------------------------------


def test_alias_buckets_sorted_by_prior_descending(tmp_path):
    path = tmp_path / "aliases.jsonl"
    write_lines(path, [
        {"alias": "BigA", "entity_id": "Q2", "prior": 0.7},
        {"alias": "BigA", "entity_id": "Q1", "prior": 0.3},
    ])
    at = load_alias_table(path)
    assert [at.entries[p].entity_id for p in at.by_alias["BigA"]] == ["Q2", "Q1"]


def test_alias_equal_priors_tie_break_by_entity_id(tmp_path):
    path = tmp_path / "aliases.jsonl"
    write_lines(path, [
        {"alias": "X", "entity_id": "Q9", "prior": 0.5},
        {"alias": "X", "entity_id": "Q3", "prior": 0.5},
    ])
    at = load_alias_table(path)
    assert [at.entries[p].entity_id for p in at.by_alias["X"]] == ["Q3", "Q9"]


@pytest.mark.parametrize("prior", [1.5, 10**400], ids=["1.5", "10**400"])
def test_alias_prior_out_of_range(tmp_path, prior):
    path = tmp_path / "aliases.jsonl"
    write_lines(path, [{"alias": "A", "entity_id": "Q1", "prior": prior}])
    with pytest.raises(PriorOutOfRange) as err:
        load_alias_table(path)
    assert err.value.line_no == 1


def test_alias_prior_sum_exceeded():
    with pytest.raises(PriorSumExceeded):
        AliasTable([
            AliasEntry(alias="A", entity_id="Q1", prior=0.8),
            AliasEntry(alias="A", entity_id="Q2", prior=0.7),
        ])


def test_every_entry_lands_in_exactly_one_bucket(fruit_aliases):
    positions = [p for bucket in fruit_aliases.by_alias.values() for p in bucket]
    assert sorted(positions) == list(range(len(fruit_aliases)))


# -- mentions ----------------------------------------------------------------


def test_load_mentions_happy_path(tmp_path):
    path = tmp_path / "mentions.jsonl"
    write_lines(path, [{
        "doc_id": "d1", "text": "I ate an Apple.", "start": 9, "end": 14,
        "mention": "Apple", "gold_id": "Q1",
    }])
    ds = load_mentions(path)
    assert len(ds.records) == 1
    record = ds.records[0]
    assert record.mention == "Apple"
    assert record.text[record.span_start:record.span_end] == "Apple"


def test_load_mentions_span_mismatch(tmp_path):
    path = tmp_path / "mentions.jsonl"
    write_lines(path, [{
        "doc_id": "d1", "text": "I ate an Apple.", "start": 9, "end": 14,
        "mention": "Appl",
    }])
    with pytest.raises(SpanMismatch) as err:
        load_mentions(path)
    assert err.value.doc_id == "d1"


def test_load_mentions_empty_file(tmp_path):
    path = tmp_path / "mentions.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_mentions(path).records == []


def test_load_mentions_out_of_bounds_span(tmp_path):
    path = tmp_path / "mentions.jsonl"
    write_lines(path, [{"doc_id": "d1", "text": "ab", "start": 1, "end": 5, "mention": "b"}])
    with pytest.raises(SpanMismatch):
        load_mentions(path)


def test_span_offsets_count_codepoints(tmp_path):
    # The CJK prefix is multi-byte in UTF-8; byte offsets would not match.
    text = "中国银行 Bank of China"
    path = tmp_path / "mentions.jsonl"
    write_lines(path, [{
        "doc_id": "d1", "text": text, "start": 0, "end": 4, "mention": "中国银行", "gold_id": "Q1",
    }])
    ds = load_mentions(path)
    assert ds.records[0].mention == "中国银行"


def test_codepoint_spans_property_over_mixed_scripts(tmp_path):
    rng = random.Random(99)
    pool = "中国银行股份有限公司abcXYZ09 "
    path = tmp_path / "mentions.jsonl"
    lines = []
    for i in range(100):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(4, 40)))
        start = rng.randrange(0, len(text) - 1)
        end = rng.randrange(start + 1, len(text) + 1)
        lines.append({
            "doc_id": f"d{i}", "text": text, "start": start, "end": end,
            "mention": text[start:end],
        })
    write_lines(path, lines)
    ds = load_mentions(path)
    assert len(ds.records) == 100
    for record in ds.records:
        assert record.text[record.span_start:record.span_end] == record.mention


# -- undecodable lines --------------------------------------------------------

LOADERS = {
    "kb": (load_knowledge_base, {"id": "Q1", "name": "a", "desc": "d"}),
    "aliases": (load_alias_table, {"alias": "a", "entity_id": "Q1", "prior": 0.5}),
    "mentions": (load_mentions, {"doc_id": "d", "text": "ab", "start": 0, "end": 1, "mention": "a", "gold_id": "Q1"}),
}


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("bad,reason", [
    pytest.param(b"\xff\xfe", "not valid UTF-8", id="invalid-start-byte"),
    pytest.param(b'{"x": "\xc3"}', "not valid UTF-8", id="cut-sequence"),
    pytest.param(b"[" * 100_000, "recursion", id="nested-too-deep"),
    pytest.param(b'{"x": ' + b"1" * 5000 + b"}", "digits", id="too-many-digits"),
])
def test_an_undecodable_line_is_malformed_naming_its_line(tmp_path, kind, bad, reason):
    load, good = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(json.dumps(good).encode("utf-8") + b"\n\n" + bad + b"\n")
    with pytest.raises(MalformedLine) as err:
        load(path)
    assert err.value.line_no == 3 and err.value.path == str(path)
    assert reason in str(err.value)


@pytest.mark.parametrize("kind", LOADERS)
def test_a_lone_surrogate_is_malformed_and_a_surrogate_pair_is_not(tmp_path, kind):
    load, good = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps({**good, "note": "\u00e9\U0001F600"}) + "\n", encoding="utf-8")  # as \u escapes
    load(path)
    for key in [key for key, value in good.items() if isinstance(value, str)] + ["note"]:
        path.write_text(json.dumps({**good, key: "\udc80"}) + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="surrogates not allowed"):
            load(path)


# -- validation --------------------------------------------------------------


def test_validate_all_resolving_gives_empty_report(fruit_kb, fruit_aliases):
    ds = Dataset(records=[
        MentionRecord(doc_id="d1", text="Apple", span_start=0, span_end=5, mention="Apple", gold_id="Q1"),
    ])
    report = validate(fruit_kb, fruit_aliases, ds)
    assert report.ok
    assert report.misses == []


def test_validate_reports_alias_miss(fruit_kb):
    at = AliasTable([AliasEntry(alias="ghost", entity_id="Q99", prior=0.5)])
    report = validate(fruit_kb, at, Dataset(records=[]))
    assert ("alias", "Q99") in report.misses
    assert report.alias_misses == ["Q99"]


def test_validate_reports_gold_miss(fruit_kb, fruit_aliases):
    ds = Dataset(records=[
        MentionRecord(doc_id="d1", text="x", span_start=0, span_end=1, mention="x", gold_id="Q42"),
    ])
    report = validate(fruit_kb, fruit_aliases, ds)
    assert ("gold", "Q42") in report.misses
    assert report.gold_misses == ["Q42"]


# -- round trips -------------------------------------------------------------


def test_knowledge_base_round_trip(tmp_path, fruit_kb):
    path = tmp_path / "kb.jsonl"
    save_knowledge_base(fruit_kb, path)
    reloaded = load_knowledge_base(path)
    assert reloaded.entities == fruit_kb.entities
    assert reloaded.index == fruit_kb.index


def test_alias_table_round_trip(tmp_path, fruit_aliases):
    path = tmp_path / "aliases.jsonl"
    save_alias_table(fruit_aliases, path)
    reloaded = load_alias_table(path)
    assert reloaded.entries == fruit_aliases.entries
    assert reloaded.by_alias == fruit_aliases.by_alias


def test_mentions_round_trip(tmp_path):
    ds = Dataset(records=[
        MentionRecord(doc_id="d1", text="我在用 iPhone", span_start=4, span_end=10, mention="iPhone", gold_id="Q2"),
        MentionRecord(doc_id="d2", text="no gold here", span_start=0, span_end=2, mention="no"),
    ])
    path = tmp_path / "mentions.jsonl"
    save_mentions(ds, path)
    assert load_mentions(path).records == ds.records


def test_kb_fingerprint_changes_with_content(fruit_kb):
    other = KnowledgeBase([
        EntityRecord(id="Q1", name="Apple", description="fruit of the apple tree"),
        EntityRecord(id="Q2", name="Apple", description="EDITED"),
        EntityRecord(id="Q3", name="Banana", description="yellow tropical fruit"),
    ])
    assert fruit_kb.fingerprint() != other.fingerprint()
    assert fruit_kb.fingerprint() == KnowledgeBase(list(fruit_kb.entities)).fingerprint()


# Text that JSON escapes, or writes as is although a naive encoder might not:
# quotes, backslashes, control characters, U+2028 and non-BMP characters.
_JSON_TRICKY_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001F600"]),
        st.characters(codec="utf-8"),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.builds(EntityRecord, _JSON_TRICKY_TEXT, _JSON_TRICKY_TEXT, _JSON_TRICKY_TEXT), max_size=4))
def test_kb_fingerprint_and_file_are_the_json_dumps_bytes(tmp_path, entities):
    kb = KnowledgeBase({entity.id: entity for entity in entities}.values())
    want = "".join(entity_line(entity) for entity in kb.entities).encode("utf-8")
    assert kb.fingerprint() == hashlib.sha256(want).hexdigest()
    save_knowledge_base(kb, tmp_path / "kb.jsonl")
    assert (tmp_path / "kb.jsonl").read_bytes() == want


def test_kb_fingerprint_and_file_refuse_a_lone_surrogate(tmp_path):
    kb = KnowledgeBase([EntityRecord(id="Q1", name="a\udc80", description="")])
    with pytest.raises(UnicodeEncodeError):
        entity_line(kb.entities[0]).encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        kb.fingerprint()
    with pytest.raises(UnicodeEncodeError):
        save_knowledge_base(kb, tmp_path / "kb.jsonl")
