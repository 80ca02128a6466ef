from collections import Counter

import pytest

import workloads
from lexlink.corpus import load_alias_table, load_knowledge_base, load_mentions, validate
from lexlink.reranker import EncoderConfig, build_mention_sequence
from lexlink.retriever import FINE_QUERY_TOKEN_LIMIT
from lexlink.tokenizer import tokenize


@pytest.fixture(scope="module")
def shared():
    return workloads.shared_names(3)


@pytest.fixture(scope="module")
def longdoc():
    return workloads.synth_longdoc(3)


def _assert_clean(world, tmp_path):
    files = workloads.write_world(world, tmp_path)
    kb = load_knowledge_base(files.kb)
    aliases = load_alias_table(files.aliases)
    for path in (files.train, files.eval):
        ds = load_mentions(path)  # raises on a span that does not match its text
        assert validate(kb, aliases, ds).ok
        assert all(r.gold_id in kb for r in ds.records)


def test_shared_names_validates_clean(shared, tmp_path):
    _assert_clean(shared, tmp_path)


def test_longdoc_validates_clean(longdoc, tmp_path):
    _assert_clean(longdoc, tmp_path)


def test_shared_names_share_words_but_not_names(shared):
    names = [tuple(tokenize(e.name)) for e in shared.kb]
    assert len({frozenset(n) for n in names}) == len(names)
    per_word = Counter(token for name in names for token in name)
    assert len(per_word) == workloads.SHARED_VOCAB
    # Every word's posting list is near its mean length of 2 * entities / vocabulary.
    assert min(per_word.values()) >= 0.8 * 2 * workloads.SHARED_ENTITIES / workloads.SHARED_VOCAB


def test_shared_names_mentions_carry_their_gold_signature(shared):
    for record in shared.train.records + shared.eval.records:
        signature = shared.kb.lookup(record.gold_id).description.split()[-1]
        assert signature in tokenize(record.text)
        assert record.text[record.span_start : record.span_end] == shared.kb.lookup(record.gold_id).name


def test_longdoc_keeps_spans_and_signatures_in_place(longdoc):
    base = workloads.synth_world(3, workloads.LONGDOC_SPLITS)
    cfg = EncoderConfig()
    pairs = list(zip(base.train.records + base.eval.records, longdoc.train.records + longdoc.eval.records))
    assert pairs
    for short, long in pairs:
        assert long.text.startswith(short.text)
        assert (long.span_start, long.span_end, long.mention, long.gold_id) == (
            short.span_start, short.span_end, short.mention, short.gold_id,
        )
        assert len(tokenize(long.text)) >= len(tokenize(short.text)) + workloads.LONGDOC_EXTRA_WORDS
        signature = f"key{longdoc.kb.index[long.gold_id]}z"
        assert signature in tokenize(long.text)[:FINE_QUERY_TOKEN_LIMIT]
        assert signature in build_mention_sequence(long, cfg).tokens


def test_longdoc_words_add_no_retrieval_signal(longdoc):
    kb_tokens = {t for e in longdoc.kb for t in tokenize(f"{e.name} {e.description}")}
    kb_tokens |= {t for entry in longdoc.aliases.entries for t in tokenize(entry.alias)}
    assert kb_tokens.isdisjoint(t for word in workloads.LONGDOC_WORDS for t in tokenize(word))


@pytest.mark.parametrize("generate", [workloads.synth_short, workloads.synth_longdoc, workloads.shared_names])
def test_same_seed_same_bytes(generate, tmp_path):
    first = workloads.write_world(generate(5), tmp_path / "a").digest()
    again = workloads.write_world(generate(5), tmp_path / "b").digest()
    other = workloads.write_world(generate(6), tmp_path / "c").digest()
    assert first == again != other
