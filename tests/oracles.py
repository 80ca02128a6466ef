"""Independent reference implementations used as test oracles.

These deliberately avoid the library's fast paths: BM25 evaluates the scoring
formula term by term over raw token lists, the coarse lists are gathered one
entity at a time into a seen set, the tokenizer classifies text one character
at a time, the mention window drops one context token per step, the
featurizer hashes every n-gram of every token, the vote ranks the present
votes with ``Counter.most_common``, the ablation links the whole dataset once
per row, a knowledge-base line is written by ``json.dumps``, and a training
step stacks every sequence's embedding gradient rows before summing them.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter

import numpy as np

from lexlink.corpus import Dataset, EntityRecord, MentionRecord
from lexlink.ensemble import Prediction, VoteInput
from lexlink.errors import NoVotes
from lexlink.evaluation import ABLATION_LABELS, AccuracyReport, accuracy
from lexlink.pipeline import RERANKER_ONLY, TOGGLES, LinkedMention, Pipeline
from lexlink.reranker import (
    _IN_SPAN_PREFIX,
    MENTION_END,
    MENTION_START,
    NAME_DESC_SEP,
    DualEncoder,
    EncoderConfig,
    MarkedSequence,
    ParamGrads,
    SequenceFeatures,
    TrainExample,
    _pool,
    rerank,
)
from lexlink.retriever import FINE_QUERY_TOKEN_LIMIT, RetrievalResult


def bm25_score(docs: list[list[str]], query: list[str], doc_index: int, k1: float, b: float) -> float:
    """Literal per-document evaluation of the Okapi BM25 formula."""
    n = len(docs)
    if n == 0:
        return 0.0
    avgdl = sum(len(d) for d in docs) / n
    doc = docs[doc_index]
    total = 0.0
    for term in dict.fromkeys(query):
        tf = doc.count(term)
        if tf == 0:
            continue
        df = sum(1 for d in docs if term in d)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
    return total


def bm25_ranking(docs: list[list[str]], query: list[str], k1: float, b: float, k: int) -> list[tuple[int, float]]:
    """Full sort of positive-scoring documents, ties by ascending index."""
    scored = [(i, bm25_score(docs, query, i, k1, b)) for i in range(len(docs))]
    positive = [(i, s) for i, s in scored if s > 0.0]
    positive.sort(key=lambda item: (-item[1], item[0]))
    return positive[:k]


def bm25_top_k(docs: list[list[str]], query: list[str], k1: float, b: float, k: int) -> list[tuple[int, float]]:
    """``bm25_ranking`` with the index's arithmetic, for bitwise comparison:
    each unique query term, in query order, adds
    ``idf * tf * (k1 + 1) / (tf + norm)`` to each document holding it."""
    n = len(docs)
    avgdl = (sum(len(d) for d in docs) / n if n else 0.0) or 1.0
    scores: dict[int, float] = {}
    for term in dict.fromkeys(query):
        holders = [(i, d.count(term)) for i, d in enumerate(docs) if term in d]
        if not holders:
            continue
        idf = math.log(1.0 + (n - len(holders) + 0.5) / (len(holders) + 0.5))
        for i, tf in holders:
            norm = k1 * (1.0 - b + b * len(docs[i]) / avgdl)
            scores[i] = scores.get(i, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    positive = sorted((-s, i) for i, s in scores.items() if s > 0.0)
    return [(i, -s) for s, i in positive[:k]]


def merge_coarse(cand_at: list[str], cand_kb: list[str]) -> list[str]:
    """Alias candidates, then each name candidate not yet seen."""
    merged = list(cand_at)
    seen = set(cand_at)
    for entity_id in cand_kb:
        if entity_id not in seen:
            seen.add(entity_id)
            merged.append(entity_id)
    return merged


def retrieve_coarse(retriever, mention: str) -> tuple[list[str], list[str]]:
    """``Retriever.retrieve_coarse`` from the rows it was built from: both
    rankings by ``bm25_top_k``, and each alias hit expanded over the table
    entries of its alias, prior-descending and then by entity id, taking each
    entity not yet taken until ``k_at`` are taken."""
    cfg, query = retriever.config, tokenize(mention)
    k1, b = cfg.bm25_params.k1, cfg.bm25_params.b
    names = [tokenize(name) for _, name in retriever.kb_rows]
    cand_kb = [retriever.kb_rows[i][0] for i, _ in bm25_top_k(names, query, k1, b, cfg.k_kb)]
    entries = retriever.alias_table.entries
    cand_at: list[str] = []
    seen: set[str] = set()
    for i, _ in bm25_top_k([tokenize(e.alias) for e in entries], query, k1, b, cfg.k_at):
        bucket = sorted((e for e in entries if e.alias == entries[i].alias), key=lambda e: (-e.prior, e.entity_id))
        for entry in bucket:
            if entry.entity_id in seen:
                continue
            seen.add(entry.entity_id)
            cand_at.append(entry.entity_id)
            if len(cand_at) == cfg.k_at:
                return cand_at, cand_kb
    return cand_at, cand_kb


def mention_window(left: list[str], span: list[str], right: list[str], max_len: int) -> tuple[str, ...]:
    """The marked mention sequence, trimmed one context token at a time from
    whichever side has more, the left on ties, until it fits ``max_len``."""
    keep_left, keep_right = len(left), len(right)
    while keep_left + keep_right + len(span) + 2 > max_len:
        if keep_left >= keep_right:
            keep_left -= 1
        else:
            keep_right -= 1
    return (*left[len(left) - keep_left :], MENTION_START, *span, MENTION_END, *right[:keep_right])


def term_map_items(index) -> dict[str, list[tuple[int, float]]]:
    """Each term's ``(doc index, contribution)`` pairs in the order its map
    iterates, so that ``==`` compares that order too."""
    return {term: list(term_map.items()) for term, term_map in index.contributions.items()}


def bm25_term_rankings(index) -> dict[str, list[tuple[int, float]]]:
    """The same pairs ranked by descending contribution, ties by ascending doc
    index: the order each map must iterate in."""
    return {term: sorted(pairs, key=lambda pair: (-pair[1], pair[0])) for term, pairs in term_map_items(index).items()}


def entity_line(entity: EntityRecord) -> str:
    """An entity's knowledge-base line: its ``{"id", "name", "desc"}`` object
    as ``json.dumps`` writes it, without escaping non-ASCII text."""
    return json.dumps({"id": entity.id, "name": entity.name, "desc": entity.description}, ensure_ascii=False) + "\n"


# CJK Unified Ideographs, Extension A, Compatibility Ideographs.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def tokenize(text: str) -> list[str]:
    """Per-character tokenizer: each CJK codepoint is a token, maximal
    ``str.isalnum`` runs are lowercased tokens, everything else separates."""
    tokens: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if run:
            tokens.append("".join(run).lower())
            run.clear()

    for ch in text:
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES):
            flush()
            tokens.append(ch)
        elif ch.isalnum():
            run.append(ch)
        else:
            flush()
    flush()
    return tokens


def sequence_features(seq: MarkedSequence, cfg: EncoderConfig) -> SequenceFeatures:
    """Token-by-token featurizer: hashes every feature of every token in order."""
    counter: Counter[int] = Counter()
    in_span = False
    for token in seq.tokens:
        if token == MENTION_END:
            in_span = False
        if token in (MENTION_START, MENTION_END, NAME_DESC_SEP):
            features = [token]
        else:
            features = []
            for n in cfg.ngram_orders:
                for i in range(len(token) - n + 1):
                    features.append(token[i : i + n])
                    if in_span:
                        features.append(_IN_SPAN_PREFIX + token[i : i + n])
        for feature in features:
            counter[zlib.crc32(feature.encode("utf-8")) % cfg.hash_buckets] += 1
        if token == MENTION_START:
            in_span = True
    return SequenceFeatures(
        buckets=np.array(list(counter.keys()), dtype=np.int64),
        counts=np.array(list(counter.values()), dtype=np.float64),
        token_count=max(len(seq.tokens), 1),
    )


def vote(v: VoteInput) -> Prediction:
    """Resolve the four votes.

    1. A value with strictly greater multiplicity than every other, at least
       2, wins (covers 4:0, 3:1, 2:1, 2:1:1).
    2. A 2:2 split goes to the side containing the reranker's vote.
    3. All-distinct votes fall back to the reranker, or to the first present
       retriever vote (at, kb, desc) when the reranker abstained.
    """
    present = [x for x in (v.at, v.kb, v.desc, v.reranker) if x is not None]
    if not present:
        raise NoVotes("all four votes are absent")
    ranked = Counter(present).most_common()
    top_value, top_count = ranked[0]
    if top_count >= 2 and (len(ranked) == 1 or ranked[1][1] < top_count):
        return Prediction(entity_id=top_value, decided_by="majority")
    if top_count == 2:
        # Two values at multiplicity 2 means all four voted; the reranker is
        # on one side by construction.
        return Prediction(entity_id=v.reranker, decided_by="pair_with_reranker")
    if v.reranker is not None:
        return Prediction(entity_id=v.reranker, decided_by="reranker_fallback")
    for value in (v.at, v.kb, v.desc):
        if value is not None:
            return Prediction(entity_id=value, decided_by="only_available")
    raise AssertionError("unreachable: present votes were nonempty")


def link(pipeline: Pipeline, m: MentionRecord, disabled: frozenset[str] = frozenset()) -> LinkedMention:
    """The cascade for one mention, stage after stage, with the stages in
    ``disabled`` left out: coarse lists, Cand1, Cand1's descriptions ranked
    against the document by ``bm25_top_k``, rerank over Cand1 and Cand2, vote."""
    kb, retriever = pipeline.kb, pipeline.retriever
    cand_at, cand_kb = retriever.retrieve_coarse(m.mention)
    if "at_bm25" in disabled:
        cand_at = []
    if "kb_bm25" in disabled:
        cand_kb = []
    cand1 = merge_coarse(cand_at, cand_kb)
    cand2: list[str] = []
    if cand1 and "desc_bm25" not in disabled:
        docs = [tokenize(kb.lookup(e).description) for e in cand1]
        query = tokenize(m.text)[:FINE_QUERY_TOKEN_LIMIT]
        params = retriever.config.bm25_params
        cand2 = [cand1[i] for i, _ in bm25_top_k(docs, query, params.k1, params.b, retriever.config.k_desc)]
    retrieval = RetrievalResult(
        cand_at=cand_at,
        cand_kb=cand_kb,
        cand1=cand1,
        cand2=cand2,
        top1_at=cand_at[0] if cand_at else None,
        top1_kb=cand_kb[0] if cand_kb else None,
        top1_desc=cand2[0] if cand2 else None,
    )
    reranked = rerank(pipeline.model, pipeline.store, m, merge_coarse(cand1, cand2))
    top = reranked[0][0] if reranked else None
    votes = VoteInput(at=retrieval.top1_at, kb=retrieval.top1_kb, desc=retrieval.top1_desc, reranker=top)
    if "ensemble" in disabled:
        prediction = Prediction(top, RERANKER_ONLY) if top is not None else None
    else:
        prediction = vote(votes) if votes != VoteInput() else None
    return LinkedMention(
        doc_id=m.doc_id, gold_id=m.gold_id, retrieval=retrieval, votes=votes, reranked=reranked, prediction=prediction
    )


def run_ablation(pipeline: Pipeline, ds: Dataset) -> list[AccuracyReport]:
    """One pass over the whole dataset per row: the full system, then each
    toggle in ``TOGGLES`` order disabled on its own."""
    golds = [record.gold_id for record in ds.records]
    rows = [("full", frozenset())]
    rows += [(ABLATION_LABELS[t], frozenset((t,))) for t in TOGGLES]
    return [
        accuracy([link(pipeline, record, disabled).prediction for record in ds.records], golds, system=system)
        for system, disabled in rows
    ]


def batch_loss_and_grads(model: DualEncoder, examples: list[TrainExample]) -> tuple[float, ParamGrads, ParamGrads]:
    """The training step with each sequence's dense embedding gradient rows
    kept until the end, then stacked and summed per bucket by one
    ``np.add.at`` over them all."""
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

        dy_m = y_es.T @ d_scores
        d_proj_m += np.outer(dy_m, x_m)
        d_bias_m += dy_m
        dx_m = mp.projection.T @ dy_m
        if example.mention.buckets.size:
            emb_bucket_chunks_m.append(example.mention.buckets)
            emb_grad_chunks_m.append(np.outer(example.mention.counts, dx_m) / example.mention.token_count)

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
