"""Knowledge base, alias table, and mention datasets: JSONL loading,
writing, and referential-integrity validation.

All files are UTF-8 JSON Lines with LF-terminated lines. Span offsets count
Unicode codepoints (plain ``len`` on a Python ``str``), never bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    DuplicateId,
    MalformedLine,
    PriorOutOfRange,
    PriorSumExceeded,
    SpanMismatch,
    StaleIndex,
)

_PRIOR_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EntityRecord:
    id: str
    name: str
    description: str


class KnowledgeBase:
    """Ordered entity inventory with O(1) lookup by id."""

    def __init__(self, entities: Iterable[EntityRecord]):
        self.entities: list[EntityRecord] = list(entities)
        self.index: dict[str, int] = {}
        for pos, entity in enumerate(self.entities):
            if entity.id in self.index:
                raise DuplicateId(entity.id)
            self.index[entity.id] = pos

    def __len__(self) -> int:
        return len(self.entities)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.index

    def __iter__(self) -> Iterator[EntityRecord]:
        return iter(self.entities)

    def lookup(self, entity_id: str) -> EntityRecord:
        if entity_id not in self.index:
            raise StaleIndex(entity_id)
        return self.entities[self.index[entity_id]]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSONL serialization of all entities.

        Used by the entity-embedding store to detect a knowledge base that
        changed after the store was computed.
        """
        digest = hashlib.sha256()
        for entity in self.entities:
            digest.update(_entity_line(entity).encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class AliasEntry:
    alias: str
    entity_id: str
    prior: float


class AliasTable:
    """Alias entries bucketed by alias string: ``by_alias`` maps each alias to
    its entries' positions in ``entries``.

    Buckets are ordered prior-descending with ties broken by entity id, which
    is the expansion order used by the alias retrieval stage.
    """

    def __init__(self, entries: Iterable[AliasEntry]):
        self.entries: list[AliasEntry] = list(entries)
        buckets: dict[str, list[int]] = {}
        for pos, entry in enumerate(self.entries):
            buckets.setdefault(entry.alias, []).append(pos)
        for alias, positions in buckets.items():
            positions.sort(key=lambda p: (-self.entries[p].prior, self.entries[p].entity_id))
            total = sum(self.entries[p].prior for p in positions)
            if total > 1.0 + _PRIOR_SUM_TOLERANCE:
                raise PriorSumExceeded(alias, total)
        self.by_alias: dict[str, list[int]] = buckets

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MentionRecord:
    doc_id: str
    text: str
    span_start: int
    span_end: int
    mention: str
    gold_id: str | None = None


@dataclass
class Dataset:
    records: list[MentionRecord]
    split: str = "test"


def _iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                stripped = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"not valid UTF-8 ({exc.reason})") from exc
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
                if "\\u" in stripped:  # an escape may stand for a lone surrogate, which UTF-8 cannot encode
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except json.JSONDecodeError as exc:
                raise MalformedLine(path, line_no, exc.msg) from exc
            except (RecursionError, ValueError) as exc:  # nested too deep, too many digits, a lone surrogate
                raise MalformedLine(path, line_no, str(exc)) from exc
            if not isinstance(obj, dict):
                raise MalformedLine(path, line_no, "not a JSON object")
            yield line_no, obj


def _require(obj: dict, key: str, path, line_no: int):
    if key not in obj:
        raise MalformedLine(path, line_no, f"missing key {key!r}")
    return obj[key]


def _require_str(obj: dict, key: str, path, line_no: int, allow_empty: bool = False) -> str:
    value = _require(obj, key, path, line_no)
    if not isinstance(value, str):
        raise MalformedLine(path, line_no, f"key {key!r} is not a string")
    if not value and not allow_empty:
        raise MalformedLine(path, line_no, f"key {key!r} is empty")
    return value


def load_knowledge_base(path) -> KnowledgeBase:
    """Load ``{"id", "name", "desc"}`` lines, preserving file order."""
    entities = []
    for line_no, obj in _iter_jsonl(path):
        entities.append(
            EntityRecord(
                id=_require_str(obj, "id", path, line_no),
                name=_require_str(obj, "name", path, line_no),
                description=_require_str(obj, "desc", path, line_no, allow_empty=True),
            )
        )
    return KnowledgeBase(entities)


def alias_prior(value) -> float:
    """``value`` as an alias prior: a JSON number, not a boolean, in [0, 1].
    Raises ``TypeError`` for any other value and ``ValueError`` for a number
    outside the range, which is tested before converting, so an integer too
    large for a float is refused rather than overflowing."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"prior {value!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"prior {value!r} is not in [0, 1]")
    return float(value)


def load_alias_table(path) -> AliasTable:
    """Load ``{"alias", "entity_id", "prior"}`` lines."""
    entries = []
    for line_no, obj in _iter_jsonl(path):
        alias = _require_str(obj, "alias", path, line_no)
        entity_id = _require_str(obj, "entity_id", path, line_no)
        prior = _require(obj, "prior", path, line_no)
        try:
            prior = alias_prior(prior)
        except TypeError:
            raise MalformedLine(path, line_no, "key 'prior' is not a number") from None
        except ValueError:
            raise PriorOutOfRange(path, line_no, prior) from None
        entries.append(AliasEntry(alias=alias, entity_id=entity_id, prior=prior))
    return AliasTable(entries)


def load_mentions(path, split: str = "test") -> Dataset:
    """Load mention lines and validate each span against its text."""
    records = []
    for line_no, obj in _iter_jsonl(path):
        doc_id = _require_str(obj, "doc_id", path, line_no)
        text = _require_str(obj, "text", path, line_no, allow_empty=True)
        start = _require(obj, "start", path, line_no)
        end = _require(obj, "end", path, line_no)
        if not isinstance(start, int) or not isinstance(end, int) or isinstance(start, bool) or isinstance(end, bool):
            raise MalformedLine(path, line_no, "span offsets are not integers")
        mention = _require_str(obj, "mention", path, line_no)
        gold_id = obj.get("gold_id")
        if gold_id is not None and not isinstance(gold_id, str):
            raise MalformedLine(path, line_no, "key 'gold_id' is not a string")
        if not (0 <= start < end <= len(text)):
            raise SpanMismatch(doc_id, f"span ({start}, {end}) out of bounds for text of length {len(text)}")
        if text[start:end] != mention:
            raise SpanMismatch(doc_id)
        records.append(
            MentionRecord(
                doc_id=doc_id,
                text=text,
                span_start=start,
                span_end=end,
                mention=mention,
                gold_id=gold_id,
            )
        )
    return Dataset(records=records, split=split)


def _entity_line(entity: EntityRecord) -> str:
    # The text of json.dumps(..., ensure_ascii=False), from the string encoder it calls.
    return (
        f'{{"id": {_json_str(entity.id)}, "name": {_json_str(entity.name)}, '
        f'"desc": {_json_str(entity.description)}}}\n'
    )


def _alias_line(entry: AliasEntry) -> str:
    return json.dumps(
        {"alias": entry.alias, "entity_id": entry.entity_id, "prior": entry.prior},
        ensure_ascii=False,
    ) + "\n"


def _mention_line(record: MentionRecord) -> str:
    obj = {
        "doc_id": record.doc_id,
        "text": record.text,
        "start": record.span_start,
        "end": record.span_end,
        "mention": record.mention,
    }
    if record.gold_id is not None:
        obj["gold_id"] = record.gold_id
    return json.dumps(obj, ensure_ascii=False) + "\n"


def save_knowledge_base(kb: KnowledgeBase, path) -> None:
    Path(path).write_text("".join(_entity_line(e) for e in kb.entities), encoding="utf-8")


def save_alias_table(at: AliasTable, path) -> None:
    Path(path).write_text("".join(_alias_line(e) for e in at.entries), encoding="utf-8")


def save_mentions(ds: Dataset, path) -> None:
    Path(path).write_text("".join(_mention_line(r) for r in ds.records), encoding="utf-8")


@dataclass
class ValidationReport:
    """Referential-integrity misses: ``(kind, entity_id)`` pairs where kind
    is ``"alias"`` for alias-table targets or ``"gold"`` for gold labels."""

    misses: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.misses

    @property
    def alias_misses(self) -> list[str]:
        return [eid for kind, eid in self.misses if kind == "alias"]

    @property
    def gold_misses(self) -> list[str]:
        return [eid for kind, eid in self.misses if kind == "gold"]


def validate(kb: KnowledgeBase, at: AliasTable, ds: Dataset) -> ValidationReport:
    """Report every alias target and gold id that does not resolve in ``kb``.

    Report-only; nothing in the package calls it. ``Retriever.build`` refuses
    alias misses and training refuses gold misses (``MissingGold``) where they
    use them.
    """
    misses = dict.fromkeys(
        [("alias", entry.entity_id) for entry in at.entries if entry.entity_id not in kb]
        + [("gold", r.gold_id) for r in ds.records if r.gold_id is not None and r.gold_id not in kb]
    )
    return ValidationReport(misses=list(misses))
