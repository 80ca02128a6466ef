"""Pipeline configuration: defaults, key-value config files, flag overrides.

Config files are plain ``key = value`` lines with ``#`` comments. Flags win
over file values, file values win over defaults. The defaults reproduce the
reference setup: ten candidates per BM25 stage, 128-token sequences, one
training epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .bm25 import Bm25Params
from .errors import DataError, InvalidConfig
from .reranker import EncoderConfig, TrainConfig
from .retriever import RetrieverConfig

ENV_CONFIG_VAR = "LEXLINK_CONFIG"


@dataclass
class PipelineConfig:
    # data paths
    kb: str = "data/kb.jsonl"
    aliases: str = "data/aliases.jsonl"
    train_mentions: str = "data/train.jsonl"
    eval_mentions: str = "data/eval.jsonl"
    # artifact paths
    at_index: str = "artifacts/at_index.json"
    kb_index: str = "artifacts/kb_index.json"
    model: str = "artifacts/model.lxc"
    store: str = "artifacts/entities.lxc"
    predictions: str = "artifacts/predictions.jsonl"
    report_dir: str = "artifacts/reports"
    # retrieval
    k_at: int = 10
    k_kb: int = 10
    k_desc: int = 10
    bm25_k1: float = 1.5
    bm25_b: float = 0.75
    # encoder
    dim: int = 64
    hash_buckets: int = 2**16
    ngram_orders: str = "1,2,3"
    max_len: int = 128
    # training
    learning_rate: float = 0.05
    epochs: int = 1
    batch_size: int = 64
    negatives: int = 7
    # single seed; components derive their own sub-streams from it
    seed: int = 42

    def retriever_config(self) -> RetrieverConfig:
        return RetrieverConfig(
            k_at=self.k_at,
            k_kb=self.k_kb,
            k_desc=self.k_desc,
            bm25_params=Bm25Params(k1=self.bm25_k1, b=self.bm25_b),
        )

    def encoder_config(self) -> EncoderConfig:
        try:
            orders = tuple(int(part) for part in str(self.ngram_orders).split(",") if part.strip())
        except ValueError:
            raise InvalidConfig(f"ngram_orders must be comma-separated integers, got {self.ngram_orders!r}") from None
        return EncoderConfig(
            dim=self.dim,
            hash_buckets=self.hash_buckets,
            ngram_orders=orders,
            max_len=self.max_len,
            seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            negatives_per_example=self.negatives,
            seed=self.seed,
        )


# Every config key and the type of its value, in field order; the CLI makes
# one flag of each.
FIELD_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig)}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into override values."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from exc
    overrides: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise DataError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            overrides[key] = FIELD_TYPES[key](value.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    return overrides


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then file values, then explicit overrides."""
    config = PipelineConfig()
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        setattr(config, key, value)
    return config
