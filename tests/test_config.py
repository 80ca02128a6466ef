import pytest

from lexlink.bm25 import Bm25Params
from lexlink.config import PipelineConfig, parse_config_file
from lexlink.errors import DataError, InvalidConfig
from lexlink.pipeline import TOGGLES, check_toggles
from lexlink.reranker import EncoderConfig, TrainConfig
from lexlink.retriever import RetrieverConfig

REJECTED = {
    "k1": lambda: Bm25Params(k1=0.0),
    "k1_nan": lambda: Bm25Params(k1=float("nan")),
    "k1_inf": lambda: Bm25Params(k1=float("inf")),
    "b": lambda: Bm25Params(b=1.5),
    "b_nan": lambda: Bm25Params(b=float("nan")),
    "k_desc": lambda: RetrieverConfig(k_desc=0),
    "k_at_too_large": lambda: RetrieverConfig(k_at=2**64),
    "k_at_float": lambda: RetrieverConfig(k_at=1.5),
    "k_at_bool": lambda: RetrieverConfig(k_at=True),
    "k_kb_text": lambda: RetrieverConfig(k_kb="3"),
    "k_desc_float": lambda: RetrieverConfig(k_desc=3.0),
    "k1_text": lambda: Bm25Params(k1="1.5"),
    "k1_bool": lambda: Bm25Params(k1=True),
    "k1_too_large": lambda: Bm25Params(k1=10**400),
    "b_bool": lambda: Bm25Params(b=False),
    "b_none": lambda: Bm25Params(b=None),
    "dim": lambda: EncoderConfig(dim=0),
    "hash_buckets": lambda: EncoderConfig(hash_buckets=0),
    "hash_buckets_too_large": lambda: EncoderConfig(hash_buckets=10**15, dim=16),
    "dim_too_large": lambda: EncoderConfig(hash_buckets=1, dim=2**14),
    "max_len": lambda: EncoderConfig(max_len=7),
    "max_len_float": lambda: EncoderConfig(max_len=128.0),
    "ngram_orders_float": lambda: EncoderConfig(ngram_orders=(1.5,)),
    "ngram_orders": lambda: EncoderConfig(ngram_orders=(1, 0)),
    "encoder_seed": lambda: EncoderConfig(seed=-1),
    "batch_size": lambda: TrainConfig(batch_size=0),
    "learning_rate_nan": lambda: TrainConfig(learning_rate=float("nan")),
    "learning_rate_inf": lambda: TrainConfig(learning_rate=float("inf")),
    "learning_rate_text": lambda: TrainConfig(learning_rate="0.1"),
    "learning_rate_bool": lambda: TrainConfig(learning_rate=True),
    "train_seed": lambda: TrainConfig(seed=-1),
    "epochs_float": lambda: TrainConfig(epochs=1.5),
    "epochs_bool": lambda: TrainConfig(epochs=True),
    "batch_size_float": lambda: TrainConfig(batch_size=2.5),
    "negatives_per_example_float": lambda: TrainConfig(negatives_per_example=2.5),
    "train_seed_float": lambda: TrainConfig(seed=1.5),
    "ngram_orders_text": lambda: PipelineConfig(ngram_orders="1,x").encoder_config(),
    "toggle": lambda: check_toggles(["ensemble", "bogus"]),
}


@pytest.mark.parametrize("make", REJECTED.values(), ids=REJECTED.keys())
def test_a_rejected_value_is_invalid_config_a_data_error_and_a_value_error(make):
    with pytest.raises(InvalidConfig) as info:
        make()
    assert isinstance(info.value, DataError) and isinstance(info.value, ValueError)
    assert str(info.value).startswith("invalid configuration: ")


def test_an_unknown_toggle_names_the_valid_ones():
    with pytest.raises(InvalidConfig) as info:
        check_toggles(["bogus"])
    assert "'bogus'" in str(info.value) and str(list(TOGGLES)) in str(info.value)


@pytest.mark.parametrize("content,line_no", [
    (b"k_at = 3\xff\n", 1),
    (b"# comment\r\nk_at = 3\r\nk_kb = \xc3\n", 3),
    (b"\n\n\xed\xa0\x80 = 1\n", 3),  # an encoded surrogate
])
def test_a_config_file_that_is_not_utf8_names_the_file_and_line(tmp_path, content, line_no):
    path = tmp_path / "bad.cfg"
    path.write_bytes(content)
    with pytest.raises(DataError) as info:
        parse_config_file(path)
    assert str(info.value).startswith(f"{path}:{line_no}: not valid UTF-8")
