import json

import numpy as np
import pytest

from lexlink.artifacts import decoding, read_container, write_container
from lexlink.errors import ArtifactFormatError, StaleStore


def rewrite_header(path, edit) -> None:
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def test_round_trip_keeps_meta_names_shapes_and_bytes(tmp_path):
    arrays = {
        "matrix": np.arange(12.0).reshape(3, 4),
        "empty": np.zeros((0, 5)),
        "cube": np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4),
        "row": np.array([1.0, -0.0, np.inf, 1e-300]),
    }
    path, again = tmp_path / "a.lxc", tmp_path / "b.lxc"
    write_container(path, "test/1", {"k": [1, "é"]}, arrays)
    meta, loaded = read_container(path, "test/1")
    assert meta == {"k": [1, "é"]}
    assert list(loaded) == list(arrays)
    for name, array in arrays.items():
        assert loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()
        assert loaded[name].flags.writeable
    write_container(again, "test/1", meta, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_a_container_without_arrays_is_one_line_of_json(tmp_path):
    path = tmp_path / "index.json"
    meta = {"index": {"doc_lengths": [1], "postings": {"中": [[0, 1]]}}, "entity_ids": ["E1"]}
    write_container(path, "test/1", meta, {})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == {"format": "test/1", "meta": meta, "arrays": []}
    assert read_container(path, "test/1") == (meta, {})


def test_wrong_tag_names_the_path_and_both_tags(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {})
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/2")
    assert str(info.value) == f"{path}: expected format 'test/2', got 'test/1'"


@pytest.mark.parametrize("shape", [[3, 2], [2**40, 2**40], [2**80]])
def test_an_array_larger_than_the_bytes_left_is_truncated(tmp_path, shape):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {"a": np.zeros((2, 2))})
    rewrite_header(path, lambda header: header["arrays"][0].__setitem__("shape", shape))
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/1")
    assert str(info.value) == f"{path}: truncated array 'a'"


def test_a_cut_payload_is_truncated(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {"a": np.zeros(3), "b": np.zeros(2)})
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ArtifactFormatError, match="truncated array 'b'"):
        read_container(path, "test/1")


@pytest.mark.parametrize(
    "content,cause",
    [
        (b"", "JSONDecodeError"),
        (b"\xff\n", "UnicodeDecodeError"),
        (b'{"format": "test/1", "meta": {}\n', "JSONDecodeError"),
        (b'["test/1"]\n', "AttributeError"),
        (b"[" * 100_000 + b"\n", "RecursionError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": [Infinity]}]}\n', "OverflowError"),
        (b'{"format": "test/1", "meta": {}}\n', "KeyError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": [-1, 2]}]}\n', "ValueError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": ["x"]}]}\n', "ValueError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": [], "shape": []}]}\n' + bytes(8), "TypeError"),
    ],
)
def test_a_malformed_header_names_the_path(tmp_path, content, cause):
    path = tmp_path / "a.lxc"
    path.write_bytes(content)
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/1")
    assert str(info.value).startswith(f"{path}: malformed artifact ({cause}: ")


def test_decoding_names_the_path_and_lets_data_errors_through():
    with pytest.raises(ArtifactFormatError) as info:
        with decoding("some/path"):
            {}["key"]
    assert str(info.value) == "some/path: malformed artifact (KeyError: 'key')"
    assert isinstance(info.value.__cause__, KeyError)
    with pytest.raises(StaleStore):
        with decoding("some/path"):
            raise StaleStore("stale")
