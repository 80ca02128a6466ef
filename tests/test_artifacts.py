import errno
import json

import numpy as np
import pytest

from lexlink.artifacts import ALIGNMENT, decoding, read_container, write_container
from lexlink.errors import ArtifactFormatError, StaleStore


def rewrite_header(path, edit) -> None:
    """Edit the header of the container at ``path`` and write it back as the
    writer would: padded with spaces to the alignment when arrays follow."""
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    line = json.dumps(header).encode("utf-8")
    if payload:
        line += b" " * (-(len(line) + 1) % ALIGNMENT)
    path.write_bytes(line + b"\n" + payload)


def test_round_trip_keeps_meta_names_shapes_and_bytes(tmp_path):
    arrays = {
        "matrix": np.arange(12.0).reshape(3, 4),
        "empty": np.zeros((0, 5)),
        "cube": np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4),
        "row": np.array([1.0, -0.0, np.inf, 1e-300]),
        "scalar": np.array(2.5),
        "strided": np.arange(20.0).reshape(4, 5)[:, ::2],
        "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
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


@pytest.mark.parametrize("dtype", ["<f4", "<i4", ">f8"], ids=["float32", "int32", "big-endian"])
def test_an_array_stored_otherwise_is_written_as_its_float64_bytes(tmp_path, dtype):
    table = np.arange(35.0).reshape(7, 5)
    whole, converted = tmp_path / "whole.lxc", tmp_path / "converted.lxc"
    write_container(whole, "test/1", {}, {"a": table, "b": np.ones(2)})
    write_container(converted, "test/1", {}, {"a": table.astype(dtype), "b": np.ones(2)})
    assert converted.read_bytes() == whole.read_bytes()


def test_an_array_that_cannot_be_converted_writes_nothing(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {"old": True}, {})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="could not convert"):
        write_container(path, "test/1", {}, {"a": np.zeros(3), "b": np.array(["x"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.lxc"]


def test_arrays_start_aligned_after_a_padded_header(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {"k": "é" * 7}, {"a": np.arange(3.0), "b": np.ones((2, 2))})
    head, _, payload = path.read_bytes().partition(b"\n")
    assert (len(head) + 1) % ALIGNMENT == 0 and head.endswith(b" ")
    assert payload == np.arange(3.0).tobytes() + np.ones((2, 2)).tobytes()
    _, loaded = read_container(path, "test/1")
    assert all(array.flags.aligned and not array.flags.owndata for array in loaded.values())


@pytest.mark.parametrize("shift", [b" ", b"  " * (ALIGNMENT // 2 - 1) + b" "])
def test_a_misaligned_header_is_refused_naming_the_path(tmp_path, shift):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {"a": np.zeros(3)})
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(head + shift + b"\n" + payload)
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/1")
    assert str(info.value) == (
        f"{path}: header line of {len(head) + len(shift) + 1} bytes leaves the arrays unaligned to 64 bytes"
    )


def test_a_loaded_array_is_writable_and_a_write_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {"a": np.arange(4.0), "b": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    _, loaded = read_container(path, "test/1")
    loaded["a"][1] = -7.0
    loaded["b"] *= 2.0
    assert loaded["a"].tolist() == [0.0, -7.0, 2.0, 3.0]
    assert path.read_bytes() == before
    _, again = read_container(path, "test/1")
    assert again["a"].tolist() == [0.0, 1.0, 2.0, 3.0] and again["b"].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


class FailsWhenWritten:
    """An array-like whose shape can be read once; converting it again, to
    write it, fails as a full disk would."""

    def __init__(self):
        self.conversions = 0

    def __array__(self, dtype=None, copy=None):
        self.conversions += 1
        if self.conversions > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return np.zeros(3, dtype=dtype)


def test_a_write_that_fails_midway_leaves_the_old_file_and_no_temporary_file(tmp_path):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {"old": True}, {"a": np.ones(2)})
    before = path.read_bytes()
    with pytest.raises(OSError, match="No space left"):
        write_container(path, "test/1", {"old": False}, {"a": np.zeros(1000), "b": FailsWhenWritten()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.lxc"]


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
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": [Infinity]}]}\n', "TypeError"),
        (b'{"format": "test/1", "meta": {}}\n', "KeyError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": [-1, 2]}]}\n', "ValueError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": "a", "shape": ["x"]}]}\n', "TypeError"),
        (b'{"format": "test/1", "meta": {}, "arrays": [{"name": [], "shape": []}]}\n' + bytes(8), "TypeError"),
    ],
)
def test_a_malformed_header_names_the_path(tmp_path, content, cause):
    path = tmp_path / "a.lxc"
    path.write_bytes(content)
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/1")
    assert str(info.value).startswith(f"{path}: malformed artifact ({cause}: ")


@pytest.mark.parametrize(
    "field,value,cause",
    [("shape", [2.9, 3], "TypeError"), ("shape", [True, 3], "TypeError"), ("shape", ["2", 3], "TypeError"),
     ("name", "a", "ValueError")],
    ids=["float-dimension", "bool-dimension", "string-dimension", "repeated-name"],
)
def test_a_shape_entry_that_is_not_an_integer_or_a_repeated_name_is_refused(tmp_path, field, value, cause):
    path = tmp_path / "a.lxc"
    write_container(path, "test/1", {}, {"a": np.zeros((2, 3)), "b": np.ones((2, 3))})
    rewrite_header(path, lambda header: header["arrays"][1].__setitem__(field, value))
    with pytest.raises(ArtifactFormatError) as info:
        read_container(path, "test/1")
    assert str(info.value).startswith(f"{path}: malformed artifact ({cause}: array ")


def test_decoding_names_the_path_and_lets_data_errors_through():
    with pytest.raises(ArtifactFormatError) as info:
        with decoding("some/path"):
            {}["key"]
    assert str(info.value) == "some/path: malformed artifact (KeyError: 'key')"
    assert isinstance(info.value.__cause__, KeyError)
    with pytest.raises(StaleStore):
        with decoding("some/path"):
            raise StaleStore("stale")
