"""The one on-disk format of every lexlink artifact.

Layout: one UTF-8 JSON header line (format tag, free-form metadata, array
names and shapes) followed by the arrays' raw little-endian float64 bytes in
header order. The AT and KB indexes carry no arrays, so each is a single line
of valid JSON: their metadata holds the rows the index is built from (alias
entries; entity ids and names), and loading one builds the index again. The
model and the entity store carry float64 arrays; their header line is padded
with spaces to a multiple of ``ALIGNMENT`` bytes, so the arrays start aligned.
The writer is fully deterministic, so identical inputs produce byte-identical
files, and it replaces the target by a rename, never in place.

``read_container`` is the only reader and the only place a format tag is
checked. It maps the arrays copy-on-write rather than reading them: a page
of a file is read only when its rows are touched, and writes to a loaded
array stay in the process. A mapped file must not be truncated or rewritten
in place while it is in use (the process would get SIGBUS); the writer's
rename leaves a loaded file's bytes as they were. Code that decodes the
metadata or arrays it returns runs inside ``decoding(path)``, so a malformed
artifact ends in ``ArtifactFormatError`` naming its path rather than in a
bare ``KeyError`` or ``ValueError``.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ArtifactFormatError

# Byte boundary the arrays start on. numpy copies rather than views an array
# whose start is not a multiple of its item size.
ALIGNMENT = 64


@contextmanager
def decoding(path):
    """Re-raise what a malformed value makes decoding code raise as
    ``ArtifactFormatError`` naming ``path``."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc


def write_container(path, tag: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as C-ordered little-endian float64 after the header,
    each in one write from its own buffer; one stored otherwise is converted
    while it is written, one array at a time. The file is written beside
    ``path`` under a temporary name, then renamed over it; on failure the
    temporary file is removed and ``path`` is left as it was."""
    entries = [{"name": name, "shape": list(np.asarray(array, dtype="<f8").shape)} for name, array in arrays.items()]
    header = json.dumps({"format": tag, "meta": meta, "arrays": entries}, ensure_ascii=False).encode("utf-8")
    if arrays:
        header += b" " * (-(len(header) + 1) % ALIGNMENT)
    temporary = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temporary, "xb") as fh:
            fh.write(header + b"\n")
            for array in arrays.values():
                fh.write(np.ascontiguousarray(array, dtype="<f8").data)
        os.replace(temporary, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def read_container(path, tag: str, rerun: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and arrays of a container with format ``tag``; a file of
    another format is refused, naming the command ``rerun`` that writes it.
    Each array is a view of one copy-on-write map of the file, made only once
    the bytes left in the file are known to hold every array."""
    with open(path, "rb") as fh, decoding(path):
        line = fh.readline()
        header = json.loads(line.decode("utf-8"))
        if header.get("format") != tag:
            hint = f"; rerun {rerun}" if rerun else ""
            raise ArtifactFormatError(f"{path}: expected format {tag!r}, got {header.get('format')!r}{hint}")
        size, end = os.fstat(fh.fileno()).st_size, len(line)
        spans: dict[str, tuple[tuple[int, ...], int]] = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if not all(type(n) is int for n in shape):  # so no float, bool or string is converted
                raise TypeError(f"array {name!r} has a shape entry that is not an integer: {entry['shape']!r}")
            if name in spans:
                raise ValueError(f"array {name!r} is stored twice")
            nbytes = 8 * math.prod(shape)
            if nbytes > size - end:
                raise ArtifactFormatError(f"{path}: truncated array {name!r}")
            if min(shape, default=0) < 0:
                raise ValueError(f"array {name!r} has a negative dimension: {list(shape)}")
            spans[name] = shape, end
            end += nbytes
        if spans and len(line) % ALIGNMENT:
            raise ArtifactFormatError(
                f"{path}: header line of {len(line)} bytes leaves the arrays unaligned to {ALIGNMENT} bytes"
            )
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if end > len(line) else None
        arrays = {
            name: np.ndarray(shape, "<f8", buffer, offset) if math.prod(shape) else np.empty(shape, "<f8")
            for name, (shape, offset) in spans.items()
        }
        return header["meta"], arrays
