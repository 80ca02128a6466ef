"""The one on-disk format of every lexlink artifact.

Layout: one UTF-8 JSON header line (format tag, free-form metadata, array
names and shapes) followed by the arrays' raw little-endian float64 bytes in
header order. The AT and KB indexes keep everything in the metadata and carry
no arrays, so each is a single line of valid JSON; the model and the entity
store carry float64 arrays. The writer is fully deterministic, so identical
inputs produce byte-identical files.

``read_container`` is the only reader and the only place a format tag is
checked. Code that decodes the metadata or arrays it returns runs inside
``decoding(path)``, so a malformed artifact ends in ``ArtifactFormatError``
naming its path rather than in a bare ``KeyError`` or ``ValueError``.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import ArtifactFormatError


@contextmanager
def decoding(path):
    """Re-raise what a malformed value makes decoding code raise as
    ``ArtifactFormatError`` naming ``path``."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc


def write_container(path, tag: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = []
    for name, array in arrays.items():
        data = np.ascontiguousarray(array, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape)})
        payload.append(data.tobytes())
    header = json.dumps({"format": tag, "meta": meta, "arrays": entries}, ensure_ascii=False)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for chunk in payload:
            fh.write(chunk)


def read_container(path, tag: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and arrays of a container with format ``tag``. Each array
    is read straight into its own buffer, allocated only once the bytes left
    in the file are known to hold it."""
    with open(path, "rb") as fh, decoding(path):
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != tag:
            raise ArtifactFormatError(f"{path}: expected format {tag!r}, got {header.get('format')!r}")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        arrays: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
            nbytes = 8 * math.prod(shape)
            if nbytes > left:
                raise ArtifactFormatError(f"{path}: truncated array {name!r}")
            arrays[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arrays[name]) != nbytes:
                raise ArtifactFormatError(f"{path}: truncated array {name!r}")
            left -= nbytes
        return header["meta"], arrays
