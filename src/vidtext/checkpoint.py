"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian u32 format version, little-endian u64
header length, UTF-8 JSON header, then the raw array payloads concatenated
as little-endian float64 in header order.  Endianness is fixed regardless
of host.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, read_input

MAGIC = b"VTCK"
FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named float arrays plus a JSON-serializable metadata dict.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename, so a save that fails partway leaves any
    earlier file at ``path`` as it was.
    """
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; any malformed or truncated file, or trailing bytes
    after the last array, raise DataError."""
    return read_input(path, "checkpoint", _parse_checkpoint, binary=True)


def _parse_checkpoint(path: Path, raw: bytes) -> tuple[dict[str, np.ndarray], dict]:
    if raw[:4] != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    if len(raw) < 16:
        raise DataError(f"checkpoint {path} truncated in its preamble")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    hlen = struct.unpack("<Q", raw[8:16])[0]
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
        meta = header["meta"]
        entries = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        if not isinstance(meta, dict) or not all(
            isinstance(name, str) and all(type(n) is int and n >= 0 for n in shape)
            for name, shape in entries
        ):
            raise ValueError("meta must be an object, and every array a name and a shape")
    except (KeyError, TypeError, ValueError) as exc:  # includes JSON and UTF-8 errors
        raise DataError(f"checkpoint {path} has a malformed header: {exc}") from exc
    offset = 16 + hlen
    arrays: dict[str, np.ndarray] = {}
    for name, shape in entries:
        nbytes = math.prod(shape) * 8
        buf = raw[offset : offset + nbytes]
        if len(buf) != nbytes:
            raise DataError(f"checkpoint {path} truncated at array {name!r}")
        arrays[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"checkpoint {path} has {len(raw) - offset} bytes after its last array")
    return arrays, meta
