"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    magic     8 bytes   b"DLVLCKPT"
    version   uint32    format version (currently 1)
    hdr_len   uint32    length of the UTF-8 JSON header
    header    hdr_len   JSON: model config, step, rng state, anything scalar
    count     uint32    number of records
    records   repeated:
        name_len  uint16
        name      name_len bytes UTF-8
        ndim      uint8
        dims      ndim * uint32
        data      prod(dims) * float32 little-endian

Records are written sorted by name and the header JSON uses sorted keys with
fixed separators, so serialization is idempotent: save -> load -> save
produces byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import Any

import numpy as np

from .errors import ConfigError, ParseError, ShapeError

MAGIC = b"DLVLCKPT"
FORMAT_VERSION = 1


def save(path, header: dict[str, Any], arrays: dict[str, np.ndarray]):
    """Write a checkpoint that replaces ``path`` atomically.

    The bytes go to ``path + ".tmp"`` in the same directory, reach the disk
    (fsync), and only then take the place of ``path`` (``durable_replace``);
    a save that fails removes the temporary file, so an earlier one survives.
    Records are stored as float32, so any other dtype raises ``ConfigError``
    before the temporary file is opened, rather than losing precision.
    """
    for name in sorted(arrays):
        if arrays[name].dtype != np.float32:
            raise ConfigError(f"checkpoint record {name!r} is {arrays[name].dtype}; records are float32")
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(hdr)))
            f.write(hdr)
            f.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f4")
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.tobytes())
            f.flush()
            os.fsync(f.fileno())
        durable_replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def durable_replace(tmp, path):
    """``os.replace(tmp, path)``, and an fsync of the directory so that a power loss keeps it."""
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load(path) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise ParseError(f"checkpoint truncated while reading {what}", offset=off)
        chunk = blob[off:off + n]
        off += n
        return chunk

    if take(8, "magic") != MAGIC:
        raise ParseError("not a checkpoint file (bad magic)", offset=0)
    version, hdr_len = struct.unpack("<II", take(8, "version/header length"))
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=8)
    try:
        header = json.loads(take(hdr_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"bad header JSON: {e}", offset=16) from None
    if not isinstance(header, dict):
        raise ParseError(f"header is a JSON {type(header).__name__}, not an object", offset=16)
    (count,) = struct.unpack("<I", take(4, "record count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name_at = off
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("record name is not UTF-8", offset=name_at) from None
        if name in arrays:
            raise ParseError(f"record {name!r} appears twice", offset=name_at)
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        dims_at = off
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        n = math.prod(dims)  # Python ints, so a huge record fails the size check instead of wrapping
        data = np.frombuffer(take(4 * n, f"data of {name}"), dtype="<f4")
        # a zero dim leaves no data to read, yet numpy refuses a shape whose other dims overflow
        if n == 0 and 4 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
            raise ParseError(f"record {name!r} has dims {dims}, too large for any array", offset=dims_at)
        arrays[name] = data.reshape(dims).copy()
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after last record", offset=off)
    return header, arrays


def get_record(arrays: dict[str, np.ndarray], name: str, shape) -> np.ndarray:
    """The loaded record ``name``, checked against the shape it must have."""
    if name not in arrays:
        raise ConfigError(f"checkpoint lacks record {name!r} (another model configuration?)")
    if arrays[name].shape != tuple(shape):
        raise ShapeError(f"checkpoint record {name!r}: shape {arrays[name].shape} != {tuple(shape)}")
    return arrays[name]
