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
import stat
import struct
import threading
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, ParseError, ShapeError

MAGIC = b"DLVLCKPT"
FORMAT_VERSION = 1


def save(path, header: dict[str, Any], arrays: dict[str, np.ndarray]):
    """Write a checkpoint that replaces ``path`` atomically.

    The bytes go to ``path + ".tmp"`` in the same directory, reach the disk
    (fsync), and only then take the place of ``path`` (``durable_replace``),
    which holds them durably when this returns; the file they replace is freed
    by a thread meanwhile. A save that fails removes the temporary file, so
    an earlier one survives.
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
    """``os.replace(tmp, path)``, and an fsync of the directory so that a power loss keeps it.

    The kernel frees a file's blocks at the close of its last link, on the
    closer's clock: on ext4 mounted with ``discard`` (a 2-core VM's virtual
    disk), 7.7 MB desk saves over one path took a median of 7-26 ms and a p90
    of 57-131 ms, against 4 ms to a fresh name (``tools/save_cost.py``). So
    a regular file at ``path`` is opened before
    the rename, and a short-lived thread closes it after the directory fsync:
    the caller returns once ``path`` durably names the new file. A fork waits
    for that close (``_join_releases``), so no child keeps the old file; a
    crash before it leaves an orphan inode, which the kernel reclaims.
    Anything else at ``path`` (nothing, a symlink, a FIFO, a file this
    process may not read) is replaced plainly.
    """
    old = _open_regular(path)
    try:
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        if old is not None:
            os.close(old)
        raise
    if old is not None:
        try:
            threading.Thread(target=os.close, args=(old,), name=_RELEASE, daemon=True).start()
        except RuntimeError:  # no thread to be had: free the file here
            os.close(old)


_RELEASE = "checkpoint-release"  # the name of a thread that closes a replaced file


def _open_regular(path) -> Optional[int]:
    """A descriptor of the regular file ``path`` names, or None if it names none this process
    may read. Neither a symlink (``O_NOFOLLOW``) nor a FIFO (``O_NONBLOCK``) blocks it."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
    except OSError:
        return None
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return fd
    os.close(fd)
    return None


def _join_releases():
    """Wait for the closes of replaced files under way: a process forked before one would
    inherit the descriptor and keep the file's blocks for as long as it runs."""
    for thread in threading.enumerate():
        if thread.name == _RELEASE:
            thread.join()


os.register_at_fork(before=_join_releases)


def load(path) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        return parse(f.read())


_VERSION_HDR_LEN = struct.Struct("<II")
_COUNT = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")


def parse(blob: bytes) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """The header and the records of the checkpoint file whose bytes are ``blob``.

    Each field is read at its offset once its bounds are checked. Each record
    is a read-only view of ``blob``: nothing is copied, and a caller copies
    the records it keeps.
    """
    off = 0

    def field(n, what):
        """The offset of the next ``n`` bytes, which must lie within ``blob``."""
        nonlocal off
        if off + n > len(blob):
            raise ParseError(f"checkpoint truncated while reading {what}", offset=off)
        off += n
        return off - n

    if blob[field(8, "magic"):off] != MAGIC:
        raise ParseError("not a checkpoint file (bad magic)", offset=0)
    version, hdr_len = _VERSION_HDR_LEN.unpack_from(blob, field(8, "version/header length"))
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=8)
    try:
        header = json.loads(str(blob[field(hdr_len, "header"):off], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"bad header JSON: {e}", offset=16) from None
    if not isinstance(header, dict):
        raise ParseError(f"header is a JSON {type(header).__name__}, not an object", offset=16)
    (count,) = _COUNT.unpack_from(blob, field(4, "record count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _NAME_LEN.unpack_from(blob, field(2, "name length"))
        name_at = field(name_len, "name")
        try:
            name = str(blob[name_at:off], "utf-8")
        except UnicodeDecodeError:
            raise ParseError("record name is not UTF-8", offset=name_at) from None
        if name in arrays:
            raise ParseError(f"record {name!r} appears twice", offset=name_at)
        ndim = blob[field(1, "ndim")]
        dims_at = field(4 * ndim, "dims")
        dims = struct.unpack_from(f"<{ndim}I", blob, dims_at)
        n = math.prod(dims)  # Python ints, so a huge record fails the size check instead of wrapping
        data_at = field(4 * n, f"data of {name}")
        # a zero dim leaves no data to read, yet numpy refuses a shape whose other dims overflow
        if n == 0 and 4 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
            raise ParseError(f"record {name!r} has dims {dims}, too large for any array", offset=dims_at)
        arrays[name] = np.frombuffer(blob, "<f4", n, data_at).reshape(dims)
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
