"""Binary container shared by the model/dataset/cache file formats.

Layout (all integers ASCII-encoded in the preamble):

    QTM1\n
    HDR <nbytes>\n
    <nbytes of canonical JSON, UTF-8>
    <raw little-endian buffers, concatenated in header order>

The JSON header is canonical (sorted keys, no whitespace) so that a given
logical payload always serializes to the same bytes.  The envelope keys are
written and checked here and nowhere else: ``"format"`` (the file kind,
e.g. ``"qtm"``), ``"version"`` (``VERSION``), ``"meta"`` (optional, the
flags that produced the file) and ``"buffers"``, a list of ``{"dtype",
"shape"}`` entries describing each raw segment in order.  The rest of the
header is the payload of the file kind.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from typing import Any

import numpy as np

MAGIC = b"QTM1\n"
VERSION = 1
_ENVELOPE = ("format", "version", "meta", "buffers")


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path: str, fmt: str, header: dict, buffers: list[np.ndarray],
                    meta: dict | None = None) -> None:
    """Write the payload ``header`` plus raw ``buffers`` to ``path`` as a
    ``fmt`` container of this ``VERSION``, echoing ``meta`` when given.

    ``header`` may not set an envelope key; the buffer table is derived from
    the arrays themselves.
    """
    reserved = sorted(set(_ENVELOPE).intersection(header))
    if reserved:
        raise ValueError(f"header may not define the reserved keys {reserved}")
    # C order and little-endian on disk; a conforming array is not copied
    arrs = [np.ascontiguousarray(b, b.dtype.newbyteorder("<")) for b in buffers]
    table = [{"dtype": a.dtype.name, "shape": list(a.shape)} for a in arrs]
    full = {**header, "format": fmt, "version": VERSION, "buffers": table}
    if meta:
        full["meta"] = meta
    blob = canonical_json(full)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(b"HDR %d\n" % len(blob))
        f.write(blob)
        for a in arrs:
            f.write(a)  # the array's own buffer, not a bytes copy


@contextmanager
def _malformed_header(path: str, error: type[ValueError] = ValueError):
    """Turn what a hostile or corrupt file raises while its header is read
    into ``error``, the one exception the loaders document."""
    try:
        yield
    except error:
        raise
    except ValueError as e:
        raise error(str(e)) from e
    except (KeyError, IndexError, TypeError, StopIteration) as e:
        raise error(f"{path}: malformed header field: {e!r}") from e


def _read_header(f, path: str, size: int) -> dict:
    """The JSON header of the open container ``f`` of ``size`` bytes, leaving
    ``f`` at the first buffer."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    line = b""
    while not line.endswith(b"\n"):
        c = f.read(1)
        if not c:
            raise ValueError(f"{path}: truncated header line")
        line += c
    if not line.startswith(b"HDR "):
        raise ValueError(f"{path}: malformed header line {line!r}")
    nbytes = int(line[4:-1])
    if not 0 <= nbytes <= size - f.tell():
        raise ValueError(f"{path}: truncated header")
    header = json.loads(f.read(nbytes).decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    return header


def file_format(path: str):
    """The format tag of the container at ``path``, read from its header
    alone; a file that is not a container raises ValueError."""
    with open(path, "rb") as f, _malformed_header(path):
        return _read_header(f, path, os.fstat(f.fileno()).st_size).get("format")


def read_container(path: str, fmt: str) -> tuple[dict, list[np.ndarray]]:
    """Read a ``fmt`` container, returning ``(header, buffers)``.

    The returned header is the payload plus ``"meta"`` when present, without
    the other envelope keys; arrays come back in native byte order with the
    recorded dtype and shape.  A file that does not match the layout (bytes
    left after the last buffer included), is of another format or of
    another version than ``VERSION`` raises ValueError.
    """
    with open(path, "rb") as f, _malformed_header(path):
        size = os.fstat(f.fileno()).st_size
        header = _read_header(f, path, size)
        if header.get("format") != fmt:
            raise ValueError(f"{path}: format {header.get('format')!r} is not {fmt!r}")
        version = header.get("version")
        if type(version) is not int or version != VERSION:
            raise ValueError(f"{path}: version {version!r} is not {VERSION}")
        buffers = []
        for entry in header.get("buffers", []):
            dt = np.dtype(entry["dtype"]).newbyteorder("<")
            if dt.hasobject:  # its bytes would be read as pointers
                raise ValueError(f"{path}: buffer dtype {entry['dtype']!r} holds objects")
            shape = tuple(entry["shape"])
            # sized against the file before reading, so a corrupt shape
            # cannot ask for an unbounded allocation
            nbytes = math.prod(shape) * dt.itemsize
            if not 0 <= nbytes <= size - f.tell():
                raise ValueError(f"{path}: truncated buffer payload")
            # read straight into the array returned, which is writable
            arr = np.empty(shape, dt)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise ValueError(f"{path}: truncated buffer payload")
            buffers.append(arr.astype(dt.newbyteorder("="), copy=False))
        if f.tell() != size:
            raise ValueError(f"{path}: {size - f.tell()} bytes after the last buffer")
        payload = {k: v for k, v in header.items() if k not in ("format", "version", "buffers")}
        return payload, buffers
