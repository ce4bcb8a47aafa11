"""Parameter-dict utilities and byte-deterministic checkpoint files.

File layout: ASCII magic line, 8-byte little-endian header length, compact
JSON header (sorted keys) listing tensor names and shapes, then the tensors as
little-endian float64 in C order, params first, buffers after, each section in
the header's (sorted) order.
"""

from __future__ import annotations

import json
import math
from typing import Tuple

import numpy as np

from .dataio import read_file, write_file
from .errors import CheckpointError, NumericsError

MAGIC = b"MOBICAST-CKPT\n"
FORMAT_VERSION = 1


def clone_params(params: dict) -> dict:
    return {name: np.array(arr, dtype=np.float64, copy=True) for name, arr in params.items()}


def _section_header(section: dict) -> list:
    return [[name, list(section[name].shape)] for name in sorted(section)]


def save_params(path: str, params: dict, buffers: dict, meta: dict) -> None:
    """Write params and buffers with a JSON meta block; bytes are deterministic."""
    for section in (params, buffers):
        for name, arr in section.items():
            if not np.all(np.isfinite(arr)):
                raise NumericsError(f"refusing to save non-finite tensor {name!r}")
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "params": _section_header(params),
        "buffers": _section_header(buffers),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = [np.ascontiguousarray(section[name], dtype="<f8").tobytes()
               for section in (params, buffers) for name in sorted(section)]
    write_file(path, b"".join([MAGIC, len(blob).to_bytes(8, "little"), blob, *tensors]))


def _is_tensor_entry(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(dim) is int and dim >= 0 for dim in entry[1]))


def load_params(path: str) -> Tuple[dict, dict, dict]:
    raw = read_file(path, binary=True, error=CheckpointError)
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path!r} is not a checkpoint file (bad magic)")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise CheckpointError(f"{path!r} is truncated")
    hlen = int.from_bytes(raw[off:off + 8], "little")
    off += 8
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path!r} has a corrupt header: {exc}") from exc
    off += hlen
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise CheckpointError(f"{path!r}: header and its meta must be JSON objects")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:   # true and 1.0 are not 1
        raise CheckpointError(f"{path!r}: unsupported format_version {version!r}")
    sections = []
    for key in ("params", "buffers"):
        out = {}
        entries = header.get(key, [])
        if not isinstance(entries, list) or not all(map(_is_tensor_entry, entries)):
            raise CheckpointError(f"{path!r}: {key} must list [name, shape] pairs "
                                  f"with integer dimensions >= 0")
        for name, shape in entries:
            nbytes = math.prod(shape) * 8
            if off + nbytes > len(raw):
                raise CheckpointError(f"{path!r}: blob too short for tensor {name!r}")
            arr = np.frombuffer(raw[off:off + nbytes], dtype="<f8").astype(np.float64)
            out[name] = arr.reshape(shape)
            off += nbytes
        sections.append(out)
    if off != len(raw):
        raise CheckpointError(f"{path!r}: {len(raw) - off} trailing bytes after blob")
    params, buffers = sections
    for section in sections:
        for name, arr in section.items():
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path!r}: tensor {name!r} has non-finite values")
    return params, buffers, header.get("meta", {})
