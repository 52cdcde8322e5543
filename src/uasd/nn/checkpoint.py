"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0-7    magic b"UASDCKPT"
    bytes 8-11   format version, uint32 (currently 1)
    bytes 12-19  header length in bytes, uint64
    header       UTF-8 JSON: {"kind", "netspec", "metadata",
                 "tensors": [{"name", "shape", "offset", "nbytes"}, ...]}
    payload      the tensors' raw float64 little-endian bytes, in order

The same container stores network parameters, batch-norm running stats,
classifier weights, and GMM arrays; "kind" and "metadata" say what a file
holds (including the producing config hash).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..ioutil import atomic_write_bytes

_MAGIC = b"UASDCKPT"
VERSION = 1


def save_checkpoint(
    path,
    kind: str,
    arrays: dict[str, np.ndarray],
    netspec: list[dict] | None = None,
    metadata: dict | None = None,
) -> None:
    tensors = []
    chunks = []
    offset = 0
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
        tensors.append(
            {
                "name": name,
                "shape": list(np.asarray(arrays[name]).shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        chunks.append(data)
        offset += len(data)
    header = json.dumps(
        {
            "kind": kind,
            "netspec": netspec,
            "metadata": metadata or {},
            "tensors": tensors,
        },
        sort_keys=True,
    ).encode("utf-8")
    blob = b"".join(
        [_MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(header)), header]
        + chunks
    )
    atomic_write_bytes(path, blob)


def load_checkpoint(path):
    """Returns (kind, netspec, arrays, metadata)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint {path} does not exist")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:8] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint container")
    version, header_len = struct.unpack_from("<IQ", blob, 8)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 20 + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    payload = blob[20 + header_len :]
    arrays = {}
    try:
        header = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
        kind, netspec, metadata = header["kind"], header["netspec"], header["metadata"]
        for t in header["tensors"]:
            raw = payload[t["offset"] : t["offset"] + t["nbytes"]]
            if len(raw) != t["nbytes"]:
                raise DataError(f"{path}: truncated tensor {t['name']!r}")
            arrays[t["name"]] = np.frombuffer(raw, dtype="<f8").reshape(
                t["shape"]).astype(np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed checkpoint header ({exc})") from exc
    return kind, netspec, arrays, metadata
