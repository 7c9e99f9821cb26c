"""Serialization: kernel snapshots, JSON/CSV reports, config hashing."""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"CSKN"


def config_hash(payload) -> str:
    """Stable hash of a JSON-serializable configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def save_kernel(path, values: np.ndarray, grid: np.ndarray,
                weights: np.ndarray, k: float | None = None) -> None:
    """Kernel snapshot: magic, length-prefixed JSON header (grid, weights,
    k, shape), then row-major float64 values."""
    header = {"shape": list(values.shape), "k": k,
              "grid": np.asarray(grid, dtype=float).tolist(),
              "weights": np.asarray(weights, dtype=float).tolist()}
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(values, dtype=float).tobytes())


def load_kernel(path):
    """Inverse of save_kernel: (values, header dict)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a kernel snapshot")
        (nb,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(nb).decode())
        values = np.frombuffer(fh.read(), dtype=float)
    values = values.reshape(header["shape"])
    return values, header


def write_report(path, payload: dict, config: dict, version: str) -> None:
    out = {"config_hash": config_hash(config), "version": version,
           "config": config}
    out.update(payload)
    Path(path).write_text(json.dumps(out, indent=2, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return str(obj)


def write_csv(path, rows, columns) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(columns)
        for row in rows:
            wr.writerow(row)
