"""Serialization: JSON/CSV reports, config hashing."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def config_hash(payload) -> str:
    """Stable hash of a JSON-serializable configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


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
