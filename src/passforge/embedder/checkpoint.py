"""Versioned JSON checkpoint container.

Arrays are base64-encoded little-endian float64 bytes, so a checkpoint written
twice from the same parameters is byte-identical (reproducibility checks diff
the files directly).
"""
from __future__ import annotations

import base64
import json

import numpy as np

FORMAT_VERSION = "passforge_ckpt_v1"


def save_checkpoint(path: str, params: dict[str, np.ndarray],
                    config_doc: dict, seed: int, extra: dict | None = None) -> None:
    doc = {
        "format": FORMAT_VERSION,
        "seed": seed,
        "config": config_doc,
        "extra": extra or {},
        "arrays": {
            name: {
                "shape": list(arr.shape),
                "dtype": "float64",
                "data": base64.b64encode(
                    np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode(),
            }
            for name, arr in sorted(params.items())
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict, dict]:
    """(params, config_doc, full_doc)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    params = {}
    for name, rec in doc["arrays"].items():
        arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8")
        params[name] = arr.reshape(rec["shape"]).copy()
    return params, doc["config"], doc
