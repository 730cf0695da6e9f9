"""Shared helpers importable from test modules."""

from __future__ import annotations

import numpy as np


def collect_trace(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a chunked trace into (addresses, is_write) arrays."""
    addrs, writes = [], []
    for c in chunks:
        addrs.append(c.addresses)
        writes.append(c.write_mask)
    if not addrs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return np.concatenate(addrs), np.concatenate(writes)


def checkpoint_entries(path) -> list[dict]:
    """Every entry file of a checkpoint (or point-store) directory.

    Reads the files directly, bypassing ``PointStore.get``, so tests see
    exactly what is on disk: one dict per ``<fingerprint>/<entry>.json``.
    """
    import json
    import pathlib

    root = pathlib.Path(path)
    if not root.is_dir():
        return []
    return [json.loads(p.read_text())
            for sub in sorted(root.iterdir())
            if sub.is_dir() and not sub.name.startswith(".")
            for p in sorted(sub.glob("*.json"))]


def checkpoint_points(path) -> dict[tuple, dict]:
    """``{key: payload}`` of every entry in a checkpoint directory."""
    return {tuple(e["key"]): e["payload"] for e in checkpoint_entries(path)}
