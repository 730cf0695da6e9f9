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
