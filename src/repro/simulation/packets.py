"""Packet-window bookkeeping shared by the Monte-Carlo engines."""

from __future__ import annotations

import numpy as np


def window_starts(num_packets: int, window: int) -> np.ndarray:
    """Start indices of the consecutive windows covering ``num_packets``."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    return np.arange(0, num_packets, window)
