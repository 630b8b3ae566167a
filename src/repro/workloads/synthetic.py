"""Low-level synthetic-modeling building blocks.

These functions encode the modelling assumptions shared by the Akamai-like
topology generator and the flash-crowd scenario:

* **Loss vs distance** -- long-haul Internet paths lose more packets than
  metro paths (congested peering points, more hops).  We map planar distance
  to a base loss rate and add lognormal jitter, clamped to a configurable
  range.  The absolute numbers (0.1%--15%) bracket the loss rates reported for
  the public Internet in the paper's era.
* **Bandwidth price** -- co-location bandwidth contracts differ by region;
  prices are drawn around a per-region multiplier (Section 1.2's "cost in
  dollars of sending additional bits across each link").
* **Zipf viewership** -- stream popularity is heavy-tailed; the number of edge
  regions subscribing to a stream follows a Zipf-like law, which is how we
  pick subscriber sets of realistic sizes.
"""

from __future__ import annotations

import math

import numpy as np


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Euclidean distance between two planar points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


#: Shared loss-model constants (also the defaults of the vectorized variant in
#: :mod:`repro.workloads.internet_scale` -- tune them here, not per workload).
BASE_LOSS = 0.002
LOSS_PER_UNIT_DISTANCE = 0.02
LOSS_JITTER_SIGMA = 0.35
MIN_LOSS = 0.0005
MAX_LOSS = 0.15


def loss_probability_from_distance(
    dist: float,
    rng: np.random.Generator,
    base_loss: float = BASE_LOSS,
    loss_per_unit_distance: float = LOSS_PER_UNIT_DISTANCE,
    jitter_sigma: float = LOSS_JITTER_SIGMA,
    min_loss: float = MIN_LOSS,
    max_loss: float = MAX_LOSS,
) -> float:
    """Map a planar distance to a per-packet loss probability with jitter.

    The mean loss grows affinely with distance; multiplicative lognormal
    jitter models path-to-path variation; the result is clamped to
    ``[min_loss, max_loss]``.
    """
    if dist < 0:
        raise ValueError(f"distance must be non-negative, got {dist}")
    mean = base_loss + loss_per_unit_distance * dist
    jitter = float(rng.lognormal(mean=0.0, sigma=jitter_sigma))
    return float(np.clip(mean * jitter, min_loss, max_loss))


def bandwidth_price(
    region_multiplier: float,
    rng: np.random.Generator,
    base_price: float = 1.0,
    spread: float = 0.25,
) -> float:
    """Per-stream bandwidth price for a colo in a region.

    ``region_multiplier`` captures systematic regional differences (e.g.
    trans-oceanic transit being pricier); ``spread`` adds per-colo variation.
    """
    if region_multiplier <= 0:
        raise ValueError("region multiplier must be positive")
    noise = 1.0 + spread * float(rng.uniform(-1.0, 1.0))
    return max(base_price * region_multiplier * noise, 1e-3)


def zipf_viewership(
    num_streams: int,
    num_regions: int,
    rng: np.random.Generator,
    exponent: float = 1.1,
    min_regions: int = 1,
) -> list[int]:
    """Number of subscribing regions per stream, Zipf-distributed by rank.

    Stream 0 is the most popular (subscribed by ~all regions), later streams
    reach geometrically fewer regions, never fewer than ``min_regions``.
    """
    if num_streams <= 0 or num_regions <= 0:
        raise ValueError("num_streams and num_regions must be positive")
    if min_regions < 1:
        raise ValueError("min_regions must be at least 1")
    counts = []
    for rank in range(1, num_streams + 1):
        expected = num_regions / rank**exponent
        jitter = float(rng.uniform(0.8, 1.2))
        counts.append(int(np.clip(round(expected * jitter), min_regions, num_regions)))
    return counts

