"""Output digests and the percentile rule.

Every scan the benchmark times is reduced to a digest of what the caller got
back: for each region, in the order returned, its frame, its rectangle, its
label and its pixel bytes (with shape and dtype).  The same query gives the
same digest whether it ran in-process, over the socket or through the
cluster router, so one reference digest per query checks every path.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "GuardError",
    "percentile",
    "result_digest",
    "samples_beyond",
    "tail_percentile",
]

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_REGION = struct.Struct("<q4d")


class GuardError(RuntimeError):
    """A run broke a workload-validity guard or an output check."""


def _rank(count: int, q: float) -> int:
    """Nearest-rank position (1-based) of the ``q``-th percentile."""
    return max(1, math.ceil(q / 100.0 * count - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile position."""
    return count - _rank(count, q)


def tail_percentile(
    values: Sequence[float], ladder: Iterable[float] = TAIL_LADDER
) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(q, value)``, or None when even the lowest rung has fewer than
    :data:`MIN_SAMPLES_BEYOND` samples beyond it.
    """
    for q in ladder:
        if samples_beyond(len(values), q) >= MIN_SAMPLES_BEYOND:
            return q, percentile(values, q)
    return None


def result_digest(regions) -> str:
    """Digest of a scan's regions: frame, rectangle, label and pixel bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for region in regions:
        pixels = np.ascontiguousarray(region.pixels)
        rectangle = region.region
        label = b"\x00" if region.label is None else b"\x01" + region.label.encode()
        digest.update(
            _REGION.pack(
                int(region.frame_index),
                float(rectangle.x1),
                float(rectangle.y1),
                float(rectangle.x2),
                float(rectangle.y2),
            )
        )
        digest.update(struct.pack("<H", len(label)) + label)
        digest.update(repr((pixels.shape, pixels.dtype.str)).encode())
        digest.update(pixels.tobytes())
    return digest.hexdigest()
