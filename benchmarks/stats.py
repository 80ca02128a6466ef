"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

from typing import Sequence

# Candidate tail percentiles, in thousandths of a percent so that rank
# arithmetic stays exact (99.9 is not exact in binary floating point).
TAIL_LADDER = (50_000, 90_000, 99_000, 99_900, 99_990)
MIN_BEYOND = 10


def _rank(n: int, milli_pct: int) -> int:
    """Nearest-rank position (1-based) of a percentile in ``n`` sorted samples."""
    return -(-n * milli_pct // 100_000)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ``MIN_BEYOND`` of ``n``
    samples strictly above its rank."""
    chosen = None
    for milli_pct in TAIL_LADDER:
        if n - _rank(n, milli_pct) >= MIN_BEYOND:
            chosen = milli_pct
    if chosen is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return chosen / 1000


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest well-sampled tail percentile."""
    pct = tail_percentile(len(samples))
    ordered = sorted(samples)
    return pct, ordered[_rank(len(ordered), round(pct * 1000)) - 1]
