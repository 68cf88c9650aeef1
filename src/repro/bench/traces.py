"""A production-shaped fleet trace synthesizer.

Synthesizes a multi-function arrival trace with the heavy-tailed
popularity and bursty per-function behaviour production FaaS traces
show (cf. the Azure Functions trace analyses): a few hot functions
dominate, a long tail is invoked rarely — exactly the regime where
cold starts happen.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class TraceFormatError(Exception):
    """Invalid trace parameters."""


def synthesize_fleet_workload(
    function_count: int,
    duration_ms: float,
    requests: int,
    zipf_s: float = 1.2,
    bursty_fraction: float = 0.3,
    diurnal_period_ms: float = 3_600_000.0,
    diurnal_floor: float = 0.1,
    mean_on_ms: float = 2_000.0,
    mean_off_ms: float = 20_000.0,
    margin: float = 1.08,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fleet-scale trace: Zipf popularity × (diurnal ∘ bursty) arrivals.

    Returns two parallel numpy arrays — sorted arrival times (ms,
    float64) and function indices (int32) — so the X12 fleet study can
    stream a ≥1M-request trace without materializing a million Python
    objects.

    Shape: function popularity is Zipf(``zipf_s``); a deterministic
    ``bursty_fraction`` of functions arrive as interrupted-Poisson
    bursts (exponential ON/OFF periods), the rest as homogeneous
    Poisson; every arrival is then thinned against a sinusoidal
    diurnal rate curve, composing the daily cycle onto both shapes.
    Per-function rates are pre-scaled by the expected thinning/duty
    losses plus ``margin``, and a deterministic top-up on the hottest
    function makes ``len(times) >= requests`` a hard guarantee rather
    than an expectation.
    """
    if function_count < 1:
        raise TraceFormatError("need at least one function")
    if duration_ms <= 0 or requests < 1:
        raise TraceFormatError("duration and requests must be positive")
    if not 0.0 <= bursty_fraction <= 1.0:
        raise TraceFormatError(
            f"bursty_fraction must be in [0, 1], got {bursty_fraction}")
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = np.arange(1, function_count + 1, dtype=np.float64)
    weights = ranks ** -zipf_s
    weights /= weights.sum()
    # Expected survival of the diurnal thinning below, and the ON-duty
    # fraction of the bursty processes: both divide the raw rate so
    # the post-thinning count lands on target * margin.
    diurnal_keep = diurnal_floor + (1.0 - diurnal_floor) / 2.0
    duty = mean_on_ms / (mean_on_ms + mean_off_ms)
    targets = requests * margin * weights / diurnal_keep
    is_bursty = rng.random(function_count) < bursty_fraction

    time_parts: List[np.ndarray] = []
    fid_parts: List[np.ndarray] = []
    for fid in range(function_count):
        if is_bursty[fid]:
            # Interrupted Poisson: exponential ON/OFF windows, uniform
            # arrivals inside each ON window at the burst rate.
            rate_per_ms = targets[fid] / (duty * duration_ms)
            chunks = []
            t, on = 0.0, False
            while t < duration_ms:
                period = rng.exponential(mean_on_ms if on else mean_off_ms)
                if on:
                    end = min(t + period, duration_ms)
                    n = rng.poisson(rate_per_ms * (end - t))
                    if n:
                        chunks.append(t + rng.random(n) * (end - t))
                t += period
                on = not on
            arrivals = (np.concatenate(chunks) if chunks
                        else np.empty(0, dtype=np.float64))
        else:
            # Homogeneous Poisson on [0, D): Poisson count, uniform order
            # statistics (exact, and fully vectorized).
            n = rng.poisson(targets[fid])
            arrivals = rng.random(n) * duration_ms
        if arrivals.size:
            time_parts.append(arrivals)
            fid_parts.append(np.full(arrivals.size, fid, dtype=np.int32))

    times = (np.concatenate(time_parts) if time_parts
             else np.empty(0, dtype=np.float64))
    fids = (np.concatenate(fid_parts) if fid_parts
            else np.empty(0, dtype=np.int32))
    # Diurnal composition by thinning (same curve as diurnal_arrivals).
    phase = np.sin(2 * np.pi * times / diurnal_period_ms - np.pi / 2)
    keep_fraction = diurnal_floor + (1 - diurnal_floor) * (phase + 1) / 2
    kept = rng.random(times.size) < keep_fraction
    times, fids = times[kept], fids[kept]
    shortfall = requests - times.size
    if shortfall > 0:
        extra = rng.random(shortfall) * duration_ms
        times = np.concatenate([times, extra])
        fids = np.concatenate(
            [fids, np.zeros(shortfall, dtype=np.int32)])
    order = np.argsort(times, kind="stable")
    return times[order], fids[order]

