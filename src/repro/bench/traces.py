"""Seeded numpy arrival traces.

Three canonical arrival shapes, each a private helper over one shared
``np.random.Generator``:

* Poisson (memoryless steady traffic);
* bursty ON/OFF (interrupted Poisson: quiet, then request trains — the
  worst case for keep-alive policies);
* diurnal (sinusoidal rate by thinning, the classic daily cycle).

:func:`poisson_arrivals`, :func:`bursty_arrivals` and
:func:`diurnal_arrivals` return one shape as sorted float64 arrival
times in ms. :func:`synthesize_fleet_workload` composes all three into
a multi-function trace with the heavy-tailed popularity production FaaS
traces show (cf. the Azure Functions trace analyses): a few hot
functions dominate, a long tail is invoked rarely — exactly the regime
where cold starts happen.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class TraceFormatError(ValueError):
    """Invalid trace parameters."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_rate(rate: float, duration_ms: float) -> None:
    # ``not x > 0`` also rejects NaN.
    if not (rate > 0 and duration_ms > 0):
        raise TraceFormatError(
            f"rate and duration must be positive, got {rate} and "
            f"{duration_ms}")


def _check_periods(mean_on_ms: float, mean_off_ms: float) -> None:
    if not (mean_on_ms > 0 and mean_off_ms > 0):
        raise TraceFormatError(
            f"ON/OFF period means must be positive, got {mean_on_ms} and "
            f"{mean_off_ms}")


def _check_floor(floor: float) -> None:
    if not 0.0 <= floor <= 1.0:
        raise TraceFormatError(f"diurnal floor must be in [0, 1], got {floor}")


def _poisson(rng: np.random.Generator, expected: float,
             duration_ms: float) -> np.ndarray:
    """Homogeneous Poisson on [0, D) with ``expected`` arrivals: a
    Poisson count, then uniform order statistics (exact, vectorized,
    unsorted)."""
    _check_rate(expected, duration_ms)
    return rng.random(rng.poisson(expected)) * duration_ms


def _on_off(rng: np.random.Generator, rate_per_ms: float, duration_ms: float,
            mean_on_ms: float, mean_off_ms: float) -> np.ndarray:
    """Interrupted Poisson, starting OFF: exponential ON/OFF windows,
    uniform arrivals inside each ON window at ``rate_per_ms``
    (unsorted)."""
    _check_rate(rate_per_ms, duration_ms)
    _check_periods(mean_on_ms, mean_off_ms)
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
    return (np.concatenate(chunks) if chunks
            else np.empty(0, dtype=np.float64))


def _diurnal_keep(rng: np.random.Generator, times: np.ndarray,
                  period_ms: float, floor: float) -> np.ndarray:
    """Thinning mask for a sinusoidal rate between ``floor`` and 1 of
    the peak, lowest at t=0 and every ``period_ms``."""
    _check_floor(floor)
    phase = np.sin(2 * np.pi * times / period_ms - np.pi / 2)
    keep_fraction = floor + (1 - floor) * (phase + 1) / 2
    return rng.random(times.size) < keep_fraction


def poisson_arrivals(rate_per_s: float, duration_ms: float,
                     seed: int = 0) -> np.ndarray:
    """Homogeneous Poisson process at ``rate_per_s`` on [0, duration)."""
    return np.sort(_poisson(_rng(seed), rate_per_s * duration_ms / 1000.0,
                            duration_ms))


def bursty_arrivals(
    burst_rate_per_s: float,
    duration_ms: float,
    mean_on_ms: float = 2_000.0,
    mean_off_ms: float = 30_000.0,
    seed: int = 0,
) -> np.ndarray:
    """On/off (interrupted Poisson) process.

    During ON periods requests arrive at ``burst_rate_per_s``; OFF
    periods are silent. Period lengths are exponential. This is the
    trace shape that defeats idle-timeout keep-alive: the pool drains
    during OFF and every burst reopens with a cold start.
    """
    return np.sort(_on_off(_rng(seed), burst_rate_per_s / 1000.0,
                           duration_ms, mean_on_ms, mean_off_ms))


def diurnal_arrivals(
    peak_rate_per_s: float,
    duration_ms: float,
    period_ms: float = 86_400_000.0,
    floor_fraction: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Sinusoidal-rate Poisson process (thinning method).

    Rate oscillates between ``floor_fraction * peak`` and ``peak`` with
    the given period (default: one day).
    """
    rng = _rng(seed)
    times = _poisson(rng, peak_rate_per_s * duration_ms / 1000.0, duration_ms)
    return np.sort(times[_diurnal_keep(rng, times, period_ms, floor_fraction)])


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
    # The rate scaling below divides by both, so check them before any
    # function's helper does.
    _check_periods(mean_on_ms, mean_off_ms)
    _check_floor(diurnal_floor)
    rng = _rng(seed)
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
            arrivals = _on_off(rng, targets[fid] / (duty * duration_ms),
                               duration_ms, mean_on_ms, mean_off_ms)
        else:
            arrivals = _poisson(rng, targets[fid], duration_ms)
        if arrivals.size:
            time_parts.append(arrivals)
            fid_parts.append(np.full(arrivals.size, fid, dtype=np.int32))

    times = (np.concatenate(time_parts) if time_parts
             else np.empty(0, dtype=np.float64))
    fids = (np.concatenate(fid_parts) if fid_parts
            else np.empty(0, dtype=np.int32))
    # Diurnal composition by thinning, onto both shapes.
    kept = _diurnal_keep(rng, times, diurnal_period_ms, diurnal_floor)
    times, fids = times[kept], fids[kept]
    shortfall = requests - times.size
    if shortfall > 0:
        extra = rng.random(shortfall) * duration_ms
        times = np.concatenate([times, extra])
        fids = np.concatenate(
            [fids, np.zeros(shortfall, dtype=np.int32)])
    order = np.argsort(times, kind="stable")
    return times[order], fids[order]
