"""Workload shapes and seeded trace generation for the replay benchmark.

A workload is a platform shape (which functions, how they start, which
optional planes are on) plus an open-loop arrival trace. The trace is
generated here from the ``--seed`` alone, with numpy, so the program
under test only ever sees the finished trace; nothing in ``repro`` is
used to make inputs, which keeps the inputs fixed while the program
changes underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

#: Functions whose handler renders the request body as markdown; their
#: requests carry a document from the seeded pool.
MARKDOWN_FUNCTIONS = frozenset({"markdown", "py-markdown", "node-markdown"})

#: Simulated autoscaler reconcile period (one ``gc_tick`` per period).
RECONCILE_MS = 1_000.0

#: Mean ON and OFF period of a bursty function's arrivals.
BURST_ON_MS = 5_000.0
BURST_OFF_MS = 20_000.0

#: The platform's own RNG seed. Fixed, so ``--seed`` changes only the
#: trace the platform is given, never the platform.
WORLD_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: platform shape plus trace shape."""

    name: str
    #: (function, start technique) in popularity order, hottest first.
    functions: Tuple[Tuple[str, str], ...]
    zipf_s: float
    rate_per_s: float
    #: Independent trace segments, each replayed on a fresh platform.
    segments: int
    #: Requests per segment.
    requests: int
    idle_timeout_ms: float
    #: Functions that arrive in ON/OFF bursts instead of plain Poisson.
    bursty: Tuple[str, ...] = ()
    observe: bool = False
    prewarm: bool = False
    storage_nodes: int = 0
    replication_factor: int = 1
    #: Re-register (and so rebake) one function every N requests; 0 = never.
    redeploy_every: int = 0
    #: Snapshot after one warm-up request (the paper's "prebake warm")
    #: instead of right after the application is ready.
    warm_snapshots: bool = False

    def scaled(self, segments: int, requests: int) -> "Workload":
        """The same shape with a different trace length (smoke tests)."""
        return replace(self, segments=segments, requests=requests)


ALL_TEN = ("noop", "markdown", "py-noop", "node-noop", "py-markdown",
           "node-markdown", "synthetic-small", "synthetic-medium",
           "synthetic-big", "image-resizer")

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cold-restore": Workload(
        name="cold-restore",
        functions=tuple((f, "prebake") for f in ALL_TEN),
        zipf_s=0.8,
        rate_per_s=1.0,
        segments=3,
        requests=1_000,
        idle_timeout_ms=250.0,
    ),
    "warm-serve": Workload(
        name="warm-serve",
        functions=(("markdown", "prebake"), ("noop", "prebake"),
                   ("py-markdown", "prebake"), ("node-noop", "prebake"),
                   ("image-resizer", "prebake")),
        zipf_s=1.0,
        rate_per_s=20.0,
        segments=3,
        requests=2_000,
        idle_timeout_ms=1e12,
    ),
    "fleet-observed": Workload(
        name="fleet-observed",
        # The interpreted runtimes start vanilla (fast boots); the JVM
        # functions are prebaked warm. A vanilla or after-ready JVM replica
        # of synthetic-big loads classes for 1.6 s of simulated time on
        # its first request, a single stall that would set the p99 alone.
        functions=tuple((f, "vanilla" if f in ("py-noop", "node-noop", "py-markdown")
                         else "prebake") for f in ALL_TEN),
        zipf_s=1.0,
        rate_per_s=20.0,
        segments=10,
        requests=2_500,
        idle_timeout_ms=60_000.0,
        bursty=("py-noop", "node-markdown", "synthetic-medium"),
        observe=True,
        prewarm=True,
        storage_nodes=3,
        replication_factor=2,
        redeploy_every=1_000,
        warm_snapshots=True,
    ),
}


@dataclass(frozen=True)
class TraceEvent:
    """One request: due time relative to the trace start, target, body."""

    due_ms: float
    function: str
    body: Optional[str]


_WORDS = ("cold", "start", "snapshot", "restore", "replica", "runtime",
          "function", "prebake", "checkpoint", "page", "memory", "router",
          "latency", "warm", "pool", "node", "chunk", "cache", "trace",
          "request", "kernel", "image", "layer", "shard", "quorum")


def _markdown_document(rng: np.random.Generator) -> str:
    """A markdown page with headings, lists, code, a quote and links.

    Every page has the same structure and word counts, only the words
    differ, so rendering costs about the same whichever seed drew it.
    """
    def words(n: int) -> str:
        return " ".join(rng.choice(_WORDS, size=n))

    lines: List[str] = [f"# {words(3).title()}", ""]
    for section in range(3):
        lines += [f"## {words(2).title()} {section}", "",
                  f"{words(12)} *{words(2)}* and **{words(2)}** with "
                  f"`{rng.choice(_WORDS)}` and "
                  f"[{words(2)}](https://example.org/{rng.choice(_WORDS)}).", ""]
        lines += [f"- {words(5)}" for _ in range(4)]
        lines += ["", "```", words(6), words(4), "```", "", f"> {words(10)}", ""]
    return "\n".join(lines)


def _counts(weights: np.ndarray, total: int) -> np.ndarray:
    """Split ``total`` requests by ``weights`` (largest remainder)."""
    exact = weights * total
    counts = np.floor(exact).astype(int)
    short = total - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return counts


def _arrivals(rng: np.random.Generator, count: int, duration_ms: float,
              bursty: bool) -> np.ndarray:
    """``count`` arrival times in ``[0, duration_ms)``.

    Poisson functions get a Poisson process conditioned on its count
    (uniform times). Bursty functions alternate ON and OFF periods
    (5 s and 20 s on average, exponential) and their arrivals fall
    uniformly over the ON time. Fixing every function's count keeps the
    request mix the same across seeds; only the timing changes.
    """
    if not bursty:
        return np.sort(rng.uniform(0.0, duration_ms, size=count))
    starts, ends = [], []
    t = float(rng.exponential(BURST_OFF_MS))
    while t < duration_ms:
        starts.append(t)
        t = min(t + float(rng.exponential(BURST_ON_MS)), duration_ms)
        ends.append(t)
        t += float(rng.exponential(BURST_OFF_MS))
    if not starts:
        starts, ends = [0.0], [duration_ms]
    starts_a, lengths = np.array(starts), np.array(ends) - np.array(starts)
    cum = np.cumsum(lengths)
    u = rng.uniform(0.0, cum[-1], size=count)
    period = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    return np.sort(starts_a[period] + u - (cum[period] - lengths[period]))


def make_trace(workload: Workload, seed: int) -> List[List[TraceEvent]]:
    """The workload's trace for ``seed``: ``workload.segments`` independent
    segments of exactly ``workload.requests`` events each, sorted by due
    time (ties by popularity rank)."""
    return [_segment(workload, np.random.default_rng(
                [seed, sum(map(ord, workload.name)), k]))
            for k in range(workload.segments)]


def _segment(workload: Workload, rng: np.random.Generator) -> List[TraceEvent]:
    docs = [_markdown_document(rng) for _ in range(16)]
    names = [name for name, _ in workload.functions]
    ranks = np.arange(1, len(names) + 1, dtype=float)
    weights = ranks ** -workload.zipf_s
    counts = _counts(weights / weights.sum(), workload.requests)
    duration_ms = workload.requests / workload.rate_per_s * 1000.0
    due = np.concatenate([
        _arrivals(rng, int(count), duration_ms, bursty=name in workload.bursty)
        for name, count in zip(names, counts)])
    which = np.repeat(np.arange(len(names)), counts)
    order = np.lexsort((which, due))
    picks = rng.integers(0, len(docs), size=order.size)
    trace = []
    for position, event in enumerate(order):
        name = names[int(which[event])]
        body = docs[int(picks[position])] if name in MARKDOWN_FUNCTIONS else None
        trace.append(TraceEvent(float(due[event]), name, body))
    return trace
