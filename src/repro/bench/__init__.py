"""Experiment harness: the paper's §4 methodology as a library.

* :mod:`repro.bench.stats` — bootstrap median CIs [6], Shapiro–Wilk
  normality [24], Wilcoxon–Mann–Whitney median comparison, ECDFs;
* :mod:`repro.bench.workload` — the load generator (hold the first
  request until ready, then constant-rate sequential load, §4.1);
* :mod:`repro.bench.harness` — the 200-repetition factorial runner,
  with per-phase start-up times (CLONE/EXEC/RTS/APPINIT, §4.2.1) from
  the :mod:`repro.obs.profile` profiler;
* :mod:`repro.bench.figures` — one entry point per paper table/figure.
"""

from repro.bench.stats import (
    bootstrap_median_ci,
    ecdf,
    ks_distance,
    mann_whitney_u,
    median,
    median_difference_ci,
    shapiro_wilk,
)
from repro.bench.workload import LoadGenerator, LoadResult
from repro.bench.harness import (
    PhaseBreakdown,
    StartupSample,
    StartupSummary,
    run_service_experiment,
    run_startup_experiment,
)

__all__ = [
    "bootstrap_median_ci",
    "ecdf",
    "ks_distance",
    "mann_whitney_u",
    "median",
    "median_difference_ci",
    "shapiro_wilk",
    "PhaseBreakdown",
    "LoadGenerator",
    "LoadResult",
    "StartupSample",
    "StartupSummary",
    "run_startup_experiment",
    "run_service_experiment",
]
