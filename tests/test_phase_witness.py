"""The harness's Figure-4 phases agree with the probe-derived witness.

``run_startup_experiment(trace_phases=True)`` measures CLONE / EXEC /
RTS / APPINIT with the :mod:`repro.obs.profile` profiler. Each test
here replays one harness repetition in an identical world with the
probe-stream :class:`~tests.phase_tracer.PhaseTracer` attached (it
reads the clock and draws no randomness) and checks the two
measurements of the same episode against each other.
"""

import pytest

from repro import make_world
from repro.bench.harness import PhaseBreakdown, run_startup_experiment
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady
from repro.criu.restore import RestoreMode
from repro.functions import make_app
from repro.obs import profile as prof
from repro.sim.rng import _derive_seed
from tests.phase_tracer import PhaseTracer

TOLERANCE_MS = 1e-9
SEED = 11
REPETITIONS = 2


def _witness_episode(function, technique, rep, restore_mode=RestoreMode.EAGER):
    """Rebuild the harness's repetition ``rep`` with the tracer armed.

    Returns the tracer's breakdown, the replica handle and the
    profiler (still installed, so callers can keep observing it).
    """
    kernel = make_world(seed=_derive_seed(SEED, f"rep-{rep}")).kernel
    manager = PrebakeManager(kernel)
    app = make_app(function)
    policy = AfterReady()
    if technique == "prebake":
        manager.deploy(app, policy=policy)
    starter = manager.starter(
        technique, policy=policy, restore_mode=restore_mode,
        version=(manager.current_version(app.name)
                 if technique == "prebake" else 1),
    )
    tracer = PhaseTracer(kernel)
    profiler = prof.install(kernel)
    profiler.reset()
    tracer.start_episode()
    handle = starter.start(app)
    tracer.stop_episode()
    return tracer.breakdown(), handle, profiler


def _assert_close(measured: PhaseBreakdown, witness: PhaseBreakdown) -> None:
    for phase, ms in measured.as_dict().items():
        assert ms == pytest.approx(witness.as_dict()[phase], abs=TOLERANCE_MS), phase


@pytest.mark.parametrize("technique", ["vanilla", "prebake"])
@pytest.mark.parametrize("function",
                         ["noop", "markdown", "image-resizer", "synthetic-small"])
def test_profiler_phases_match_probe_witness(function, technique):
    summary = run_startup_experiment(function, technique,
                                     repetitions=REPETITIONS, seed=SEED,
                                     trace_phases=True)
    for sample in summary.samples:
        witness, handle, _ = _witness_episode(function, technique,
                                              sample.repetition)
        if summary.metric == "ready":
            # Same world, same steps: the replay is the same episode.
            assert handle.startup_ms("ready") == sample.startup_ms
        _assert_close(sample.phases, witness)
        if technique == "prebake":
            assert sample.phases.rts_ms == 0.0


def test_lazy_restore_debt_stays_out_of_appinit():
    """A LAZY restore defers page faults to the first request. The
    harness reads the phases before that request, so APPINIT ends at
    runtime.ready even under the first-response metric."""
    summary = run_startup_experiment("image-resizer", "prebake",
                                     repetitions=1, seed=SEED,
                                     metric="first_response",
                                     restore_mode=RestoreMode.LAZY,
                                     trace_phases=True)
    (sample,) = summary.samples
    witness, handle, profiler = _witness_episode(
        "image-resizer", "prebake", 0, restore_mode=RestoreMode.LAZY)
    _assert_close(sample.phases, witness)
    assert sample.phases.total_ms == pytest.approx(
        handle.startup_ms("ready"), abs=1e-6)

    # Serving the first request pays the debt, which the profiler
    # attributes to the restore window: reading the phases after the
    # invoke would have inflated APPINIT by exactly that charge.
    handle.invoke()
    debt = profiler.totals()[prof.RESTORE_LAZY_FAULT]
    assert debt > 0.0
    after = PhaseBreakdown.from_totals(profiler.phase_totals())
    assert after.appinit_ms == pytest.approx(
        sample.phases.appinit_ms + debt, abs=TOLERANCE_MS)
