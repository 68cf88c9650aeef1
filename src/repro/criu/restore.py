"""The restore side of the CRIU protocol (paper §3.2).

    "During the restoration, the CRIU tool process transmutes itself
    into the checkpointed process. The first action is to read the dump
    files and restore the process's state. Then, it recreates all
    namespaces and opened files. Finally, the checkpointed memory is
    remapped."

The engine also implements the two optimizations the paper's §7 plans
to evaluate: restoring from an in-memory image cache [26] and lazy
page population (userfaultfd-style), exposed as :class:`RestoreMode`
and ``in_memory``; ablation benchmarks sweep both.
"""

from __future__ import annotations

import contextlib
from enum import Enum
from typing import Optional, Tuple

from repro import faults, obs
from repro.criu.chunkcache import HotChunkCache, make_cache
from repro.criu.images import CheckpointImage
from repro.criu.pagestore import image_chunk_count, image_chunk_index
from repro.criu.workingset import WorkingSetRecord, WorkingSetTracker
from repro.faults.errors import RestoreFailed, SnapshotCorrupted
from repro.obs.profile import (
    RESTORE_CHUNK_FETCH,
    RESTORE_DIGEST_VERIFY,
    RESTORE_PIPELINE_RAMP,
    RESTORE_SHARD_FETCH,
    RESTORE_WS_PREFETCH,
)
from repro.osproc.kernel import Kernel
from repro.osproc.memory import VMAKind
from repro.osproc.process import Capability, Process, ProcessState
from repro.sim.costmodel import PipelinePlan


class RestoreError(Exception):
    """Restore protocol failure (misuse, not an injected fault)."""


class RestoreMode(Enum):
    EAGER = "eager"                # map and populate everything before resuming
    LAZY = "lazy"                  # resume early; fault pages on first touch
    WORKING_SET = "working-set"    # REAP: prefetch the recorded first-response
                                   # set, lazily fault the (rarely touched) rest


# Default fraction of the page-mapping cost paid up front in LAZY mode
# (hot pages criu always populates eagerly: stacks, parasite-adjacent).
# Tunable per engine via ``RestoreEngine(lazy_eager_fraction=...)``.
DEFAULT_LAZY_EAGER_FRACTION = 0.15

# Backward-compatible alias for the module-level constant.
LAZY_EAGER_FRACTION = DEFAULT_LAZY_EAGER_FRACTION

CRIU_BINARY = "/usr/sbin/criu"


class RestoreEngine:
    """Restores :class:`CheckpointImage` sets into live processes.

    ``lazy_eager_fraction`` is the share of the page-population cost a
    LAZY restore still pays before resuming (criu eagerly populates
    stacks and parasite-adjacent pages even under lazy-pages); the
    remainder becomes the ``lazy_restore_debt_ms`` charged to the first
    request.

    ``pipeline_workers`` parallelizes the page-population stage:
    ``N > 1`` overlaps chunk fetching with page mapping/prefetching
    (see :meth:`CostModel.plan_restore_pipeline`); the default of 1 is
    the original serial model, bit-identical to its charges.
    ``chunk_cache`` (or ``cache_policy``, which builds one) is a
    node-local :class:`HotChunkCache` consulted per chunk window —
    hits fetch at local-read speed instead of a registry round-trip.

    ``shard_store`` (a
    :class:`~repro.criu.shardstore.ShardedSnapshotStore`) replaces the
    flat registry with N replicated storage nodes: each restore issues
    quorum window fetches through it, prices retry hops and stragglers
    via :meth:`CostModel.shard_fetch_overhead_ms`, and records a
    :class:`~repro.criu.shardstore.DegradedRestoreReport` on
    ``last_shard_report``. A window no surviving replica nor the cache
    can serve raises :class:`RestoreFailed` (kind ``shard``) so the
    starter's retry/fallback ladder takes over. ``None`` (the default)
    keeps the unsharded path bit-identical.
    """

    def __init__(self, kernel: Kernel,
                 lazy_eager_fraction: float = DEFAULT_LAZY_EAGER_FRACTION,
                 pipeline_workers: int = 1,
                 chunk_cache: Optional[HotChunkCache] = None,
                 cache_policy: Optional[str] = None,
                 shard_store=None) -> None:
        if not 0.0 <= lazy_eager_fraction <= 1.0:
            raise ValueError(
                f"lazy_eager_fraction must be in [0, 1], got {lazy_eager_fraction}"
            )
        if pipeline_workers < 1:
            raise ValueError(
                f"pipeline_workers must be >= 1, got {pipeline_workers}")
        self.kernel = kernel
        self.lazy_eager_fraction = lazy_eager_fraction
        self.pipeline_workers = pipeline_workers
        self.chunk_cache = (chunk_cache if chunk_cache is not None
                            else make_cache(cache_policy))
        self.shard_store = shard_store
        self.last_shard_report = None
        kernel.fs.ensure(CRIU_BINARY, size=5 * 1024 * 1024)

    def restore(
        self,
        image: CheckpointImage,
        parent: Optional[Process] = None,
        mode: RestoreMode = RestoreMode.EAGER,
        in_memory: bool = False,
        duration_override_ms: Optional[float] = None,
        preserve_pid: bool = False,
    ) -> Process:
        """Bring the checkpointed process back to life.

        ``duration_override_ms`` substitutes a per-function calibrated
        restore duration (excluding the criu process spawn) for the
        generic size-based formula. ``preserve_pid`` restores under the
        original pid, as real criu does inside a pid namespace.
        """
        kernel = self.kernel
        image.validate()
        # Integrity gate: a corrupted image must never transmute into a
        # half-restored process — fail before any work is charged.
        try:
            image.verify_integrity()
        except SnapshotCorrupted:
            obs.count(kernel, "snapshot_corruption_detected_total")
            raise
        parent = parent or kernel.init_process

        # Spawn the criu process that will transmute into the target.
        spawn_parent = parent
        if not (parent.has_capability(Capability.SYS_ADMIN)
                or parent.has_capability(Capability.CHECKPOINT_RESTORE)):
            raise RestoreError(
                f"pid {parent.pid} lacks the capability to restore "
                "(CAP_SYS_ADMIN or CAP_CHECKPOINT_RESTORE)"
            )
        target_pid = image.pid if preserve_pid else None
        if target_pid is not None and target_pid in kernel.processes \
                and kernel.processes[target_pid].alive:
            raise RestoreError(
                f"cannot preserve pid {target_pid}: already alive in this kernel"
            )
        proc = kernel.clone(spawn_parent, comm="criu", target_pid=target_pid)
        kernel.execve(proc, CRIU_BINARY, argv=["criu", "restore", "--shell-job"])
        proc.state = ProcessState.RESTORING

        # The span opens right after execve so its duration matches the
        # tracer-observed RTS+APPINIT window of a restored start.
        with obs.span(kernel, "criu.restore", image=image.image_id,
                      image_mib=round(image.total_mib, 3), mode=mode.value,
                      in_memory=in_memory, warm=image.warm):
            obs.record(kernel, obs.flight.RESTORE_STARTED,
                       image=image.image_id, mode=mode.value,
                       image_mib=round(image.total_mib, 3))
            try:
                self._transmute(proc, image)
                with contextlib.ExitStack() as pipeline_spans:
                    if self.pipeline_workers > 1:
                        # Worker spans cover the fault sites and the
                        # fetch/map charge; an injected restore.fail
                        # unwinds through the stack, so every worker
                        # span closes and the harness's span-leak
                        # self-check stays green on retried restores.
                        for worker in range(self.pipeline_workers):
                            pipeline_spans.enter_context(obs.span(
                                kernel, "restore.pipeline-worker",
                                worker=worker, workers=self.pipeline_workers,
                                image=image.image_id))
                    self._inject_restore_faults(proc, image)

                    # REAP working-set restores: look up the record
                    # before costing — its size determines the
                    # prefetched fraction.
                    tracker: Optional[WorkingSetTracker] = None
                    ws_record: Optional[WorkingSetRecord] = None
                    if mode is RestoreMode.WORKING_SET:
                        tracker = WorkingSetTracker.install(kernel)
                        ws_record = tracker.record_for(image)

                    # Node-local hot-chunk cache: a hit turns a registry
                    # fetch into a local read (no RNG, pure bookkeeping).
                    # With a sharded store the windows the cache misses
                    # come through quorum fetches over the replica set.
                    shard_report = None
                    if self.shard_store is not None:
                        cached_fraction, shard_report = \
                            self._shard_fetch_pass(image)
                    else:
                        cached_fraction = self._chunk_cache_pass(image)

                    # Charge the restore work (page reads + remapping).
                    duration, plan, serial_duration = self._restore_duration(
                        image, mode, in_memory, duration_override_ms,
                        ws_record=ws_record, cached_fraction=cached_fraction)
                    shard_ms = 0.0
                    if shard_report is not None and (shard_report.retry_hops
                                                     or shard_report.slow_ms):
                        # Degraded fetches pay for their retry hops and
                        # stragglers; a clean quorum pass costs exactly 0.
                        shard_ms = kernel.costs.shard_fetch_overhead_ms(
                            shard_report.retry_hops, shard_report.slow_ms,
                            workers=self.pipeline_workers)
                        shard_report.extra_ms = shard_ms
                        duration += shard_ms
                    extra_ms = 0.0
                    if faults.should_fire(kernel, faults.IO_SLOW,
                                          detail=image.image_id):
                        # Slow storage under the image directory: the page
                        # reads pay the armed penalty on top of the model
                        # cost.
                        extra_ms = faults.extra_delay_ms(kernel, faults.IO_SLOW)
                        duration += extra_ms
                    charged = kernel.costs.jitter(duration, kernel.streams,
                                                  "criu.restore")
                    kernel.clock.advance(charged)
            except Exception:
                kernel.kill(proc.pid)
                raise
            if kernel.profile is not None:
                self._record_restore_phases(
                    proc, image, mode, ws_record, plan, extra_ms,
                    duration, charged, serial_duration, in_memory,
                    shard_ms=shard_ms)
            if mode is RestoreMode.LAZY:
                # The deferred paging debt is real page work, so it is
                # sized off the *serial* eager charge: pipelining the
                # up-front fraction does not shrink the pages left to
                # fault in.
                full = kernel.costs.restore_cost(image.total_mib,
                                                 duration_override_ms)
                proc.payload["lazy_restore_debt_ms"] = max(
                    0.0, full - serial_duration - extra_ms)

            proc.state = ProcessState.RUNNING
            kernel.probes.syscall_enter(
                "criu.restore", proc.pid, kernel.clock.now,
                detail=f"{image.total_mib:.1f}MiB image={image.image_id}",
            )
            runtime = proc.payload.get("runtime")
            if runtime is not None:
                runtime.mark_restored()
            if tracker is not None:
                if ws_record is None:
                    # First restore of this snapshot: record the pages
                    # touched before the first post-restore response.
                    tracker.begin_recording(proc, image)
                    obs.count(kernel, "ws_restore_total",
                              labels={"phase": "record"})
                else:
                    tracker.begin_prefetch(proc, image, ws_record)
                    obs.count(kernel, "ws_restore_total",
                              labels={"phase": "prefetch"})
                    obs.gauge(kernel, "ws_prefetch_fraction",
                              ws_record.fraction)
        obs.record(kernel, obs.flight.RESTORE_FINISHED,
                   image=image.image_id, mode=mode.value,
                   duration_ms=round(charged, 3))
        obs.count(kernel, "criu_restore_total", labels={"mode": mode.value})
        obs.observe(kernel, "criu_restore_duration_ms", charged,
                    labels={"mode": mode.value})
        return proc

    # -- internals ------------------------------------------------------------------

    def _inject_restore_faults(self, proc: Process, image: CheckpointImage) -> None:
        """Evaluate the restore-path fault sites (no-op when uninstalled).

        Both failure modes surface as :class:`RestoreFailed` — the
        caller's retry/fallback policy is the recovery path — but a
        hang first burns the watchdog timeout on the simulated clock,
        so hung restores are visibly more expensive than fast failures.
        """
        kernel = self.kernel
        if faults.should_fire(kernel, faults.RESTORE_FAIL, detail=image.image_id):
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="fail")
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "fail"})
            raise RestoreFailed(
                f"restore of image {image.image_id!r} failed "
                f"(criu pid {proc.pid} died)",
                image_id=image.image_id, kind="fail",
            )
        if faults.should_fire(kernel, faults.RESTORE_HANG, detail=image.image_id):
            hang_ms = faults.extra_delay_ms(kernel, faults.RESTORE_HANG)
            kernel.clock.advance(hang_ms)
            if kernel.profile is not None:
                # The burned watchdog window is page-fetch work that
                # never completed; keep it on the start-up ledger.
                kernel.profile.record(RESTORE_CHUNK_FETCH, hang_ms,
                                      pid=proc.pid, reason="hang")
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="hang",
                       hang_ms=round(hang_ms, 3))
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "hang"})
            raise RestoreFailed(
                f"restore of image {image.image_id!r} hung; watchdog killed "
                f"criu pid {proc.pid} after {hang_ms:g} ms",
                image_id=image.image_id, kind="hang",
            )

    def _chunk_cache_pass(self, image: CheckpointImage) -> float:
        """Consult the node-local cache for every chunk window.

        Returns the byte fraction of the image served by cache hits
        (0.0 with no cache configured). Deterministic bookkeeping: no
        RNG, no simulated time — the saved fetch work is priced by the
        pipeline plan, and effectiveness counters feed the SLO layer.
        """
        cache = self.chunk_cache
        if cache is None:
            return 0.0
        hits = hit_bytes = total_bytes = 0
        index = image_chunk_index(image)
        for _vma_index, _window_start, cid, size_bytes in index:
            total_bytes += size_bytes
            if cache.lookup(cid, size_bytes):
                hits += 1
                hit_bytes += size_bytes
        cached_fraction = hit_bytes / total_bytes if total_bytes else 0.0
        self._record_cache_pass(image, len(index), hits, cached_fraction)
        return cached_fraction

    def _record_cache_pass(self, image: CheckpointImage, lookups: int,
                           hits: int, cached_fraction: float) -> None:
        """Cache-effectiveness event and series for one restore pass.

        Shared by the unsharded and sharded passes, so SLOs and
        anomaly watches read identically either way.
        """
        kernel = self.kernel
        cache = self.chunk_cache
        obs.record(kernel, obs.flight.CACHE_LOOKUP, image=image.image_id,
                   lookups=lookups, hits=hits,
                   hit_fraction=round(cached_fraction, 4))
        obs.count(kernel, "chunk_cache_lookups_total", value=float(lookups))
        obs.count(kernel, "chunk_cache_hits_total", value=float(hits))
        obs.count(kernel, "chunk_cache_misses_total",
                  value=float(lookups - hits))
        obs.gauge(kernel, "chunk_cache_hit_ratio", cache.stats.hit_ratio)
        obs.gauge(kernel, "chunk_cache_used_bytes", float(cache.used_bytes))

    def _shard_fetch_pass(self, image: CheckpointImage):
        """Fetch every window through the sharded store, cache-first.

        The degraded-mode ladder: node cache hit → first-success
        quorum fetch over surviving replicas → :class:`RestoreFailed`
        (kind ``shard``) when a window is unobtainable, which hands
        recovery to the starter's retry → vanilla ladder. Returns
        ``(cached byte fraction, DegradedRestoreReport)``; cache
        accounting goes through :meth:`_record_cache_pass`.
        """
        kernel = self.kernel
        cache = self.chunk_cache
        report = self.shard_store.restore_pass(image, cache=cache)
        self.last_shard_report = report
        cached_fraction = (report.cached_bytes / report.total_bytes
                           if report.total_bytes else 0.0)
        if cache is not None:
            self._record_cache_pass(image, report.chunks,
                                    report.cached_chunks, cached_fraction)
        if report.failed_chunks:
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="shard",
                       failed_chunks=len(report.failed_chunks),
                       nodes_down=",".join(report.nodes_down) or None)
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "shard"})
            missing = report.failed_chunks[0][:12]
            raise RestoreFailed(
                f"restore of image {image.image_id!r}: "
                f"{len(report.failed_chunks)} chunk window(s) unobtainable "
                f"from any replica or cache (first: {missing}...)",
                image_id=image.image_id, kind="shard",
            )
        if report.degraded:
            obs.count(kernel, "restore_degraded_total")
            obs.record(kernel, obs.flight.RESTORE_DEGRADED,
                       image=image.image_id, **report.as_attrs())
        return cached_fraction, report

    def _restore_duration(
        self,
        image: CheckpointImage,
        mode: RestoreMode,
        in_memory: bool,
        override_ms: Optional[float],
        ws_record: Optional[WorkingSetRecord] = None,
        cached_fraction: float = 0.0,
    ) -> Tuple[float, Optional[PipelinePlan], float]:
        """(charged duration, pipeline plan or None, serial duration).

        The serial duration is what the unpipelined single-worker
        model would charge — the pipeline's baseline and the quantity
        LAZY paging debt is sized against. With ``pipeline_workers=1``
        and no cache hits the charged duration *is* the serial one and
        no plan is built, keeping the default path bit-identical.
        """
        costs = self.kernel.costs
        full = costs.restore_cost(image.total_mib, override_ms)
        # A calibrated override below the generic base means the whole
        # restore is that fast; never inflate it back up to the base.
        base = min(costs.restore_base_ms, full)
        pages_part = full - base
        if in_memory:
            # No disk reads: the image is already resident [26].
            pages_part *= costs.restore_in_memory_factor
        if mode is RestoreMode.LAZY:
            pages_part *= self.lazy_eager_fraction
        elif mode is RestoreMode.WORKING_SET and ws_record is not None:
            # Prefetch only the recorded working set; everything else
            # is left to demand faults (charged per miss at first
            # response — zero when the record is accurate).
            pages_part *= ws_record.fraction
        serial = base + pages_part
        if self.pipeline_workers == 1 and cached_fraction == 0.0:
            return serial, None, serial
        plan = costs.plan_restore_pipeline(
            pages_part, workers=self.pipeline_workers,
            chunk_count=image_chunk_count(image),
            cached_fraction=cached_fraction)
        return base + plan.total_ms, plan, serial

    def _record_restore_phases(
        self,
        proc: Process,
        image: CheckpointImage,
        mode: RestoreMode,
        ws_record: Optional[WorkingSetRecord],
        plan: Optional[PipelinePlan],
        extra_ms: float,
        duration: float,
        charged: float,
        serial_duration: float,
        in_memory: bool,
        shard_ms: float = 0.0,
    ) -> None:
        """Attribute the jittered restore charge to restore sub-phases.

        Mirrors the :meth:`_restore_duration` cost split (base →
        digest-verify, page population → chunk-fetch or working-set
        prefetch — preceded by a pipeline-ramp slice when overlapped —
        degraded shard-fetch hops → shard-fetch, injected io.slow
        penalty → chunk-fetch), then scales every part by
        ``charged / duration`` — with the last part as the remainder —
        so the recorded sub-phases sum to the jittered charge
        *exactly*, never to the pre-jitter model cost.
        """
        if plan is None:
            base = min(self.kernel.costs.restore_base_ms, serial_duration)
            pages_part = serial_duration - base
        else:
            base = duration - extra_ms - shard_ms - plan.total_ms
            pages_part = plan.total_ms
        parts = [(RESTORE_DIGEST_VERIFY, base, {"image": image.image_id})]
        if plan is not None and plan.pipelined and plan.ramp_ms:
            parts.append((RESTORE_PIPELINE_RAMP, plan.ramp_ms,
                          {"workers": plan.workers,
                           "chunks": plan.chunk_count}))
            pages_part -= plan.ramp_ms
        if mode is RestoreMode.WORKING_SET and ws_record is not None:
            parts.append((RESTORE_WS_PREFETCH, pages_part,
                          {"pages": ws_record.page_count,
                           "fraction": round(ws_record.fraction, 4)}))
        else:
            attrs = {"chunks": image_chunk_count(image),
                     "in_memory": in_memory}
            if plan is not None:
                attrs["workers"] = plan.workers
                attrs["cached_fraction"] = round(plan.cached_fraction, 4)
            parts.append((RESTORE_CHUNK_FETCH, pages_part, attrs))
        if shard_ms:
            report = self.last_shard_report
            parts.append((RESTORE_SHARD_FETCH, shard_ms,
                          {"retry_hops": report.retry_hops if report else 0,
                           "slow_ms": round(report.slow_ms, 3)
                           if report else 0.0}))
        if extra_ms:
            parts.append((RESTORE_CHUNK_FETCH, extra_ms,
                          {"reason": "io-slow"}))
        profiler = self.kernel.profile
        scale = charged / duration if duration else 0.0
        recorded = 0.0
        for position, (phase, part_ms, attrs) in enumerate(parts):
            if position == len(parts) - 1:
                scaled = charged - recorded
            else:
                scaled = part_ms * scale
            recorded += scaled
            profiler.record(phase, scaled, pid=proc.pid,
                            mode=mode.value, **attrs)

    def _transmute(self, proc: Process, image: CheckpointImage) -> None:
        """Rebuild namespaces, files and memory inside ``proc``."""
        kernel = self.kernel
        # Recreate namespaces: the restored process gets fresh namespace
        # instances equivalent to (but distinct from) the dumped ones.
        from repro.osproc.namespaces import NamespaceKind
        proc.namespaces = proc.namespaces.clone_with_new(*NamespaceKind)

        # Rebuild the address space exactly as dumped.
        space = proc.address_space
        space.clear()
        for desc in image.vmas:
            if desc.file_path is not None:
                kernel.fs.ensure(desc.file_path,
                                 size=max(desc.file_size, desc.file_offset + desc.length))
            vma = space.mmap(
                length=desc.length,
                kind=VMAKind(desc.kind),
                prot=desc.prot,
                start=desc.start,
                file_path=desc.file_path,
                file_offset=desc.file_offset,
                label=desc.label,
            )
            vma.populate_pages(desc.index_array, desc.tag_ids, dirty=False)
            if desc.file_path is not None:
                # Mapping the file's dumped pages leaves them warm — the
                # mechanism behind the paper's cheaper post-restore
                # class loading.
                kernel.page_cache.warm(kernel.fs.lookup(desc.file_path), fraction=1.0)

        # Reopen file descriptors.
        proc.fds.clear()
        for fd_desc in image.fds:
            file = kernel.fs.ensure(fd_desc.path, size=fd_desc.file_size)
            if fd_desc.is_socket:
                file.is_socket = True
            entry = proc.open_fd(file, flags=fd_desc.flags)
            entry.offset = fd_desc.offset

        # Restore identity and the runtime's logical state.
        proc.comm = image.comm
        proc.argv = list(image.argv)
        if image.runtime_state is not None:
            from repro.runtime import RUNTIME_KINDS
            kind = image.runtime_state["kind"]
            runtime_cls = RUNTIME_KINDS.get(kind)
            if runtime_cls is None:
                raise RestoreError(f"image requires unknown runtime kind {kind!r}")
            runtime_cls.from_snapshot_state(kernel, proc, image.runtime_state)
