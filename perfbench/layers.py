"""Per-layer host time, measured from outside the program.

``LayerTracer.installed()`` replaces each layer's public entry points
with timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards, so untraced runs execute unmodified code.
Every wrapped call adds to its layer's call count and span time; a
layer's self time is its span time minus the time of wrapped calls made
inside it (its child spans), so nested layers are never counted twice.

Calls of the coarse layers are also kept as spans (layer, parent span,
start, end) in memory; the very hot helpers (``obs``, ``sim``, chunk
lookups, pagemap calls) are aggregated only, since a span per call
would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, List, Tuple

#: layer -> (module path, attribute path) of the wrapped entry points.
COARSE = {
    "faas.router": [("repro.faas.router", "FunctionRouter.route")],
    "faas.replica": [("repro.faas.replica", "FunctionReplica.serve")],
    "faas.deployer": [("repro.faas.deployer", "FunctionDeployer.provision"),
                      ("repro.faas.deployer", "FunctionDeployer.prefetch_function")],
    "faas.autoscaler": [("repro.faas.autoscaler", "Autoscaler.tick")],
    "faas.builder": [("repro.faas.builder", "FunctionBuilder.build")],
    "core.starters": [("repro.core.starters", "PrebakeStarter.start"),
                      ("repro.core.starters", "VanillaStarter.start")],
    "core.bake": [("repro.core.bake", "Prebaker.bake")],
    "criu.restore": [("repro.criu.restore", "RestoreEngine.restore")],
    "criu.checkpoint": [("repro.criu.checkpoint", "CheckpointEngine.dump")],
    "criu.shardstore": [("repro.criu.shardstore", "ShardedSnapshotStore.register_image")],
    "runtime": [("repro.runtime.base", "ManagedRuntime.handle"),
                ("repro.runtime.base", "ManagedRuntime.boot"),
                ("repro.runtime.base", "ManagedRuntime.load_application")],
    "predict": [("repro.predict.policy", "PrewarmController.plan")],
}
HOT = {
    "criu.chunkcache": [("repro.criu.chunkcache", "HotChunkCache.lookup"),
                        ("repro.criu.chunkcache", "HotChunkCache.prefetch")],
    "criu.shardstore": [("repro.criu.shardstore", "ShardedSnapshotStore.fetch_window")],
    "osproc.memory": [("repro.osproc.memory", "VMA.touch_range"),
                      ("repro.osproc.memory", "VMA.populate_pages"),
                      ("repro.osproc.memory", "VMA.dump_pages"),
                      ("repro.osproc.memory", "AddressSpace.mmap")],
    "predict": [("repro.predict.policy", "PrewarmController.note_arrival")],
    # A span's cost is paid when it is entered and closed, so the
    # context-manager methods count as ``obs`` along with ``span`` itself.
    "obs": [("repro.obs", "span"), ("repro.obs", "count"),
            ("repro.obs", "observe"), ("repro.obs", "record"),
            ("repro.obs", "gauge"),
            ("repro.obs.spans", "Span.__enter__"),
            ("repro.obs.spans", "Span.__exit__"),
            ("repro.obs.spans", "NullSpan.__enter__"),
            ("repro.obs.spans", "NullSpan.__exit__")],
    "sim": [("repro.sim.costmodel", "CostModel.jitter"),
            ("repro.sim.rng", "RandomStreams.lognormal_jitter")],
}
#: Every layer, in report order. ``functions`` wraps each app's ``execute``.
LAYERS = ("faas.router", "faas.replica", "faas.deployer", "faas.autoscaler",
          "faas.builder", "core.starters", "core.bake", "criu.restore",
          "criu.checkpoint", "criu.chunkcache", "criu.shardstore",
          "osproc.memory", "runtime", "functions", "predict", "obs", "sim")


def _resolve(module_path: str, attr_path: str) -> Tuple[object, str]:
    import importlib
    owner = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _app_classes() -> List[type]:
    """Every FunctionApp subclass that defines its own ``execute``."""
    from repro.functions.base import FunctionApp
    found, todo = [], [FunctionApp]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not FunctionApp and "execute" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


class LayerTracer:
    """Call counts, self time and layer counters for one traced replay."""

    def __init__(self) -> None:
        # layer -> [calls, span seconds, child seconds]
        self.acc: Dict[str, List[float]] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        # Open wrapped calls, innermost last: [child seconds, span index, layer].
        self._stack: List[list] = []
        # [layer, parent span index or -1, start s, end s]
        self.spans: List[list] = []
        self.chunk_lookups = 0
        self.chunk_hits = 0
        self.provisioned = 0
        self.useful = 0
        self.prewarm_replicas = 0
        self.reaped_by_autoscaler = 0
        self.pages = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _in_layer(self, layer: str) -> bool:
        return any(frame[2] == layer for frame in self._stack)

    def _timed(self, layer: str, fn: Callable, keep_span: bool) -> Callable:
        acc = self.acc[layer]
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep_span:
                index = len(spans)
                spans.append([layer, parent, 0.0, 0.0])
            else:
                index = parent
            frame = [0.0, index, layer]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[index][2] = t0
                    spans[index][3] = t1

        return timed

    @staticmethod
    def _counted(fn: Callable, after: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return counted

    def _patch(self, owner: object, name: str, make: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- layer counters (run after the wrapped call, outside its timing) --------

    def _after_lookup(self, args, kwargs, hit) -> None:
        self.chunk_lookups += 1
        self.chunk_hits += bool(hit)

    def _after_provision(self, args, kwargs, replica) -> None:
        self.provisioned += 1
        if self._in_layer("faas.autoscaler"):
            self.prewarm_replicas += 1

    def _after_serve(self, args, kwargs, response) -> None:
        if args[0].requests_served == 1:
            self.useful += 1

    def _after_health_check(self, args, kwargs, reaped) -> None:
        if self._in_layer("faas.autoscaler"):
            self.reaped_by_autoscaler += len(reaped)

    def _after_touch(self, args, kwargs, result) -> None:
        self.pages += int(args[2] if len(args) > 2 else kwargs["count"])

    def _after_populate(self, args, kwargs, result) -> None:
        self.pages += len(args[1] if len(args) > 1 else kwargs["indices"])

    def _after_dump(self, args, kwargs, result) -> None:
        self.pages += len(result[0])

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's entry points inside the ``with`` block."""
        counters = [
            ("repro.criu.chunkcache", "HotChunkCache.lookup", self._after_lookup),
            ("repro.faas.deployer", "FunctionDeployer.provision", self._after_provision),
            ("repro.faas.replica", "FunctionReplica.serve", self._after_serve),
            # Not a layer entry point: wrapped only to count reaps.
            ("repro.faas.deployer", "FunctionDeployer.health_check",
             self._after_health_check),
            ("repro.osproc.memory", "VMA.touch_range", self._after_touch),
            ("repro.osproc.memory", "VMA.populate_pages", self._after_populate),
            ("repro.osproc.memory", "VMA.dump_pages", self._after_dump),
        ]
        entries = [(layer, module_path, attr_path, keep_span)
                   for table, keep_span in ((COARSE, True), (HOT, False))
                   for layer, pairs in table.items()
                   for module_path, attr_path in pairs]
        try:
            for layer, module_path, attr_path, keep_span in entries:
                owner, name = _resolve(module_path, attr_path)
                self._patch(owner, name, functools.partial(
                    self._timed, layer, keep_span=keep_span))
            for cls in _app_classes():
                self._patch(cls, "execute", functools.partial(
                    self._timed, "functions", keep_span=True))
            for module_path, attr_path, after in counters:
                owner, name = _resolve(module_path, attr_path)
                self._patch(owner, name, functools.partial(self._counted, after=after))
            yield self
        finally:
            for owner, name, original in reversed(self._patched):
                setattr(owner, name, original)
            self._patched.clear()

    # -- results ----------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        _, total, child = self.acc[layer]
        return total - child

    def dump_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in microseconds)."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (layer, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "layer": layer,
                    "start_us": round((start - base) * 1e6, 3),
                    "end_us": round((end - base) * 1e6, 3)}) + "\n")
