"""Reference per-class JVM class loader for differential tests.

:class:`repro.runtime.jvm.ClassLoader` keeps loaded classes as a set
of names, answers "all loaded?" with a subset test against each shared
class table's name set, and prices a load of a table none of whose
classes is loaded yet from a per-table memo. This module keeps the
loader it replaced — one ``LoadedClass`` per class, every check a walk
over the table — so tests can pin the new loader to it: same cost bits,
same simulated clock, same loaded set, same metaspace growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

from repro.runtime.classes import SyntheticClass


@dataclass
class LoadedClass:
    """Classloader metadata for one loaded class."""

    cls: SyntheticClass
    compiled: bool = False


class OracleClassLoader:
    """Lazy application classloader with metaspace accounting."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.loaded: Dict[str, LoadedClass] = {}

    def load_all(self, classes: Sequence[SyntheticClass], jar_path: str) -> float:
        """Load (and JIT) every not-yet-loaded class; return the cost in ms."""
        kernel = self.runtime.kernel
        costs = kernel.costs
        jar = kernel.fs.lookup(jar_path)
        warmth = kernel.page_cache.warmth(jar)
        parse_per_kib = costs.restored_load_per_kib_ms
        io_per_kib = max(0.0, costs.cold_load_per_kib_ms - parse_per_kib)
        total_ms = 0.0
        total_kib = 0.0
        for cls in classes:
            if cls.name in self.loaded:
                continue
            total_ms += costs.cold_load_per_class_ms
            total_ms += cls.size_kib * (parse_per_kib + io_per_kib * (1.0 - warmth))
            total_kib += cls.size_kib
            self.loaded[cls.name] = LoadedClass(cls=cls, compiled=True)
        if total_kib:
            kernel.page_cache.warm(jar, fraction=1.0)
            self.runtime.grow_metaspace(total_kib / 1024.0)
        if total_ms:
            jittered = costs.jitter(
                total_ms, kernel.streams, "jvm.classload"
            )
            kernel.clock.advance(jittered)
            kernel.probes.syscall_enter(
                "runtime.classload", self.runtime.process.pid,
                kernel.clock.now, detail=f"{len(classes)} classes",
            )
            return jittered
        return 0.0

    @property
    def loaded_count(self) -> int:
        return len(self.loaded)

    def all_loaded(self, classes: Sequence[SyntheticClass]) -> bool:
        return all(c.name in self.loaded for c in classes)

    def apply_loaded_names(self, classes: Sequence[SyntheticClass],
                           names: Iterable[str]) -> None:
        """What ``JVMRuntime._apply_extra_state`` did with a snapshot's
        ``loaded_class_names``: mark each class of the app's table that
        the snapshot had loaded."""
        loaded_names = set(names)
        if loaded_names:
            for cls in classes:
                if cls.name in loaded_names:
                    self.loaded[cls.name] = LoadedClass(cls=cls, compiled=True)
