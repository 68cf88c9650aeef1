"""JVM runtime model: native bootstrap, classloader, metaspace, JIT.

This is where the paper's central mechanism lives. A vanilla-started
JVM pays:

* ``RTS`` ≈ 70 ms of native bootstrap before ``main()`` (Figure 4);
* lazy class loading + JIT compilation on the first invocation, costing
  a per-class linking fee plus a per-byte parse/compile fee *and* a
  per-byte I/O fee for reading cold classfile pages.

A process restored from a snapshot skips RTS entirely, and — because
CRIU restores file-backed mappings, leaving the application jar's pages
warm in the page cache — pays no I/O fee when an unwarmed snapshot
lazily loads classes later. A *warmed* snapshot already contains the
loaded classes and JIT-compiled code, so it pays nothing at all. The
three techniques of Table 1 fall out of these mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Set, Tuple, TYPE_CHECKING

from repro.osproc.kernel import Kernel
from repro.osproc.memory import PAGE_SIZE, VMAKind
from repro.osproc.process import Process
from repro.runtime.base import ManagedRuntime, Request, RuntimeError_
from repro.runtime.classes import SyntheticClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.functions.base import FunctionApp


@dataclass(frozen=True)
class JVMConfig:
    """Static layout of a freshly booted JVM."""

    base_rss_mib: float = 13.0        # matches the paper's NOOP snapshot size
    text_mib: float = 4.0             # libjvm.so resident text
    heap_initial_mib: float = 6.0
    metaspace_initial_mib: float = 2.5
    code_cache_initial_mib: float = 0.5
    # JIT output per compiled class, folded into warm-snapshot growth.
    code_cache_per_class_kib: float = 0.0


# Per shared class table (the immutable tuples ``generate_classes``
# returns), keyed by the table's id: its frozenset of names, and the
# (ms, KiB) of loading all of it into an empty loader under one pricing
# (page-cache warmth plus the three class-load cost constants). Each
# entry holds the table, so its id cannot be reused while the entry
# lives; each memo is cleared when it fills.
_TABLE_NAMES: Dict[int, Tuple[tuple, FrozenSet[str]]] = {}
_TABLE_COST: Dict[tuple, Tuple[tuple, Tuple[float, float]]] = {}
_TABLE_MEMO_MAX = 256


def _shared(classes: Sequence[SyntheticClass]) -> bool:
    """Whether ``classes`` can never change: a tuple of frozen classes."""
    return type(classes) is tuple and all(
        type(cls) is SyntheticClass for cls in classes)


def _remember(memo: dict, key, table: tuple, value) -> None:
    if len(memo) >= _TABLE_MEMO_MAX:
        memo.clear()
    memo[key] = (table, value)


def table_names(classes: Sequence[SyntheticClass]) -> FrozenSet[str]:
    """The class names of ``classes``, computed once per shared table."""
    hit = _TABLE_NAMES.get(id(classes))
    if hit is not None:
        return hit[1]
    names = frozenset(cls.name for cls in classes)
    if _shared(classes):
        _remember(_TABLE_NAMES, id(classes), classes, names)
    return names


def _load_cost(classes: Sequence[SyntheticClass], loaded: Set[str],
               warmth: float, costs) -> Tuple[float, float]:
    """(ms, KiB) of loading each class of ``classes`` not in ``loaded``.

    Left to right, one class at a time, adding each name to ``loaded``.
    The per-byte cost splits into a parse/compile component that is
    always paid and an I/O component scaled by how cold the jar's pages
    are — warm page cache (e.g. right after a CRIU restore of the jar
    mapping) skips it.
    """
    parse_per_kib = costs.restored_load_per_kib_ms
    io_per_kib = max(0.0, costs.cold_load_per_kib_ms - parse_per_kib)
    total_ms = 0.0
    total_kib = 0.0
    for cls in classes:
        if cls.name in loaded:
            continue
        total_ms += costs.cold_load_per_class_ms
        total_ms += cls.size_kib * (parse_per_kib + io_per_kib * (1.0 - warmth))
        total_kib += cls.size_kib
        loaded.add(cls.name)
    return total_ms, total_kib


def _table_load_cost(classes: Sequence[SyntheticClass], warmth: float,
                     costs) -> Tuple[float, float]:
    """:func:`_load_cost` of a whole table into an empty loader, memoized."""
    key = (id(classes), warmth, costs.cold_load_per_class_ms,
           costs.restored_load_per_kib_ms, costs.cold_load_per_kib_ms)
    hit = _TABLE_COST.get(key)
    if hit is not None:
        return hit[1]
    cost = _load_cost(classes, set(), warmth, costs)
    if _shared(classes):
        _remember(_TABLE_COST, key, classes, cost)
    return cost


class ClassLoader:
    """Lazy application classloader with metaspace accounting."""

    def __init__(self, runtime: "JVMRuntime") -> None:
        self.runtime = runtime
        self.loaded: Set[str] = set()

    def load_all(self, classes: Sequence[SyntheticClass], jar_path: str) -> float:
        """Load (and JIT) every not-yet-loaded class; return the cost in ms.

        A table none of whose classes is loaded yet is priced from the
        per-table memo; a partly loaded one class by class.
        """
        kernel = self.runtime.kernel
        costs = kernel.costs
        jar = kernel.fs.lookup(jar_path)
        warmth = kernel.page_cache.warmth(jar)
        names = table_names(classes)
        if self.loaded.isdisjoint(names):
            total_ms, total_kib = _table_load_cost(classes, warmth, costs)
            self.loaded |= names
        else:
            total_ms, total_kib = _load_cost(classes, self.loaded, warmth, costs)
        if total_kib:
            # Reading the classfiles pulls the jar's pages into the cache
            # and the class metadata + JIT output into the metaspace.
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
        return table_names(classes) <= self.loaded


class JVMRuntime(ManagedRuntime):
    """The Oracle-1.8-style JVM the paper benchmarked."""

    kind = "jvm"

    def __init__(self, kernel: Kernel, process: Process,
                 config: JVMConfig = JVMConfig()) -> None:
        super().__init__(kernel, process)
        self.config = config
        self.rts_ms = kernel.costs.jvm_rts_ms
        self.classloader = ClassLoader(self)
        self._metaspace_vma = None
        self._heap_vma = None
        self.jar_path: str = ""

    # -- memory layout ----------------------------------------------------------

    def _map_base_memory(self) -> None:
        space = self.process.address_space
        fs = self.kernel.fs
        libjvm = fs.ensure("/opt/jvm/lib/libjvm.so", size=16 * 1024 * 1024)
        text = space.mmap(
            length=int(self.config.text_mib * 1024 * 1024),
            kind=VMAKind.CODE, prot="r-x",
            file_path=libjvm.path, label="libjvm-text",
        )
        text.touch_range(0, text.page_count, content_tag="libjvm")
        self._heap_vma = space.mmap(
            length=int(self.config.heap_initial_mib * 4 * 1024 * 1024),
            kind=VMAKind.ANON, label="java-heap",
        )
        self._heap_vma.touch_range(
            0, int(self.config.heap_initial_mib * 1024 * 1024) // PAGE_SIZE,
            content_tag="heap",
        )
        self._metaspace_vma = space.mmap(
            length=int(max(self.config.metaspace_initial_mib, 1) * 64 * 1024 * 1024),
            kind=VMAKind.METASPACE, label="metaspace",
        )
        self._metaspace_vma.touch_range(
            0, int(self.config.metaspace_initial_mib * 1024 * 1024) // PAGE_SIZE,
            content_tag="metaspace",
        )
        code_cache = space.mmap(
            length=int(8 * 1024 * 1024),
            kind=VMAKind.CODE, label="jit-code-cache",
        )
        code_cache.touch_range(
            0, int(self.config.code_cache_initial_mib * 1024 * 1024) // PAGE_SIZE,
            content_tag="jit",
        )

    def grow_heap(self, mib: float) -> None:
        """Fault in ``mib`` more MiB of heap pages."""
        if mib <= 0:
            return
        vma = self._heap_vma
        pages = int(round(mib * 1024 * 1024 / PAGE_SIZE))
        first_free = vma.resident_pages
        available = vma.page_count - first_free
        if pages > available:
            # Heap expansion past the reserved arena: map another segment.
            self.process.address_space.grow_anon(
                f"java-heap-ext-{len(self.process.address_space.vmas)}",
                (pages - available) * PAGE_SIZE / (1024 * 1024),
                content_tag="heap",
            )
            pages = available
        vma.touch_range(first_free, pages, content_tag="heap")

    def grow_metaspace(self, mib: float) -> None:
        """Fault in ``mib`` more MiB of class-metadata pages."""
        if mib <= 0:
            return
        vma = self._metaspace_vma
        pages = int(round(mib * 1024 * 1024 / PAGE_SIZE))
        first_free = vma.resident_pages
        pages = min(pages, vma.page_count - first_free)
        vma.touch_range(first_free, pages, content_tag="metaspace")

    def grow_rss_to(self, target_mib: float) -> None:
        """Grow the heap until total RSS reaches ``target_mib``."""
        delta = target_mib - self.process.rss_mib
        if delta > 0:
            self.grow_heap(delta)

    # -- application loading --------------------------------------------------------

    def _app_init(self, app: "FunctionApp") -> None:
        kernel = self.kernel
        profile = app.profile
        # Map the application jar; header pages become resident, the
        # rest are read lazily as classes load.
        self.jar_path = app.ensure_artifacts(kernel)
        jar = kernel.fs.lookup(self.jar_path)
        self.process.open_fd(jar, flags="r")
        jar_vma = self.process.address_space.mmap(
            length=max(PAGE_SIZE, -(-jar.size // PAGE_SIZE) * PAGE_SIZE),
            kind=VMAKind.FILE, prot="r--",
            file_path=jar.path, label="app-jar",
        )
        jar_vma.touch_range(0, min(2, jar_vma.page_count), content_tag="jar-header")
        # HTTP listening socket, as in the paper's function template.
        sock = kernel.fs.ensure(f"socket:[{self.process.pid}]", size=0)
        sock.is_socket = True
        self.process.open_fd(sock, flags="rw")
        # Application-specific initialization work (e.g. the Image
        # Resizer reading its 1 MiB source image).
        app.init(self)
        duration = kernel.costs.jitter(
            profile.appinit_vanilla_ms, kernel.streams, "jvm.appinit"
        )
        kernel.clock.advance(duration)
        # APPINIT leaves the process at its ready-state footprint.
        self.grow_rss_to(profile.snapshot_ready_mib)

    # -- request path ------------------------------------------------------------------

    def _before_request(self, request: Request) -> None:
        app = self.app
        if app is None:
            raise RuntimeError_("no application loaded")
        if app.classes and not self.classloader.all_loaded(app.classes):
            self.classloader.load_all(app.classes, self.jar_path)
        if self.requests_served == 0:
            # First invocation JIT-compiles the handler path; the code
            # lands in the code cache / heap, growing RSS to the warm
            # footprint the paper measured for its snapshots.
            self.grow_rss_to(app.profile.snapshot_warm_mib)

    # -- checkpoint state ----------------------------------------------------------------

    def _extra_state(self):
        return {
            "jar_path": self.jar_path,
            "loaded_class_names": sorted(self.classloader.loaded),
        }

    def _apply_extra_state(self, extra) -> None:
        self.jar_path = extra.get("jar_path", "")
        space = self.process.address_space
        self._heap_vma = space.find_by_label("java-heap")
        self._metaspace_vma = space.find_by_label("metaspace")
        loaded_names = extra.get("loaded_class_names", ())
        if self.app is not None and loaded_names:
            self.classloader.loaded |= table_names(self.app.classes).intersection(
                loaded_names)

    # -- introspection ------------------------------------------------------------------

    @property
    def loaded_classes(self) -> int:
        return self.classloader.loaded_count
