"""The JVM class loader against its per-class reference.

:class:`repro.runtime.jvm.ClassLoader` keeps a set of loaded names,
tests "all loaded?" against each shared table's frozen name set and
prices a fresh table's load from a memo. These tests drive it and
:class:`tests.classload_oracle.OracleClassLoader` (the loader it
replaced) through the same steps in identically seeded worlds and
require identical cost bits, clocks, loaded sets and metaspace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.functions import make_app
from repro.runtime import jvm
from repro.runtime.base import Request
from repro.runtime.classes import SyntheticClass, generate_classes
from repro.runtime.jvm import JVMRuntime
from tests.classload_oracle import OracleClassLoader

NAME_POOL = 48


def _launch(kernel, table, oracle):
    kernel.fs.ensure("/opt/jvm/bin/java", size=128 * 1024)
    proc = kernel.clone(kernel.init_process, comm="java")
    kernel.execve(proc, "/opt/jvm/bin/java")
    runtime = JVMRuntime(kernel, proc)
    if oracle:
        runtime.classloader = OracleClassLoader(runtime)
    runtime.boot()
    app = make_app("noop")
    app.classes = table
    runtime.load_application(app)
    return runtime


def _set_warmth(kernel, runtime, warmth):
    jar = kernel.fs.lookup(runtime.jar_path)
    kernel.page_cache.evict(jar)
    kernel.page_cache.warm(jar, fraction=warmth)


def _state(runtime):
    return (runtime.loaded_classes,
            runtime._extra_state()["loaded_class_names"],
            runtime._metaspace_vma.resident_pages,
            runtime.classloader.all_loaded(runtime.app.classes))


def _drive(seed, table, plans, oracle):
    """Run ``plans`` (one per runtime, all sharing ``table``) in a fresh
    world; returns every observation as comparable values."""
    world = make_world(seed=seed)
    kernel = world.kernel
    seen = []
    for warmth, preload, restored, loads in plans:
        runtime = _launch(kernel, table, oracle)
        loader = runtime.classloader
        _set_warmth(kernel, runtime, warmth)
        if restored is not None:
            names = sorted(f"com.t.C{i}" for i in restored)
            if oracle:
                loader.apply_loaded_names(table, names)
            else:
                runtime._apply_extra_state({"jar_path": runtime.jar_path,
                                            "loaded_class_names": names})
        if preload:
            part = tuple(table[i % len(table)] for i in preload)
            seen.append(loader.load_all(part, runtime.jar_path).hex())
        seen.append(_state(runtime))
        for step in range(loads):
            if step % 2:
                runtime.handle(Request())
            else:
                seen.append(loader.load_all(table, runtime.jar_path).hex())
            seen.append(kernel.clock.now.hex())
            seen.append(_state(runtime))
    return seen


_tables = st.lists(
    st.tuples(st.integers(0, NAME_POOL - 1),
              st.floats(0.01, 400.0, allow_nan=False)),
    min_size=1, max_size=40,
).map(lambda rows: tuple(SyntheticClass(f"com.t.C{i}", size)
                         for i, size in rows))
_warmth = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
_plans = st.lists(
    st.tuples(_warmth,
              st.lists(st.integers(0, 60), max_size=12),
              st.none() | st.lists(st.integers(0, NAME_POOL - 1), max_size=20),
              st.integers(1, 4)),
    min_size=1, max_size=3,
)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), table=_tables, plans=_plans)
    def test_random_tables_match_the_oracle(self, seed, table, plans):
        assert _drive(seed, table, plans, oracle=False) == \
            _drive(seed, table, plans, oracle=True)

    def test_shared_table_hits_the_memo(self, monkeypatch):
        """Two runtimes sharing one table at one warmth price it once,
        and the memoized cost is the oracle's to the bit."""
        calls = []
        real = jvm._load_cost

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(jvm, "_load_cost", counted)
        monkeypatch.setattr(jvm, "_TABLE_COST", {})
        table = generate_classes(374, 2800.0, seed=11)
        plans = [(1.0, [], None, 2), (1.0, [], None, 2)]
        assert _drive(5, table, plans, oracle=False) == \
            _drive(5, table, plans, oracle=True)
        assert [c is table for c in calls] == [True]

    def test_partial_preload_uses_the_per_class_path(self):
        table = generate_classes(60, 900.0, seed=12)
        plans = [(0.25, [0, 1, 2, 30], [5, 6, 7], 3), (0.25, [], None, 1)]
        assert _drive(9, table, plans, oracle=False) == \
            _drive(9, table, plans, oracle=True)

    def test_memo_is_bounded_and_holds_its_tables(self):
        for i in range(jvm._TABLE_MEMO_MAX + 5):
            table = generate_classes(3, 10.0 + i, seed=i)
            jvm.table_names(table)
        assert len(jvm._TABLE_NAMES) <= jvm._TABLE_MEMO_MAX
        for key, (table, names) in jvm._TABLE_NAMES.items():
            assert key == id(table)
            assert names == frozenset(c.name for c in table)

    def test_lists_are_not_memoized(self):
        table = list(generate_classes(5, 50.0, seed=3))
        jvm.table_names(table)
        assert all(entry[0] is not table
                   for entry in jvm._TABLE_NAMES.values())


@pytest.mark.parametrize("name", ["synthetic-small", "synthetic-big"])
def test_registered_synthetics_match_the_oracle(name):
    table = make_app(name).classes
    plans = [(0.0, [], None, 2), (1.0, [], None, 2), (1.0, [3, 4], [9], 2)]
    assert _drive(17, table, plans, oracle=False) == \
        _drive(17, table, plans, oracle=True)
