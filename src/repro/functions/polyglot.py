"""Polyglot workloads for the paper's §7 future work.

"As future work, we plan to extend our evaluation to other runtimes
environments such as Node.JS and Python, all supported by the leading
public FaaS platforms. As different runtimes implement distinct
start-up procedures, the potential improvements remain unknown."

These functions host the same handler logic on the CPython and Node.js
runtime models so the prebaking pipeline can be exercised across
runtimes. Their timing constants are projections (see the runtime
modules), not paper fits.
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from repro.functions.base import FunctionApp, register_app
from repro.functions.markdown_engine import render_document
from repro.runtime.classes import generate_classes
from repro.sim.costmodel import FunctionCosts, synthetic_costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import ManagedRuntime, Request


def _python_profile(name: str, modules: int, kib: float,
                    service_ms: float) -> FunctionCosts:
    return synthetic_costs(name, classes=modules, class_kib=kib,
                           base_rss_mib=7.0, service_ms=service_ms)


def _node_profile(name: str, modules: int, kib: float,
                  service_ms: float) -> FunctionCosts:
    return synthetic_costs(name, classes=modules, class_kib=kib,
                           base_rss_mib=10.0, service_ms=service_ms)


class PythonMarkdownFunction(FunctionApp):
    """Markdown rendering on the CPython runtime model."""

    runtime_kind = "python"

    def __init__(self) -> None:
        super().__init__(_python_profile("py-markdown", modules=40,
                                         kib=900.0, service_ms=4.2))
        self.classes = generate_classes(40, 900.0, seed=21)

    def artifact_path(self) -> str:
        return f"/srv/functions/{self.name}/bundle.tar"

    def execute(self, runtime: "ManagedRuntime",
                request: "Request") -> Tuple[Any, int]:
        source = request.body if isinstance(request.body, str) and request.body \
            else "# hello from python"
        return render_document(source), 200


class NodeMarkdownFunction(FunctionApp):
    """Markdown rendering on the Node.js runtime model."""

    runtime_kind = "nodejs"

    def __init__(self) -> None:
        super().__init__(_node_profile("node-markdown", modules=120,
                                       kib=2_400.0, service_ms=3.8))
        self.classes = generate_classes(120, 2_400.0, seed=22)

    def artifact_path(self) -> str:
        return f"/srv/functions/{self.name}/bundle.js"

    def execute(self, runtime: "ManagedRuntime",
                request: "Request") -> Tuple[Any, int]:
        source = request.body if isinstance(request.body, str) and request.body \
            else "# hello from node"
        return render_document(source), 200


class PythonNoopFunction(FunctionApp):
    """NOOP on the CPython runtime model."""

    runtime_kind = "python"

    def __init__(self) -> None:
        profile = synthetic_costs("py-noop", classes=1, class_kib=4.0,
                                  base_rss_mib=7.0, service_ms=0.7)
        super().__init__(profile)
        self.classes = ()

    def artifact_path(self) -> str:
        return f"/srv/functions/{self.name}/handler.py"

    def execute(self, runtime: "ManagedRuntime",
                request: "Request") -> Tuple[Any, int]:
        return "", 200


class NodeNoopFunction(FunctionApp):
    """NOOP on the Node.js runtime model."""

    runtime_kind = "nodejs"

    def __init__(self) -> None:
        profile = synthetic_costs("node-noop", classes=1, class_kib=4.0,
                                  base_rss_mib=10.0, service_ms=0.6)
        super().__init__(profile)
        self.classes = ()

    def artifact_path(self) -> str:
        return f"/srv/functions/{self.name}/handler.js"

    def execute(self, runtime: "ManagedRuntime",
                request: "Request") -> Tuple[Any, int]:
        return "", 200


register_app("py-markdown", PythonMarkdownFunction)
register_app("node-markdown", NodeMarkdownFunction)
register_app("py-noop", PythonNoopFunction)
register_app("node-noop", NodeNoopFunction)
