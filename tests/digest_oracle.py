"""Reference formula for the checkpoint image digests.

:meth:`CheckpointImage.compute_digest` and
:meth:`~CheckpointImage.compute_meta_digest` stream their SHA-256 input
from cached fragments instead of building one payload and encoding it.
This module keeps the original formula — project the runtime state
with :func:`stable`, build the payload, ``json.dumps(..., sort_keys=True)``
— so tests can pin the streamed digests to it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def stable(obj: Any, _depth: int = 0) -> Any:
    """Project ``obj`` into a JSON-able form that is stable across runs.

    ``repr`` of plain objects embeds memory addresses, which would make
    content digests differ between identically seeded runs; instead,
    objects are projected as class name + sorted attribute dict.
    """
    if _depth > 12:
        return f"<depth-capped {type(obj).__name__}>"
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, dict):
        return {str(k): stable(v, _depth + 1)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [stable(v, _depth + 1) for v in items]
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        projected = {k: stable(v, _depth + 1) for k, v in sorted(attrs.items())}
        projected["__class__"] = type(obj).__name__
        return projected
    return f"<{type(obj).__name__}>"


def reference_json(obj: Any) -> str:
    """What the digests hash for a runtime-state value."""
    return json.dumps(stable(obj), sort_keys=True)


def reference_digest(image, pages: bool = True) -> str:
    """The image's content digest (``pages=True``) or meta digest."""
    payload = {
        "pid": image.pid,
        "comm": image.comm,
        "argv": image.argv,
        "namespaces": {k: v for k, v in sorted(image.namespace_ids.items())},
        "vmas": [
            [v.start, v.length, v.kind, v.prot, v.label, v.file_path,
             v.file_offset, v.file_size, list(v.resident_indices)]
            + ([list(v.content_tags)] if pages else [])
            for v in image.vmas
        ],
        "fds": [
            [f.fd, f.path, f.offset, f.flags, f.is_socket, f.file_size]
            for f in image.fds
        ],
        "runtime_state": stable(image.runtime_state),
        "files": {name: f.size_bytes for name, f in sorted(image.files.items())},
        "warm": image.warm,
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
