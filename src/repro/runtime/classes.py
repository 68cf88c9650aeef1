"""Synthetic class generation (paper §4.2.2).

The paper's sensitivity analysis uses "synthetically generated
functions, which vary in the code size": small = 374 classes / 2.8 MiB,
medium = 574 / 9.2 MiB, big = 1574 / 41 MiB. It notes that "the loaded
classes have different sizes, and that is the reason for the growth in
the number of classes does not match the size linearly" — so the
generator draws heterogeneous per-class sizes that sum exactly to the
requested total.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class SyntheticClass:
    """One generated class: a name and its classfile size."""

    name: str
    size_kib: float

    def __post_init__(self) -> None:
        if self.size_kib <= 0:
            raise ValueError(f"class size must be positive, got {self.size_kib}")


@functools.lru_cache(maxsize=128)
def generate_classes(count: int, total_kib: float,
                     seed: int = 7) -> Tuple[SyntheticClass, ...]:
    """Generate ``count`` classes whose sizes sum to ``total_kib``.

    Sizes follow a log-normal draw re-normalized to the exact total, so
    the set is heterogeneous (as the paper describes) yet deterministic
    for a given seed and always sums to ``total_kib`` to within float
    rounding.

    Memoized: the table is an immutable tuple of frozen classes, so
    every app instance of a function (and every restored replica)
    shares one table instead of regenerating it per cold start.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if total_kib <= 0:
        raise ValueError(f"total_kib must be positive, got {total_kib}")
    rng = random.Random(seed)
    raw = [rng.lognormvariate(0.0, 0.6) for _ in range(count)]
    scale = total_kib / sum(raw)
    return tuple(
        SyntheticClass(name=f"com.synthetic.Class{i:05d}", size_kib=w * scale)
        for i, w in enumerate(raw)
    )


def total_size_kib(classes: Sequence[SyntheticClass]) -> float:
    """Sum of classfile sizes for a generated set."""
    return sum(c.size_kib for c in classes)
