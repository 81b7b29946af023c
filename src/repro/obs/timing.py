"""Accumulating wall-clock stopwatch.

:class:`Timer` is the always-on per-evaluator cost clock behind
``FieldEvaluator.timer`` / ``mean_cost``: the source of the measured
fine/coarse cost ratio (alpha) used by ``repro speedup`` and
``SpaceTimeSolver``.  Per-phase tree timings (``tree_build`` /
``moments`` / ``traverse`` / ``layout`` / ``far_field`` /
``near_field``) are not kept here; they are wall-clock spans of the
active tracer (:func:`repro.obs.tracer.use_tracer`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating stopwatch for a single named phase.

    Supports nested use as a context manager; ``elapsed`` accumulates across
    activations and ``count`` records the number of completed activations.
    """

    name: str = ""
    elapsed: float = 0.0
    count: int = 0
    _started: float | None = None

    def start(self) -> None:
        if self._started is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError(f"timer {self.name!r} not running")
        dt = time.perf_counter() - self._started
        self._started = None
        self.elapsed += dt
        self.count += 1
        return dt

    def reset(self) -> None:
        self.elapsed = 0.0
        self.count = 0
        self._started = None

    @property
    def mean(self) -> float:
        """Mean elapsed time per completed activation (0.0 if never run)."""
        return self.elapsed / self.count if self.count else 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
