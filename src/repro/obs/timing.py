"""Wall-clock phase timing, bridged into the tracer.

This module is the home of :class:`Timer` / :class:`TimingRegistry`.
The tree code needs fine-grained phase timings (tree build, moments,
traversal, far/near summation) so the benchmark harness can reproduce
the per-phase breakdowns of the paper (Fig. 5) and feed measured
compute costs into the virtual-time scheduler (Fig. 8).

When a tracer is installed globally (:func:`repro.obs.tracer.use_tracer`),
every :meth:`TimingRegistry.phase` activation is *also* recorded as a
wall-clock span — so a traced run gets the tree pipeline's
``tree_build`` / ``moments`` / ``traverse`` / ``layout`` / ``far_field``
/ ``near_field`` phases on its timeline without any per-call-site
instrumentation.  With the default null tracer the cost is a single
attribute check per phase activation; the accumulating-timer behaviour is
unchanged either way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.obs.tracer import get_tracer

__all__ = ["Timer", "TimingRegistry", "timed"]


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


@dataclass
class TimingRegistry:
    """A set of named :class:`Timer` objects keyed by phase name."""

    timers: Dict[str, Timer] = field(default_factory=dict)

    def timer(self, name: str) -> Timer:
        if name not in self.timers:
            self.timers[name] = Timer(name=name)
        return self.timers[name]

    @contextmanager
    def phase(self, name: str) -> Iterator[Timer]:
        t = self.timer(name)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(name, cat="phase"):
                t.start()
                try:
                    yield t
                finally:
                    t.stop()
            return
        t.start()
        try:
            yield t
        finally:
            t.stop()

    def elapsed(self, name: str) -> float:
        return self.timers[name].elapsed if name in self.timers else 0.0

    def reset(self) -> None:
        for t in self.timers.values():
            t.reset()

    def report(self) -> str:
        """Human-readable one-line-per-phase summary, longest first."""
        rows: List[str] = []
        for name, t in sorted(
            self.timers.items(), key=lambda kv: -kv[1].elapsed
        ):
            rows.append(
                f"{name:<28s} {t.elapsed:10.4f}s  x{t.count:<6d} "
                f"mean {t.mean * 1e3:9.3f}ms"
            )
        return "\n".join(rows)

    def as_dict(self) -> Dict[str, float]:
        return {name: t.elapsed for name, t in self.timers.items()}


@contextmanager
def timed() -> Iterator[Timer]:
    """Measure a single block: ``with timed() as t: ...; t.elapsed``."""
    t = Timer(name="block")
    t.start()
    try:
        yield t
    finally:
        if t._started is not None:
            t.stop()
