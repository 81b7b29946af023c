"""Per-layer tracing of the solver from outside the library.

The traced run wraps the public entry points of each layer (see
``install``) with spans recorded by :class:`SpanRecorder`; nothing inside
``src/`` is touched and none of the library's own counters
(``FieldEvaluator.timer/calls``, ``TreeStats``, ``CacheStats``,
``TimingRegistry``) is read.  A span is a name, a start and an end
(``time.perf_counter``), the id of its parent span and the id of the
operation it belongs to.  Spans stay in memory; the run writes them once,
at its end, in the native ``repro-trace`` format.

Pool workers of a ``ProcessExecutor`` are forked after ``install``, so
they inherit the wrappers.  The recording switch is a shared-memory flag,
so workers record only while the main process has an operation under trace.  A
worker cannot hand spans back through the task result, so each worker
appends its spans to one file per process when its outermost span (one
dispatched task) closes; the main process reads them after the operation and
attaches them to the dispatch span and operation that cover them in time
(``CLOCK_MONOTONIC`` is system-wide on Linux).
"""

from __future__ import annotations

import inspect
import json
import mmap
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.export import save_trace
from repro.obs.tracer import Span, Tracer
from repro.pfasst.theory import alpha_from_measurements, speedup_two_level
from repro.tree import evaluator, parallel, state
from repro.tree.localbasis import BLOCK_END, DEG_START
from repro.vortex.problem import VortexProblem

#: bytes the far pass materialises per (target, cluster) interaction at
#: quadrupole order with gradients — target-minus-center rows, monomial
#: rows, Y rows and the GEMM output, float64.  Computed from array sizes,
#: not measured: cache misses are not counted.
FAR_BYTES_PER_INTERACTION = 8 * (3 + DEG_START[5] + BLOCK_END[3] + 12)


class SpanRecorder:
    """In-memory span store shared (by fork) with executor pool workers."""

    def __init__(self, out_dir: Path, tag: str) -> None:
        self.out_dir = Path(out_dir)
        self.tag = tag
        self.main_pid = os.getpid()
        # one byte of anonymous shared memory, inherited by forked
        # workers: everyone records only while an op is traced
        self._flag = mmap.mmap(-1, 1)
        self.op: Optional[int] = None
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._owner = self.main_pid
        self._next = 0

    @property
    def active(self) -> bool:
        return self._flag[0] == 1

    def begin_op(self, op: int) -> None:
        self.op = op
        self._flag[0] = 1

    def end_op(self) -> None:
        self._flag[0] = 0
        self.op = None

    def open(self, name: str, level: Optional[str] = None) -> Dict[str, Any]:
        pid = os.getpid()
        if pid != self._owner:  # first span in a forked worker
            self._owner, self.spans, self._stack = pid, [], []
        parent = self._stack[-1] if self._stack else None
        if level is None and parent is not None:
            level = parent["level"]
        self._next += 1
        span = {
            "id": f"{pid}:{self._next}",
            "parent": parent["id"] if parent is not None else None,
            "op": self.op, "name": name, "level": level, "pid": pid,
            "t0": time.perf_counter(), "t1": None, "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["t1"] = time.perf_counter()
        self._stack.pop()
        if not self._stack and os.getpid() != self.main_pid:
            with open(self.worker_file(os.getpid()), "a") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")
            self.spans = []

    def worker_file(self, pid: int) -> Path:
        return self.out_dir / f"{self.tag}-worker-{pid}.jsonl"

    def collect_workers(self) -> None:
        """Move worker spans written so far into the main process's store."""
        for path in sorted(self.out_dir.glob(f"{self.tag}-worker-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def clear_worker_files(self) -> None:
        for path in self.out_dir.glob(f"{self.tag}-worker-*.jsonl"):
            path.unlink()

    def save(self, path: Path, meta: Dict[str, Any]) -> Path:
        tracer = Tracer(meta=meta)
        for s in self.spans:
            track = "main" if s["pid"] == self.main_pid else f"worker-{s['pid']}"
            tracer.spans.append(Span(
                name=s["name"], track=track, t0=s["t0"], t1=s["t1"],
                clock="wall", cat="layer",
                args={"id": s["id"], "parent": s["parent"], "op": s["op"],
                      "level": s["level"], **s["attrs"]},
            ))
        return save_trace(tracer, path)


def _wrap(rec: SpanRecorder, fn: Callable, name: str,
          level: Callable[[inspect.BoundArguments], Optional[str]] = None,
          attrs: Callable[[inspect.BoundArguments, Any], Dict] = None):
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs) if (level or attrs) else None
        span = rec.open(name, level(bound) if level else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if attrs:
            span["attrs"].update(attrs(bound, out))
        return out

    return traced


def install(rec: SpanRecorder, level_of_theta: Dict[float, str]) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function undoing it."""

    def by_theta(theta: float) -> str:
        return level_of_theta.get(float(theta), f"theta={theta}")

    def problem_level(b):
        return by_theta(b.arguments["self"].evaluator.theta)

    def traversal_level(b):
        return by_theta(b.arguments["theta"])

    def layout_pairs(kind):
        return lambda b, out: {"pairs": int(getattr(b.arguments["layout"], kind))}

    def traversal_counts(b, lists):
        return {"mac_tests": int(lists.mac_tests)}

    plan = [
        (VortexProblem, "rhs", "rhs", problem_level, None),
        (VortexProblem, "field_segment", "rhs.segment", problem_level, None),
        (state, "build_octree", "tree.build", None, None),
        (state, "compute_vortex_moments", "tree.moments", None, None),
        (state, "dual_traversal", "tree.traverse", traversal_level,
         traversal_counts),
    ]
    # the evaluator modules hold their own references to the engine
    # functions; those references are the ones actually called
    for module in (evaluator, parallel):
        plan += [
            (module, "build_traversal_layout", "tree.layout", None, None),
            (module, "batched_far_vortex", "tree.far", None,
             layout_pairs("far_pairs")),
            (module, "batched_near_vortex", "tree.near", None,
             layout_pairs("near_pairs")),
        ]
    saved = []
    for owner, attr, name, level, attrs in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, original, name, level, attrs))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def trace_dispatch(rec: SpanRecorder, executor) -> None:
    """Wrap one executor's ``ExecutionBackend.dispatch`` (instance level)."""
    original = executor.dispatch

    def dispatch(batch):
        if not rec.active:
            return original(batch)
        span = rec.open("exec.dispatch")
        try:
            results = original(batch)
        finally:
            rec.close(span)
        span["attrs"].update(
            width=len(batch),
            busy=[float(r.elapsed) for r in results],
            shm_bytes=int(sum(r.shm_bytes for r in results)),
        )
        return results

    executor.dispatch = dispatch


# -- per-operation layer metrics ---------------------------------------------

def _lpt(tasks: Sequence[float], workers: int) -> float:
    """Longest-processing-time packing of one batch onto ``workers``."""
    loads = [0.0] * max(1, workers)
    for t in sorted(tasks, reverse=True):
        loads[loads.index(min(loads))] += t
    return max(loads)


def _self_time(span: Dict[str, Any], children: List[Dict[str, Any]]) -> float:
    """Span duration minus the part of it its children cover."""
    lo, hi = span["t0"], span["t1"]
    covered, end = 0.0, lo
    for c in sorted(children, key=lambda s: s["t0"]):
        a, b = max(c["t0"], end), min(c["t1"], hi)
        if b > a:
            covered += b - a
            end = b
    return (hi - lo) - covered


def attach_worker_spans(op_span: Dict[str, Any], spans: List[Dict[str, Any]]) -> None:
    """Give worker root spans the main-process dispatch span covering them."""
    dispatches = [s for s in spans if s["name"] == "exec.dispatch"]
    for s in spans:
        if s["op"] is None and op_span["t0"] <= s["t0"] <= op_span["t1"]:
            s["op"] = op_span["op"]
            if s["parent"] is None:
                cover = [d for d in dispatches if d["t0"] <= s["t0"] <= d["t1"]]
                s["parent"] = cover[0]["id"] if cover else op_span["id"]


def op_metrics(op_span: Dict[str, Any], spans: List[Dict[str, Any]],
               ctx: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced operation.

    ``ctx`` carries what the spans cannot: the ``PfasstResult`` (or None),
    the gate's cold fine-evaluation time, the workload geometry and the
    SDC(4) evaluation count of the same interval.
    """
    mine = [s for s in spans if s["op"] == op_span["op"] and s is not op_span]
    kids: Dict[str, List[Dict[str, Any]]] = {}
    for s in mine:
        kids.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def total(name, level=None):
        return sum(dur(s) for s in mine
                   if s["name"] == name and (level is None or s["level"] == level))

    def count(name, level=None):
        return sum(1 for s in mine
                   if s["name"] == name and (level is None or s["level"] == level))

    def attr_sum(name, key, level=None):
        return sum(s["attrs"].get(key, 0) for s in mine
                   if s["name"] == name and (level is None or s["level"] == level))

    m: Dict[str, float] = {
        "tree.build_s": total("tree.build"),
        "tree.moments_s": total("tree.moments"),
    }
    for phase in ("traverse", "layout", "far", "near"):
        for level in ("fine", "coarse"):
            m[f"tree.{phase}.{level}_s"] = total(f"tree.{phase}", level)
    for level in ("fine", "coarse"):
        m[f"tree.far_interactions.{level}"] = attr_sum("tree.far", "pairs", level)
        m[f"tree.near_interactions.{level}"] = attr_sum("tree.near", "pairs", level)
        m[f"tree.mac_tests.{level}"] = attr_sum("tree.traverse", "mac_tests", level)
    far_pairs = attr_sum("tree.far", "pairs")
    near_pairs = attr_sum("tree.near", "pairs")
    m["tree.far_ns_per_interaction"] = (
        1e9 * total("tree.far") / far_pairs if far_pairs else 0.0)
    m["tree.near_ns_per_pair"] = (
        1e9 * total("tree.near") / near_pairs if near_pairs else 0.0)
    m["tree.far_bytes_computed"] = far_pairs * FAR_BYTES_PER_INTERACTION
    far_passes = count("tree.far")
    m["tree.cache_hit_ratio"] = (
        1.0 - count("tree.build") / far_passes if far_passes else 0.0)

    # repro.vortex: whole RHS evaluations (in-process) or space segments
    # (pool workers; p_space segments make one evaluation)
    p_space = ctx["p_space"]
    rhs_like = [s for s in mine if s["name"] in ("rhs", "rhs.segment")]
    medians = {}
    for level in ("fine", "coarse"):
        whole = count("rhs", level)
        segments = count("rhs.segment", level)
        m[f"rhs.calls.{level}"] = whole + segments // p_space
        m[f"rhs.busy.{level}_s"] = total("rhs", level) + total("rhs.segment", level)
        durations = [dur(s) for s in rhs_like if s["level"] == level]
        medians[level] = statistics.median(durations) if durations else 0.0
    m["rhs.self_s"] = sum(_self_time(s, kids.get(s["id"], [])) for s in rhs_like)
    m["rhs.alpha"] = (
        alpha_from_measurements(ctx["coarse_nodes"], ctx["fine_nodes"],
                                medians["fine"] / medians["coarse"])
        if medians["fine"] and medians["coarse"] else 0.0)

    # repro.sdc + repro.pfasst + repro.parallel
    res = ctx["result"]
    counters = res.metrics.get("counters", {}) if res is not None else {}
    if res is not None:
        residuals = np.array(res.residuals)
        makespan = res.makespan
        m["pfasst.overhead_s"] = _self_time(op_span, kids.get(op_span["id"], []))
        m["pfasst.iterations"] = sum(res.iterations_done)
        m["pfasst.residual.k1"] = float(residuals[:, 0].max())
        m["pfasst.residual.k2"] = float(residuals[:, -1].max())
        m["pfasst.eq24_speedup"] = (
            float(speedup_two_level(ctx["p_time"], m["rhs.alpha"], 4,
                                    ctx["iterations"], ctx["coarse_sweeps"]))
            if m["rhs.alpha"] else 0.0)
        m["pfasst.virtual_speedup"] = (
            ctx["sdc4_evals"] * ctx["rhs_fine_s"] / makespan if makespan else 0.0)
        m["sched.clock_spread"] = max(res.clocks) - min(res.clocks)
    else:
        for key in ("pfasst.overhead_s", "pfasst.iterations",
                    "pfasst.residual.k1", "pfasst.residual.k2",
                    "pfasst.eq24_speedup", "pfasst.virtual_speedup",
                    "sched.clock_spread"):
            m[key] = 0.0
    m["mpi.messages"] = counters.get("mpi.messages", 0)
    m["mpi.bytes"] = counters.get("mpi.bytes", 0)
    m["space.branch_bytes"] = counters.get("space.branch_bytes", 0)
    m["space.rhs_bytes"] = sum(v for k, v in counters.items()
                               if k.startswith("space.rhs_bytes{"))

    # repro.parallel.executor
    batches = [s for s in mine if s["name"] == "exec.dispatch"]
    workers = ctx["workers"]
    busy = sum(sum(s["attrs"]["busy"]) for s in batches)
    dispatch_s = sum(dur(s) for s in batches)
    tasks = sum(s["attrs"]["width"] for s in batches)
    m["exec.batches"] = len(batches)
    m["exec.tasks"] = tasks
    m["exec.width_mean"] = tasks / len(batches) if batches else 0.0
    m["exec.task_busy_s"] = busy
    m["exec.dispatch_s"] = dispatch_s
    m["exec.overhead_s"] = sum(
        dur(s) - _lpt(s["attrs"]["busy"], workers) for s in batches)
    m["exec.shm_bytes"] = sum(s["attrs"]["shm_bytes"] for s in batches)
    m["exec.utilisation"] = (
        busy / (workers * dispatch_s) if batches and dispatch_s else 0.0)
    return m
