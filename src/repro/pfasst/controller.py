"""The PFASST controller (paper Sec. III-B-3, Algorithm 1, Fig. 6).

The algorithm is written once, as a *rank program* for the simulated MPI
scheduler (:mod:`repro.parallel.simmpi`): ``P_T`` ranks each own one time
slice per block, sweep SDC on a level hierarchy, and exchange slice
boundary values with their neighbours.  Running the program under the
scheduler yields both the numerics (identical regardless of the timing
model) and per-rank virtual wall-clocks for the speedup studies (Fig. 8).

Structure per block:

1. **Predictor** — staggered coarse sweeps: rank ``n`` performs ``n + 1``
   coarse sweeps, receiving an updated initial value from rank ``n - 1``
   before each sweep after the first (the staircase of Fig. 6, same
   aggregate cost as one serial coarse sweep per slice).  The result is
   interpolated up through the hierarchy.
2. **Iterations** — each iteration runs Algorithm 1's V-cycle:
   going *down*: sweep, send the slice end value forward, restrict,
   compute the FAS correction; at the *coarsest* level: receive the new
   initial value, sweep, send forward; going *up*: add the interpolated
   coarse correction, re-evaluate, receive the new fine initial value and
   apply the interpolated initial-value correction.

Multi-block runs chain blocks by broadcasting the last slice's end value.

Fault tolerance (``config.recovery``): the PFASST iteration is naturally
resilient — the coarse level carries a usable copy of the solution — so a
rank lost to a simulated hard fault (:mod:`repro.parallel.faults`) can be
recovered *algorithmically* instead of by global checkpoint-restart:

* ``"fail"`` (default) — no recovery protocol; a crash kills the run
  exactly as before this subsystem existed.  The message pattern is
  byte-identical to the fault-free controller.
* ``"cold-restart"`` — all ranks abandon the current block and re-run its
  predictor from the block initial value (which the replacement rank
  re-fetches from a surviving rank).
* ``"warm-restart"`` — only the lost rank rebuilds: its left neighbour
  sends the *coarse-level* end value (the paper's "less accurate but
  usable copy"), the replacement interpolates it to the fine level, runs
  predictor-quality coarse sweeps, and iterating continues; surviving
  ranks keep their state, so reconvergence needs fewer extra iterations
  than a cold restart.

With recovery enabled, every iteration ends in a small status allreduce
(crash detection is collective) and neighbour receives carry a timeout so
a dead sender surfaces as a :class:`~repro.parallel.faults.RecvTimeout`
instead of a deadlock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Tracer
from repro.parallel import tags
from repro.parallel.collectives import allgather, allreduce, bcast
from repro.parallel.executor import DispatchContext, ExecutionBackend
from repro.parallel.faults import FaultPlan, RankFailure, RecvTimeout
from repro.parallel.simmpi import (
    CommCostModel,
    EpochComm,
    Scheduler,
    VirtualComm,
)
from repro.parallel.topology import SpaceTimeGrid
from repro.pfasst.checkpoint import (
    RunCheckpoint,
    RunCheckpointer,
    adopt_levels,
    snapshot_levels,
)
from repro.pfasst.fas import fas_correction
from repro.pfasst.level import Level, LevelSpec
from repro.pfasst.transfer import SpatialTransfer, TimeSpaceTransfer
from repro.sdc.sweeper import evaluate_node_values, evaluate_rhs
from repro.utils.validation import check_positive

__all__ = [
    "PfasstConfig",
    "PfasstResult",
    "RECOVERY_POLICIES",
    "run_pfasst",
    "pfasst_rank_program",
]

RECOVERY_POLICIES = ("fail", "cold-restart", "warm-restart")


@dataclass(frozen=True)
class PfasstConfig:
    """Run parameters for PFASST over ``[t0, t_end]``.

    ``PFASST(X, Y, P_T)`` in the paper's notation maps to ``iterations=X``,
    coarsest level ``sweeps=Y``, and ``p_time=P_T`` scheduler ranks.
    """

    t0: float
    t_end: float
    n_steps: int
    iterations: int
    #: When True, recompute F after every interpolation (the literal
    #: ``FEval`` of the paper's Algorithm 1 listing).  The default False
    #: corrects F by interpolating the *coarse F increment* instead —
    #: the practice of production PFASST codes, saving one full set of
    #: fine evaluations per iteration at no cost to the fixed point
    #: (both variants converge to the fine collocation solution; the
    #: ablation benchmark compares them).
    reeval_after_interp: bool = False
    #: optional residual-based early stopping (adds one allreduce/iteration)
    residual_tol: Optional[float] = None
    #: record begin/end annotations for every sweep on the scheduler's
    #: trace — enables schedule diagrams like the paper's Fig. 6
    trace: bool = False
    #: crash-recovery policy: ``"fail"`` (no protocol, byte-identical to
    #: the pre-fault-tolerance controller), ``"cold-restart"`` (redo the
    #: block from its predictor) or ``"warm-restart"`` (rebuild only the
    #: lost rank from a neighbour's coarse solution)
    recovery: str = "fail"
    #: virtual-time timeout on neighbour receives when recovery is on —
    #: lazy semantics: it only ever fires at a global stall, so any value
    #: works and it never expires spuriously (see simmpi docs)
    recovery_timeout: float = 0.05
    #: link-layer retransmits per receive before a timeout/corruption is
    #: escalated to the recovery protocol
    recovery_retries: int = 1
    #: restarts allowed per block before the run gives up
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end {self.t_end} must be > t0 {self.t0}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {self.recovery!r}"
            )
        if not self.recovery_timeout > 0:
            raise ValueError(
                f"recovery_timeout must be > 0, got {self.recovery_timeout}"
            )
        if self.recovery_retries < 0:
            raise ValueError(
                f"recovery_retries must be >= 0, got {self.recovery_retries}"
            )
        if self.max_restarts < 1:
            raise ValueError(
                f"max_restarts must be >= 1, got {self.max_restarts}"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps


@dataclass
class PfasstResult:
    """Outcome of a PFASST run."""

    u_end: np.ndarray
    #: slice end values of the final block, one per time rank
    slice_end_values: List[np.ndarray]
    #: fine-level residual history: residuals[rank][iteration] (last block)
    residuals: List[List[float]]
    #: virtual wall-clock per rank (seconds)
    clocks: List[float]
    #: iterations actually performed per block (== config.iterations unless
    #: residual_tol triggered early exit)
    iterations_done: List[int] = field(default_factory=list)
    #: annotated schedule events when ``config.trace`` was set
    trace: List[Any] = field(default_factory=list)
    #: per-level evaluator bookkeeping (RHS calls, tree-cache hit/miss
    #: counters) sampled from the level specs after the run; empty dicts
    #: for problems without an instrumented evaluator
    evaluator_stats: List[Dict[str, int]] = field(default_factory=list)
    #: V-cycle iterations *attempted* per block, including iterations
    #: discarded by a restart — ``total_iterations[b] -
    #: iterations_done[b]`` is the algorithmic recovery overhead
    total_iterations: List[int] = field(default_factory=list)
    #: one entry per recovery action the protocol took (block, attempt,
    #: phase, iteration, policy, failed ranks)
    recoveries: List[Dict[str, Any]] = field(default_factory=list)
    #: the scheduler's :class:`~repro.parallel.faults.ResilienceReport`
    #: (``None``-ish/empty when no fault plan was active)
    resilience: Optional[Any] = None
    #: snapshot of the scheduler's metrics registry (``mpi.messages`` /
    #: ``mpi.bytes`` globally and per rank pair, ``mpi.retransmissions``)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: the run's :class:`repro.analysis.commgraph.DeterminismCertificate`
    #: when ``certify=True`` was requested; ``None`` otherwise
    certificate: Optional[Any] = None

    @property
    def makespan(self) -> float:
        return max(self.clocks) if self.clocks else 0.0

    @property
    def recovery_iterations(self) -> int:
        """Total iterations spent on recovery across all blocks."""
        return sum(self.total_iterations) - sum(self.iterations_done)


def _build_levels(
    specs: Sequence[LevelSpec], spatial: Optional[Sequence[SpatialTransfer]]
) -> tuple[List[Level], List[TimeSpaceTransfer]]:
    if len(specs) < 2:
        raise ValueError("PFASST needs at least 2 levels (fine + coarse)")
    levels = [Level(spec) for spec in specs]
    transfers = []
    for i in range(len(levels) - 1):
        spatial_i = spatial[i] if spatial is not None else None
        transfers.append(
            TimeSpaceTransfer(levels[i].rule, levels[i + 1].rule, spatial_i)
        )
    return levels, transfers


def _merge_ranks(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Allreduce op combining failed-rank sets (commutative, associative)."""
    return tuple(sorted(set(a) | set(b)))


def _merge_status(a, b):
    """Combine per-rank ``(failed_ranks, residual)`` iteration statuses.

    Piggybacking the residual on the failure-detection allreduce keeps
    fault-tolerant runs at *one* collective per iteration (instead of a
    status sync plus a separate ``residual_tol`` reduction) — and, more
    importantly, keeps the separate reduction out of the unrecoverable
    window: a crash during a collective is fatal, so fewer collectives
    mean fewer ops where a crash cannot be recovered.
    """
    return (_merge_ranks(a[0], b[0]), max(a[1], b[1]))


@dataclass
class _GridRecovery:
    """Grid-recovery context threaded into :func:`pfasst_rank_program`.

    Present only when a recovery policy is active and a time slice's
    *plane* (its ``p_space * p_nodes`` ranks) holds more than one rank:
    failure detection then runs over the *world* communicator (a crash
    on one plane member must be visible to every member — they share
    space and node collectives), warm restarts bitwise-resync each
    plane over ``plane`` (the live space or node comm, or a comm of its
    own when both are live), and every live space/node comm is an
    :class:`~repro.parallel.simmpi.EpochComm` whose epoch the
    controller bumps on every restart, orphaning in-flight ring
    messages from the aborted attempt.

    ``row_pos = s * p_nodes + n`` is this rank's index within
    ``grid.time_row(t_idx)``; ``epoch_comms`` lists the epoch comms
    other than ``plane`` that :meth:`bump` advances alongside it.
    """

    world: VirtualComm
    grid: SpaceTimeGrid
    plane: EpochComm
    t_idx: int
    row_pos: int
    epoch_comms: Tuple[EpochComm, ...] = ()

    def bump(self) -> None:
        """Advance every epoch comm, orphaning the aborted attempt."""
        self.plane.epoch += 1
        for c in self.epoch_comms:
            c.epoch += 1


def pfasst_rank_program(
    comm: VirtualComm,
    config: PfasstConfig,
    specs: Sequence[LevelSpec],
    u0: np.ndarray,
    spatial: Optional[Sequence[SpatialTransfer]] = None,
    space: Optional[VirtualComm] = None,
    dispatch: Optional[DispatchContext] = None,
    ft_grid: Optional[_GridRecovery] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    resume: Optional[RunCheckpoint] = None,
    node: Optional[VirtualComm] = None,
) -> Generator[Any, Any, Dict[str, Any]]:
    """Rank program executing PFASST on one time rank.

    Yields simulated-MPI operations; returns a dict with the rank's end
    value, residual history and bookkeeping.

    ``space`` optionally attaches a space communicator (a row of the
    paper's Fig. 2 grid, typically from ``comm.split``): every RHS
    evaluation is then driven collectively over its ranks via
    :func:`repro.sdc.sweeper.evaluate_rhs`, sharding the tree work while
    keeping the time algorithm — and, without a live ``space``, the op
    stream — unchanged.

    ``dispatch`` routes RHS evaluations of problems registered with the
    scheduler's execution backend through ``Compute`` ops (see
    :mod:`repro.parallel.executor`): independent evaluations across time
    ranks — and, on the grid, the per-row far/near tree segments — then
    run concurrently on real cores under a process backend, while the
    time algorithm, the message pattern and (with ``measure_compute``
    off) the virtual clocks stay byte-identical.

    With ``config.recovery != "fail"`` the program survives injected rank
    crashes (:class:`~repro.parallel.faults.RankFailure` thrown at an op
    boundary) during the predictor or a V-cycle iteration: failure
    detection is collective (a status allreduce after each phase), the
    block ``attempt`` counter is bumped into every message tag so stale
    messages from the abandoned phase can never be mistaken for live
    traffic, and the failed rank rebuilds per the policy.  A crash that
    lands *inside* the recovery protocol itself (status allreduce, block
    refetch, donor hand-off, block-end broadcast) is fatal — the same
    caveat a real fault-tolerant MPI has when the recovery collective
    itself fails.

    ``ft_grid`` (set by :func:`_grid_rank_program` when a recovery
    policy is active and a time slice spans more than one rank, i.e.
    ``p_space * p_nodes > 1``) extends the protocol to the whole grid:
    detection collectives run over the *world* communicator (a crash on
    any member of a time slice must be visible to every slice), warm
    restarts bitwise-resync every time-slice plane from its lowest
    surviving member before column donors rebuild fully-lost planes,
    and the space/node comms' epochs are bumped on each restart so
    in-flight ring traffic from the aborted attempt is orphaned.

    ``node`` optionally attaches a PFASST-ER node communicator (one per
    time-space cell of the grid, live at ``p_nodes > 1``): multi-node
    RHS evaluation rounds — the diagonal sweeper's inner/final rounds
    and the controller's restriction/interpolation re-evaluations — then
    shard the collocation nodes over its ranks and reassemble ``F`` with
    a ring allgather
    (:func:`repro.sdc.sweeper.evaluate_node_values`).  The sharding is
    bitwise-neutral: each node's RHS is computed exactly once, on one
    rank, from the same inputs, so a ``node`` of size 1 (or ``None``)
    and any ``p_nodes > 1`` agree bitwise under the Gauss-Seidel
    sweeper.

    ``checkpointer`` / ``resume`` attach durable checkpoint/restart
    (:mod:`repro.pfasst.checkpoint`): contributions are plain in-process
    calls after each iteration — zero extra ops, so the op stream stays
    byte-identical — and a resumed program jumps to the checkpointed
    block, adopts the level state bitwise and continues at iteration
    ``k + 1``, reproducing the uninterrupted run exactly.
    """
    rank, p_time = comm.rank, comm.size
    if config.n_steps % p_time != 0:
        raise ValueError(
            f"n_steps={config.n_steps} must be a multiple of p_time={p_time}"
        )
    n_blocks = config.n_steps // p_time
    dt = config.dt
    levels, transfers = _build_levels(specs, spatial)
    n_levels = len(levels)
    coarsest = levels[-1]
    for lv in levels:
        lv._dt = dt

    ft = config.recovery != "fail"
    # with recovery off these defaults make every Recv op byte-identical
    # to the pre-fault-tolerance controller
    rt = config.recovery_timeout if ft else None
    rr = config.recovery_retries if ft else 0
    # protocol collectives (status allreduces, block-end broadcast) use a
    # longer timeout than the neighbour detection receives: a dropped
    # collective leg still recovers by shadow retransmit, but at a crash
    # stall the scheduler expires the *shortest* timeout first, so the
    # neighbour receive — whose RecvTimeout the program catches — always
    # fires before a collective leg, which cannot catch it
    ct = rt * 8 if ft else None
    # grid-wide recovery: detection collectives run over the world comm
    # (a plane member's crash must be visible to every slice); with
    # one rank per slice ``detect`` is the time comm and ``me`` the time
    # rank, so the op stream is byte-identical to the time-only controller
    detect = ft_grid.world if ft_grid is not None else comm
    me = detect.rank

    u_block = np.asarray(u0, dtype=np.float64).copy()
    residual_history: List[List[float]] = []
    iterations_done: List[int] = []
    total_iterations: List[int] = []
    recoveries: List[Dict[str, Any]] = []

    # ---- helpers (closures over the hierarchy) -------------------------
    def _sweep_u0(level, explicit):
        """The ``u0`` a sweep call must carry.

        The controller's sites pass ``None`` whenever node 0 already
        holds the current initial value — correct for the Gauss-Seidel
        sweeper on left-including families (and byte-identical to the
        historical call pattern).  Sweepers that *need* ``u0`` on every
        call (diagonal sweeper; Gauss-Seidel on non-left families,
        where node 0 is a genuine unknown) get the level's tracked
        initial value instead.
        """
        if explicit is not None:
            return explicit
        return level.u0 if level.sweeper.needs_u0 else None

    def _interpolate_up(t_slice: float):
        """Fill the finer levels from the coarsest (predictor epilogue)."""
        for lev in range(n_levels - 2, -1, -1):
            tr = transfers[lev]
            fine, coarse = levels[lev], levels[lev + 1]
            fine.U = tr.interpolate_nodes(coarse.U)
            if fine.rule.node_set.includes_left:
                fine.u0 = fine.U[0].copy()
            else:
                # node 0 is interior: the initial value is not a node
                # value, interpolate it from the coarse level's directly
                fine.u0 = tr.interpolate_state(coarse.u0)
            # interpolated F[0] is approximate: the next sweep must
            # re-evaluate it from u0 (dirty flag)
            fine.u0_dirty = True
            if config.reeval_after_interp:
                fine.F = yield from _evaluate_all(fine, t_slice, dt, space, dispatch, node)
            else:
                fine.F = tr.interpolate_nodes(coarse.F)
            fine.tau = None

    def _predictor(block, attempt, t_slice, u0_by_level):
        coarsest.u0 = u0_by_level[-1]
        coarsest.U, coarsest.F = yield from coarsest.sweeper.initialize_gen(
            t_slice, dt, coarsest.u0, "spread", space=space, dispatch=dispatch,
            node=node,
        )
        for j in range(rank + 1):
            new_u0 = None
            if j > 0:
                new_u0 = yield comm.recv(
                    rank - 1, (tags.PRED, block, attempt, j),
                    timeout=rt, retries=rr,
                )
                coarsest.u0 = new_u0
            if config.trace:
                yield comm.annotate(f"begin:predict:{j}")
            coarsest.U, coarsest.F = yield from coarsest.sweeper.sweep_gen(
                t_slice, dt, coarsest.U, coarsest.F,
                u0=_sweep_u0(coarsest, new_u0), space=space, dispatch=dispatch,
                node=node,
            )
            if config.trace:
                yield comm.annotate(f"end:predict:{j}")
            if rank < p_time - 1:
                yield comm.send(
                    rank + 1, (tags.PRED, block, attempt, j + 1),
                    coarsest.end_value,
                )
        # interpolate the predicted solution up through the hierarchy
        yield from _interpolate_up(t_slice)

    def _iteration(block, attempt, k, t_slice, u0_by_level):
        """One V-cycle; returns the fine-level residual."""
        # ---- down the V-cycle ----
        for lev in range(n_levels - 1):
            level = levels[lev]
            tau = level.tau if lev > 0 else None
            if config.trace:
                yield comm.annotate(f"begin:sweep:L{lev}:k{k}")
            for s in range(level.spec.sweeps):
                pass_u0 = level.u0 if (s == 0 and level.u0_dirty) else None
                level.U, level.F = yield from level.sweeper.sweep_gen(
                    t_slice, dt, level.U, level.F,
                    u0=_sweep_u0(level, pass_u0), tau=tau, space=space,
                    dispatch=dispatch, node=node,
                )
            level.u0_dirty = False
            if config.trace:
                yield comm.annotate(f"end:sweep:L{lev}:k{k}")
            if rank < p_time - 1:
                yield comm.send(
                    rank + 1, (tags.LVL, block, attempt, lev, k),
                    level.end_value,
                )
            # restrict and compute FAS for the next level down
            if config.trace:
                yield comm.annotate(f"begin:restrict:L{lev}:k{k}")
            tr = transfers[lev]
            coarse = levels[lev + 1]
            coarse.U = tr.restrict_nodes(level.U)
            coarse.U_at_restriction = coarse.U.copy()
            coarse.u0 = tr.restrict_state(level.u0)
            coarse.F = yield from _evaluate_all(coarse, t_slice, dt, space, dispatch, node)
            coarse.F_at_restriction = coarse.F.copy()
            coarse.tau = fas_correction(
                dt, tr, level.F, coarse.F,
                tau_fine=level.tau if lev > 0 else None,
            )
            if config.trace:
                yield comm.annotate(f"end:restrict:L{lev}:k{k}")

        # ---- coarsest level ----
        if rank > 0:
            coarsest.u0 = yield comm.recv(
                rank - 1, (tags.LVL, block, attempt, n_levels - 1, k),
                timeout=rt, retries=rr,
            )
        else:
            coarsest.u0 = u0_by_level[-1]
        new_u0 = coarsest.u0
        if config.trace:
            yield comm.annotate(f"begin:sweep:L{n_levels - 1}:k{k}")
        for s in range(coarsest.spec.sweeps):
            coarsest.U, coarsest.F = yield from coarsest.sweeper.sweep_gen(
                t_slice, dt, coarsest.U, coarsest.F,
                u0=_sweep_u0(coarsest, new_u0 if s == 0 else None),
                tau=coarsest.tau, space=space, dispatch=dispatch, node=node,
            )
        if config.trace:
            yield comm.annotate(f"end:sweep:L{n_levels - 1}:k{k}")
        if rank < p_time - 1:
            yield comm.send(
                rank + 1, (tags.LVL, block, attempt, n_levels - 1, k),
                coarsest.end_value,
            )

        # ---- up the V-cycle ----
        for lev in range(n_levels - 2, -1, -1):
            if config.trace:
                yield comm.annotate(f"begin:interp:L{lev}:k{k}")
            tr = transfers[lev]
            level, coarse = levels[lev], levels[lev + 1]
            level.U = level.U + tr.interpolate_nodes(
                coarse.U - coarse.U_at_restriction
            )
            if config.reeval_after_interp:
                level.F = yield from _evaluate_all(level, t_slice, dt, space, dispatch, node)
            else:
                # correct F by the interpolated increment of the
                # coarse evaluations since restriction
                level.F = level.F + tr.interpolate_nodes(
                    coarse.F - coarse.F_at_restriction
                )
            if config.trace:
                yield comm.annotate(f"end:interp:L{lev}:k{k}")
            # new initial value for this level
            if rank > 0:
                recv_u0 = yield comm.recv(
                    rank - 1, (tags.LVL, block, attempt, lev, k),
                    timeout=rt, retries=rr,
                )
                delta0 = coarse.u0 - tr.restrict_state(recv_u0)
                level.u0 = recv_u0 + tr.interpolate_state(delta0)
                level.u0_dirty = True
            else:
                level.u0 = u0_by_level[lev]
            if level.rule.node_set.includes_left:
                level.U[0] = level.u0
            # intermediate levels sweep once more on the way up
            if 0 < lev:
                pass_u0 = level.u0 if level.u0_dirty else None
                level.U, level.F = yield from level.sweeper.sweep_gen(
                    t_slice, dt, level.U, level.F,
                    u0=_sweep_u0(level, pass_u0), tau=level.tau, space=space,
                    dispatch=dispatch, node=node,
                )
                level.u0_dirty = False
            elif (config.reeval_after_interp and not level.u0_dirty
                  and level.rule.node_set.includes_left):
                # keep the literal-Algorithm-1 mode's F fully
                # consistent at node 0 as well (node 0 *is* u0 only for
                # left-including families)
                level.F[0] = yield from evaluate_rhs(
                    level.problem, space, t_slice, level.u0,
                    dispatch=dispatch,
                )

        fine = levels[0]
        res = fine.sweeper.residual(dt, fine.U, fine.F, fine.u0)
        if config.trace:
            yield comm.annotate(
                "residual", data={"k": k, "residual": float(res)}
            )
        return res

    def _protocol(gen, what):
        """Escalate a timeout on a protocol collective to a hard error.

        The collectives themselves recover dropped legs by shadow
        retransmission (``retries``); a timeout surfacing here means a
        peer rank crashed *inside* the recovery protocol or a message
        was lost beyond the retransmit budget — both unrecoverable.
        """
        try:
            result = yield from gen
        except RecvTimeout as exc:
            raise RuntimeError(
                f"PFASST recovery protocol failure in {what}: a "
                "collective leg timed out — a peer rank crashed inside "
                "the protocol or a message was lost beyond the "
                f"retransmit budget (retries={rr}); original: {exc}"
            ) from exc
        return result

    def _bump_attempt(attempt, block, failed, phase):
        if attempt + 1 > config.max_restarts:
            raise RuntimeError(
                f"PFASST recovery gave up: block {block} exceeded "
                f"max_restarts={config.max_restarts} (policy "
                f"{config.recovery!r}, last failure in {phase} phase, "
                f"failed ranks {sorted(failed)})"
            )
        return attempt + 1

    def _recovery_entry(block, attempt, phase, k, failed):
        entry = {
            "block": block, "attempt": attempt,
            "phase": phase, "k": k,
            "policy": config.recovery,
            "failed_ranks": list(failed),
        }
        if ft_grid is not None:
            # on the grid ``failed_ranks`` are world ranks; record the
            # affected time slices too
            entry["failed_time_ranks"] = list(_failed_time_ranks(failed))
        return entry

    def _failed_time_ranks(failed):
        """Time ranks touched by a failed world-rank set (grid only)."""
        return tuple(sorted({ft_grid.grid.coords(w)[0] for w in failed}))

    def _fully_dead_rows(failed):
        """Time ranks whose *entire* plane crashed (grid only)."""
        dead = []
        for t in _failed_time_ranks(failed):
            if set(ft_grid.grid.time_row(t)) <= set(failed):
                dead.append(t)
        return tuple(dead)

    def _row_resync(block, attempt, failed):
        """Bitwise-resync this rank's time-slice plane after a warm restart.

        Plane members (the ``p_space * p_nodes`` ranks of one time
        slice) abort an interrupted iteration at different receive
        boundaries, so even planes with no crashed member can have
        diverged from each other mid-V-cycle; every plane therefore
        adopts the level state of its lowest non-crashed member over
        ``ft_grid.plane``.  A plane with *no* surviving member resets
        instead — it is rebuilt from a column donor by ``_warm_rebuild``.
        """
        row = ft_grid.grid.time_row(ft_grid.t_idx)
        alive_s = [i for i, w in enumerate(row) if w not in failed]
        if not alive_s:
            for lv in levels:
                lv.reset()
            return
        root = alive_s[0]
        blob = snapshot_levels(levels) if ft_grid.row_pos == root else None
        blob = yield from _protocol(bcast(
            ft_grid.plane, blob, root=root,
            tag=(tags.FTROW, block, attempt), timeout=rt, retries=rr,
        ), "row-resync broadcast")
        if ft_grid.row_pos != root:
            adopt_levels(levels, blob)

    def _survivors(failed, size):
        alive = [r for r in range(size) if r not in failed]
        if not alive:
            raise RuntimeError(
                f"PFASST recovery impossible: all {size} ranks failed "
                "simultaneously"
            )
        return alive

    def _refetch_u_block(failed, block, attempt):
        """Replacement ranks re-fetch the block initial value.

        Every rank participates (it is a broadcast from the lowest
        surviving rank of the detection comm — the world comm on the
        grid), which doubles as the barrier that keeps the recovery
        lock-step.
        """
        root = _survivors(failed, detect.size)[0]
        return (
            yield from bcast(
                detect, u_block, root=root, tag=(tags.FTUB, block, attempt),
                timeout=rt, retries=rr,
            )
        )

    def _warm_rebuild(failed, block, attempt, t_slice, u_blk, u0_by_level):
        """Warm restart: rebuild failed ranks from a coarse hand-off.

        The nearest *surviving* left neighbour donates its coarse-level
        slice end value — for a single crash that is exactly the failed
        slice's initial condition; with neighbouring crashes it is an
        earlier-time approximation, still a usable predictor seed.  The
        replacement interpolates it to the fine level, re-restricts,
        spread-initialises the coarsest level and runs predictor-quality
        coarse sweeps before rejoining the V-cycle.  Survivors keep all
        their state.  Returns the (possibly rebuilt) ``u0_by_level``.
        """
        alive = _survivors(failed, p_time)
        if rank not in failed:
            for f in failed:
                donors = [r for r in alive if r < f]
                if donors and rank == donors[-1]:
                    yield comm.send(
                        f, (tags.FTWARM, block, attempt, f), coarsest.end_value
                    )
            return u0_by_level
        # --- this rank is the replacement: rebuild from scratch ---
        donors = [r for r in alive if r < rank]
        if donors:
            v = yield comm.recv(
                donors[-1], (tags.FTWARM, block, attempt, rank),
                timeout=rt, retries=rr,
            )
            for tr in reversed(transfers):
                v = tr.interpolate_state(v)
            u0_new = v
        else:
            # no live rank to the left: this is the block's first slice,
            # whose initial condition is the (re-fetched) block value
            u0_new = u_blk.copy()
        for lv in levels:
            lv.reset()
        u0s = [u0_new]
        for tr in transfers:
            u0s.append(tr.restrict_state(u0s[-1]))
        coarsest.u0 = u0s[-1]
        coarsest.U, coarsest.F = yield from coarsest.sweeper.initialize_gen(
            t_slice, dt, coarsest.u0, "spread", space=space, dispatch=dispatch,
            node=node,
        )
        if config.trace:
            yield comm.annotate("begin:warm-rebuild")
        for s in range(coarsest.spec.sweeps):
            coarsest.U, coarsest.F = yield from coarsest.sweeper.sweep_gen(
                t_slice, dt, coarsest.U, coarsest.F,
                u0=_sweep_u0(coarsest, coarsest.u0 if s == 0 else None),
                space=space, dispatch=dispatch, node=node,
            )
        if config.trace:
            yield comm.annotate("end:warm-rebuild")
        yield from _interpolate_up(t_slice)
        # rank 0 consumes u0_by_level every iteration; its rebuilt chain
        # descends from u_blk, which is exactly what it must be
        return u0s if rank == 0 else u0_by_level

    # ---- resume from a durable checkpoint ------------------------------
    start_block = 0
    if resume is not None:
        start_block = resume.block
        iterations_done = [int(x) for x in resume.iterations_done]
        total_iterations = [int(x) for x in resume.total_iterations]
        recoveries = [dict(r) for r in resume.recoveries]
        u_block = np.array(resume.u_block, dtype=np.float64, copy=True)

    # ---- main block loop ----------------------------------------------
    for block in range(start_block, n_blocks):
        t_slice = config.t0 + (block * p_time + rank) * dt
        attempt = 0
        iters_attempted = 0
        residuals: List[float] = []
        k_done = 0
        k = 0
        need_predictor = True
        u0_by_level: List[np.ndarray] = []

        if resume is not None and block == resume.block:
            # adopt the checkpointed iteration-end state bitwise and
            # skip the predictor: the continuation executes exactly the
            # ops the uninterrupted run would have from iteration k+1 on
            attempt = resume.attempt
            iters_attempted = resume.iters_attempted
            residuals = [float(x) for x in resume.residuals[rank]]
            k_done = resume.k + 1
            k = k_done
            need_predictor = False
            adopt_levels(levels, resume.levels[rank])
            u0_by_level = [u_block]
            for tr in transfers:
                u0_by_level.append(tr.restrict_state(u0_by_level[-1]))

        while True:  # re-entered on cold restarts
            if need_predictor:
                # restrict the block initial value through the hierarchy
                u0_by_level = [u_block]
                for tr in transfers:
                    u0_by_level.append(tr.restrict_state(u0_by_level[-1]))

                my_crash = False
                timeout_exc: Optional[RecvTimeout] = None
                try:
                    yield from _predictor(block, attempt, t_slice, u0_by_level)
                except RankFailure:
                    if not ft:
                        raise
                    my_crash = True
                except RecvTimeout as exc:
                    if not ft:
                        raise
                    timeout_exc = exc

                if ft:
                    failed = yield from _protocol(allreduce(
                        detect, (me,) if my_crash else (),
                        op=_merge_ranks, tag=(tags.FTPRED, block, attempt),
                        timeout=ct, retries=rr,
                    ), "predictor status allreduce")
                    if failed:
                        # a predictor-phase loss voids the staircase for
                        # everyone downstream: both policies redo the block
                        attempt = _bump_attempt(
                            attempt, block, failed, "predictor"
                        )
                        if ft_grid is not None:
                            # orphan in-flight space/node-ring traffic
                            # from the aborted attempt
                            ft_grid.bump()
                        recoveries.append(_recovery_entry(
                            block, attempt, "predictor", None, failed
                        ))
                        u_block = yield from _refetch_u_block(
                            failed, block, attempt
                        )
                        if me in failed:
                            for lv in levels:
                                lv.reset()
                        continue
                    if timeout_exc is not None:
                        raise RuntimeError(
                            "PFASST recovery protocol hole: a receive "
                            "timed out but the status allreduce reports "
                            "no failed rank — a message was lost past its "
                            f"retransmit budget (retries={rr}); original "
                            f"timeout: {timeout_exc}"
                        )
                need_predictor = False
                residuals = []
                k_done = 0
                k = 0

            # -------------------- PFASST iterations --------------------
            finished_block = True
            while k < config.iterations:
                iters_attempted += 1
                my_crash = False
                timeout_exc = None
                res: Optional[float] = None
                try:
                    res = yield from _iteration(
                        block, attempt, k, t_slice, u0_by_level
                    )
                except RankFailure:
                    if not ft:
                        raise
                    my_crash = True
                except RecvTimeout as exc:
                    if not ft:
                        raise
                    timeout_exc = exc

                if ft:
                    status = (
                        (me,) if my_crash else (),
                        float("inf") if res is None else res,
                    )
                    failed, worst = yield from _protocol(allreduce(
                        detect, status,
                        op=_merge_status, tag=(tags.FTSYNC, block, attempt, k),
                        timeout=ct, retries=rr,
                    ), "iteration status allreduce")
                    if failed:
                        attempt = _bump_attempt(
                            attempt, block, failed, "iteration"
                        )
                        if ft_grid is not None:
                            # orphan in-flight space/node-ring traffic
                            # from the aborted attempt
                            ft_grid.bump()
                        recoveries.append(_recovery_entry(
                            block, attempt, "iteration", k, failed
                        ))
                        u_block = yield from _refetch_u_block(
                            failed, block, attempt
                        )
                        if config.recovery == "cold-restart":
                            if me in failed:
                                for lv in levels:
                                    lv.reset()
                            need_predictor = True
                            finished_block = False
                            break  # back out to redo the whole block
                        # warm restart: rebuild the lost ranks in place,
                        # then redo iteration k under the new attempt.
                        # On the grid, first bitwise-resync every
                        # time-slice plane (members abort at different
                        # points), then rebuild only planes that lost
                        # *all* members — partially-crashed planes
                        # recover via the resync
                        if ft_grid is not None:
                            yield from _row_resync(block, attempt, failed)
                            failed_t = _fully_dead_rows(failed)
                        else:
                            failed_t = tuple(failed)
                        if failed_t:
                            u0_by_level = yield from _warm_rebuild(
                                failed_t, block, attempt, t_slice, u_block,
                                u0_by_level,
                            )
                        continue
                    if timeout_exc is not None:
                        raise RuntimeError(
                            "PFASST recovery protocol hole: a receive "
                            "timed out but the status allreduce reports "
                            "no failed rank — a message was lost past its "
                            f"retransmit budget (retries={rr}); original "
                            f"timeout: {timeout_exc}"
                        )

                residuals.append(res)
                k_done = k + 1
                if config.residual_tol is not None:
                    if not ft:
                        # the ftsync allreduce already carried the
                        # residual when recovery is on
                        worst = yield from _protocol(allreduce(
                            comm, residuals[-1], op=max,
                            tag=(tags.RTOL, block, attempt, k),
                            timeout=ct, retries=rr,
                        ), "residual allreduce")
                    if worst <= config.residual_tol:
                        break
                if checkpointer is not None and checkpointer.wants(k):
                    # plain in-process call — no ops, no clock movement:
                    # attaching a checkpointer keeps the run byte-identical
                    checkpointer.contribute(rank, block, k, attempt, {
                        "u_block": np.array(u_block, copy=True),
                        "levels": snapshot_levels(levels),
                        "residuals": list(residuals),
                        "iterations_done": list(iterations_done),
                        "total_iterations": list(total_iterations),
                        "recoveries": [dict(r) for r in recoveries],
                        "iters_attempted": iters_attempted,
                    })
                k += 1

            if finished_block:
                break

        iterations_done.append(k_done)
        total_iterations.append(iters_attempted)
        residual_history = [residuals]  # keep the last block's history

        # chain blocks: broadcast the final slice's end value
        u_block = yield from _protocol(bcast(
            comm, levels[0].end_value, root=p_time - 1,
            tag=(tags.BLOCKEND, block, attempt),
            timeout=ct, retries=rr,
        ), "block-end broadcast")

    return {
        "rank": rank,
        "end_value": levels[0].end_value,
        "block_end": u_block,
        "residuals": residual_history[0] if residual_history else [],
        "iterations_done": iterations_done,
        "total_iterations": total_iterations,
        "recoveries": recoveries,
    }


def _evaluate_all(
    level: Level, t_slice: float, dt: float,
    space: Optional[VirtualComm] = None,
    dispatch: Optional[DispatchContext] = None,
    node: Optional[VirtualComm] = None,
) -> Generator[Any, Any, np.ndarray]:
    """Evaluate the level's RHS at every collocation node (generator).

    With a live ``node`` comm the nodes shard over its ranks and ``F``
    is reassembled by allgather; without one this is the historical
    plain loop with an identical op stream.
    """
    times = level.sweeper.node_times(t_slice, dt)
    return (yield from evaluate_node_values(
        level.problem, times, level.U, space=space, node=node,
        dispatch=dispatch,
    ))


def _grid_rank_program(
    comm: VirtualComm,
    config: PfasstConfig,
    specs: Sequence[LevelSpec],
    u0: np.ndarray,
    spatial: Optional[Sequence[SpatialTransfer]],
    grid: SpaceTimeGrid,
    dispatch: Optional[DispatchContext] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    resume: Optional[RunCheckpoint] = None,
) -> Generator[Any, Any, Dict[str, Any]]:
    """Rank program for the P_T x P_S x P_N grid (paper Fig. 2, PFASST-ER).

    Splits the world into this rank's space row (vary ``s``), time
    column (vary ``t``) and node group (vary ``n``), then runs
    :func:`pfasst_rank_program` over the time comm with the space comm
    sharding tree evaluations and the node comm sharding collocation
    nodes across multi-node evaluation rounds.  A dimension of extent 1
    gets no comm and costs no message: its split and its digest check
    are skipped, and at ``p_space = p_nodes = 1`` the time comm is the
    world itself, so the op stream is that of the bare time-parallel
    controller.  All members of a time slice drive identical time logic
    over identical full states, so after the run the end values are
    cross-checked bitwise across the space row and the node group.

    With a recovery policy active the live space and node comms are
    wrapped in :class:`~repro.parallel.simmpi.EpochComm` (restart-safe
    collectives: default timeouts on every receive, epoch-tagged
    messages that restarts orphan) and a :class:`_GridRecovery` context
    moves failure detection to the world communicator.  The resync
    *plane* — all ``p_space * p_nodes`` ranks of this time slice — is
    whichever of space/node is live, or a fourth split when both are.
    Only the ``(s, n) = (0, 0)`` member of each slice contributes to a
    checkpointer: plane state is replicated bitwise.
    """
    t_idx, s_idx, n_idx = grid.coords(comm.rank)
    p_space, p_nodes = grid.p_space, grid.p_nodes
    space: Optional[VirtualComm] = None
    node: Optional[VirtualComm] = None
    tcomm = comm
    # split order space -> time -> node keeps the comm ids stable
    if p_space > 1:
        space = yield from comm.split(color=t_idx * p_nodes + n_idx, key=s_idx)
    if p_space * p_nodes > 1:
        tcomm = yield from comm.split(color=s_idx * p_nodes + n_idx, key=t_idx)
    if p_nodes > 1:
        node = yield from comm.split(color=t_idx * p_space + s_idx, key=n_idx)
    ft_grid = None
    if config.recovery != "fail" and p_space * p_nodes > 1:

        def epoch(c):
            return EpochComm(c, timeout=config.recovery_timeout,
                             retries=config.recovery_retries)

        live = []
        if space is not None:
            space = epoch(space)
            live.append(space)
        if node is not None:
            node = epoch(node)
            live.append(node)
        if len(live) == 2:
            plane = yield from comm.split(
                color=t_idx, key=s_idx * p_nodes + n_idx
            )
            live.insert(0, epoch(plane))
        ft_grid = _GridRecovery(
            world=comm, grid=grid, plane=live[0], t_idx=t_idx,
            row_pos=s_idx * p_nodes + n_idx, epoch_comms=tuple(live[1:]),
        )
    result = yield from pfasst_rank_program(
        tcomm, config, specs, u0, spatial, space=space, dispatch=dispatch,
        ft_grid=ft_grid,
        checkpointer=checkpointer if (s_idx, n_idx) == (0, 0) else None,
        resume=resume, node=node,
    )
    # every member of a time slice drives identical time logic over
    # identical full states, so end values must agree *bitwise* — any
    # divergence means a space/node collective leaked rank-dependent data
    digest = hashlib.blake2b(
        np.ascontiguousarray(result["end_value"]).tobytes(), digest_size=16
    ).hexdigest()
    if space is not None:
        digests = yield from allgather(space, digest, tag=tags.SPACE_DIGEST)
        if len(set(digests)) != 1:
            raise RuntimeError(
                f"space row (t={t_idx}, n={n_idx}) diverged across its "
                f"{space.size} ranks: end-value digests {digests}"
            )
    if node is not None:
        ndigests = yield from allgather(node, digest, tag=tags.NODE_DIGEST)
        if len(set(ndigests)) != 1:
            raise RuntimeError(
                f"node group (t={t_idx}, s={s_idx}) diverged across its "
                f"{node.size} ranks: end-value digests {ndigests}"
            )
    result["space_rank"] = s_idx
    result["node_rank"] = n_idx
    return result


def _run_config_digest(
    config: PfasstConfig, p_time: int, p_space: int, p_nodes: int = 1
) -> str:
    """Stable digest binding a checkpoint to its run configuration.

    A checkpoint resumed under a different config, ``p_time``,
    ``p_space`` or ``p_nodes`` cannot reproduce the uninterrupted run
    bitwise, so ``run_pfasst(resume_from=...)`` rejects digest
    mismatches.  ``p_nodes = 1`` keeps the historical digest input so
    pre-existing checkpoints stay resumable.
    """
    key: Tuple[Any, ...] = (config, p_time, p_space)
    if p_nodes != 1:
        key = key + (p_nodes,)
    return hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8
    ).hexdigest()


def _collect_evaluator_stats(
    specs: Sequence[LevelSpec],
) -> List[Dict[str, int]]:
    """RHS-call counts and tree-cache counters per level spec.

    Note that ``run_pfasst`` instantiates one :class:`Level` hierarchy per
    rank program around the *shared* spec problems, so the counters
    aggregate over all ranks — which is exactly the total-work view the
    benchmarks need.
    """
    out: List[Dict[str, int]] = []
    for spec in specs:
        entry: Dict[str, int] = {}
        evaluator = getattr(spec.problem, "evaluator", None)
        if evaluator is not None:
            entry["calls"] = int(getattr(evaluator, "calls", 0))
            cache_stats = getattr(evaluator, "cache_stats", None)
            if cache_stats is not None:
                entry.update(cache_stats.as_dict())
        out.append(entry)
    return out


def run_pfasst(
    config: PfasstConfig,
    specs: Sequence[LevelSpec],
    u0: np.ndarray,
    p_time: int,
    cost_model: Optional[CommCostModel] = None,
    measure_compute: bool = False,
    spatial: Optional[Sequence[SpatialTransfer]] = None,
    verify: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    service_order: str = "ascending",
    tracer: Optional[Tracer] = None,
    p_space: int = 1,
    p_nodes: int = 1,
    executor: Optional[ExecutionBackend] = None,
    certify: bool = False,
    checkpoint: Optional[Any] = None,
    checkpoint_interval: int = 1,
    resume_from: Optional[Any] = None,
) -> PfasstResult:
    """Execute PFASST with ``p_time`` simulated time ranks.

    ``specs`` orders the level hierarchy fine-to-coarse (one
    :class:`LevelSpec` per level) and ``u0`` is the packed initial
    state at ``config.t0``.  ``cost_model`` prices message traffic for
    the virtual clocks (:class:`~repro.parallel.simmpi.CommCostModel`;
    default free communication), ``spatial`` supplies per-level-pair
    :class:`~repro.pfasst.transfer.SpatialTransfer` operators when the
    levels differ in space, and ``service_order``
    (``"ascending"``/``"descending"``) picks the scheduler's rank
    service order — numerics are service-order independent, which is
    exactly what ``verify=True`` checks.

    Every run executes on one
    :class:`~repro.parallel.topology.SpaceTimeGrid` of ``p_time *
    p_space * p_nodes`` scheduler ranks (paper Fig. 2 plus PFASST-ER's
    node axis).  A dimension of extent 1 is free: it is neither split
    nor cross-checked, so ``p_space = p_nodes = 1`` is the plain
    time-parallel controller, op for op.

    ``p_space > 1`` shards every RHS evaluation over the space row
    (requires problems whose evaluator is a
    :class:`repro.tree.parallel.SpaceParallelTreeEvaluator`; other
    problems silently fall back to redundant serial evaluation).  The
    numerics are identical to ``p_space=1`` up to floating-point
    accumulation order, and the run cross-checks that all space columns
    agree bitwise with each other.

    ``p_nodes > 1`` shards every multi-node RHS evaluation round over
    the ``p_nodes`` ranks of each time-space cell (ring allgather over
    the node comm).  Under the default Gauss-Seidel sweeper only the
    controller's restriction/interpolation re-evaluations are multi-node
    rounds (the sweep substitution chain stays sequential) and the run
    is *bitwise identical* to ``p_nodes = 1``; sweep-level node
    parallelism needs levels built with ``LevelSpec(sweeper="diagonal")``,
    whose Jacobi-style updates agree with ``p_nodes = 1`` bitwise as
    well (node sharding never changes what is computed, only where).
    The run cross-checks bitwise agreement across each node group.

    Fault injection composes with the grid: with ``config.recovery !=
    "fail"`` and more than one rank per time slice, failure detection
    runs over the whole world, warm restarts bitwise-resync every
    time-slice plane from its lowest surviving member (planes that lost
    *all* members are rebuilt from a column donor), and all space and
    node traffic is epoch-tagged so a restart orphans stale ring
    messages.

    ``checkpoint=`` (a path) writes a durable, versioned
    :class:`~repro.pfasst.checkpoint.RunCheckpoint` every
    ``checkpoint_interval`` iterations — atomic temp-file + fsync +
    rename, CRC-protected; each write replaces the previous checkpoint.
    ``resume_from=`` (a path or a loaded ``RunCheckpoint``) restarts a
    killed run from its last checkpoint: the resumed run adopts the
    level state bitwise, skips the completed blocks and iterations, and
    reaches final u-blocks and residuals identical to an uninterrupted
    run.  Resuming under a different config/``p_time``/``p_space``/
    ``p_nodes`` is rejected (digest mismatch).

    Set ``measure_compute=True`` (and a cost model) for speedup studies;
    leave it off for pure accuracy experiments, where virtual time is
    irrelevant and scheduling overhead should be minimal.
    ``verify=True`` re-runs the whole block pipeline under the reversed
    rank-service order and requires byte-identical results (the
    scheduler's race-detector replay; roughly doubles the run time —
    fault injection is replay-stable, so this composes with a plan).
    ``fault_plan`` injects crashes / link faults
    (:mod:`repro.parallel.faults`); pair it with
    ``config.recovery != "fail"`` for the run to survive them.
    ``tracer`` attaches a :class:`repro.obs.Tracer` to the scheduler;
    combined with ``config.trace=True`` the recording carries one
    virtual-time span per predictor step / sweep / restrict / interp
    (with per-iteration residual instants) per rank — export it with
    :func:`repro.obs.export_chrome_trace` or render it with
    ``repro-trace gantt`` to reproduce the paper's Fig. 6.

    ``executor`` selects the *execution backend*
    (:mod:`repro.parallel.executor`): every level problem is registered
    under a ``DispatchContext`` and RHS evaluations become scheduler
    ``Compute`` ops.  With a
    :class:`~repro.parallel.executor.ProcessExecutor` the independent
    evaluations of one scheduling round run concurrently on real cores;
    the numerics, message stream and (``measure_compute=False``) virtual
    clocks are byte-identical to :class:`~repro.parallel.executor.
    SerialExecutor` and to ``executor=None``.  One caveat:
    ``evaluator_stats`` counts RHS calls in the *driver* process, so
    under a process backend the dispatched calls land in the workers and
    the driver-side counters read near zero — use the scheduler metrics
    (``executor.dispatches{...}``) for call accounting instead.

    ``certify=True`` turns on the scheduler's vector-clock instrumentation
    (:mod:`repro.analysis.commgraph`): every message carries the sender's
    clock, deliveries build a happens-before DAG, and the run's
    :class:`~repro.analysis.commgraph.DeterminismCertificate` (digest +
    channel census + any message races) lands in ``result.certificate``
    and in the ``comm.certificate`` metric.  Combined with ``verify=True``
    the replay's digest must match or the run fails.
    """
    check_positive("p_time", p_time)
    check_positive("p_space", p_space)
    check_positive("p_nodes", p_nodes)
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    if certify and resume_from is not None:
        raise NotImplementedError(
            "certify=True cannot be combined with resume_from=: a "
            "determinism certificate's channel census covers a whole "
            "run, but a resumed run executes only the tail — certify "
            "the uninterrupted run instead"
        )
    grid = SpaceTimeGrid(p_time, p_space, p_nodes)
    scheduler = Scheduler(
        grid.world_size, cost_model=cost_model,
        measure_compute=measure_compute,
        verify=verify, fault_plan=fault_plan, service_order=service_order,
        tracer=tracer, executor=executor, certify=certify,
    )
    dispatch: Optional[DispatchContext] = None
    if executor is not None:
        dispatch = DispatchContext(executor)
        for i, spec in enumerate(specs):
            dispatch.register(f"level{i}", spec.problem)
    run_digest = _run_config_digest(config, p_time, p_space, p_nodes)
    checkpointer: Optional[RunCheckpointer] = None
    if checkpoint is not None:
        checkpointer = RunCheckpointer(
            checkpoint, p_time, interval=checkpoint_interval,
            config_digest=run_digest,
            metrics_source=lambda: scheduler.metrics.as_dict(),
        )
    resume: Optional[RunCheckpoint] = None
    if resume_from is not None:
        resume = (resume_from if isinstance(resume_from, RunCheckpoint)
                  else RunCheckpoint.load(resume_from))
        if resume.p_time != p_time:
            raise ValueError(
                f"checkpoint was written by a p_time={resume.p_time} run; "
                f"cannot resume it with p_time={p_time}"
            )
        if resume.config_digest and resume.config_digest != run_digest:
            raise ValueError(
                "checkpoint config digest mismatch: the checkpoint was "
                "written under a different (config, p_time, p_space, "
                "p_nodes); resume with the original run configuration"
            )
    results = scheduler.run(
        _grid_rank_program,
        args=(config, specs, np.asarray(u0), spatial, grid, dispatch,
              checkpointer, resume),
    )
    # every time slice's plane is bitwise-identical (checked inside the
    # program); report its (s, n) = (0, 0) member as the canonical one
    by_rank = sorted(
        (r for r in results if r["space_rank"] == r["node_rank"] == 0),
        key=lambda r: r["rank"],
    )
    return PfasstResult(
        u_end=by_rank[-1]["end_value"],
        slice_end_values=[r["end_value"] for r in by_rank],
        residuals=[r["residuals"] for r in by_rank],
        clocks=list(scheduler.clocks),
        iterations_done=by_rank[0]["iterations_done"],
        trace=list(scheduler.trace),
        evaluator_stats=_collect_evaluator_stats(specs),
        total_iterations=by_rank[0]["total_iterations"],
        recoveries=by_rank[0]["recoveries"],
        resilience=scheduler.resilience,
        metrics=scheduler.metrics.as_dict(),
        certificate=scheduler.certificate,
    )
