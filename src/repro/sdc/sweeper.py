"""Explicit SDC sweeps (paper Eq. 13) with optional FAS corrections.

State layout: node-value arrays ``U`` and ``F`` have shape
``(M+1, *state_shape)`` where ``M+1`` is the number of collocation nodes.
FAS corrections ``tau`` use the *node-to-node* convention matching the
``S`` matrix: ``tau[m]`` corrects the integral over ``[tau_{m-1}, tau_m]``
and ``tau[0]`` corrects ``[0, tau_0]`` (zero whenever the family includes
the left endpoint); cumulative form is ``tau.cumsum(axis=0)``.

One sweep applies the first-order (forward-Euler type) corrector

    U^{k+1}_{m+1} = U^{k+1}_m
                    + dt_m [ f(t_m, U^{k+1}_m) - f(t_m, U^k_m) ]
                    + dt (S F^k)_{m+1} + tau_{m+1}

and each sweep raises the formal order by one, up to the order of the
underlying quadrature.

Node families whose first node sits *inside* the step (``radau-right``,
``legendre``: ``tau_0 > 0``) are supported too: node 0 is then a genuine
collocation unknown, updated from the step initial value ``u0`` with row
0 of ``S`` (which integrates the interpolant over ``[0, tau_0]``), and
the residual monitor includes it.  Such sweeps need ``u0`` on *every*
call — there is no left-endpoint node to carry it implicitly.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import boundary
from repro.parallel import tags
from repro.parallel.collectives import allgather
from repro.parallel.executor import Compute, ComputeTask
from repro.sdc.quadrature import QuadratureRule
from repro.vortex.problem import ODEProblem

__all__ = [
    "ExplicitSDCSweeper",
    "evaluate_rhs",
    "evaluate_node_values",
    "node_slice",
]

InitStrategy = Literal["spread", "euler"]


def evaluate_rhs(problem: ODEProblem, space, t: float, u: np.ndarray,
                 dispatch=None):
    """RHS evaluation generator, space-parallel when ``space`` is live.

    With a space communicator of size > 1 and a problem exposing
    ``rhs_program`` the evaluation is driven collectively via
    ``yield from``; otherwise it is a plain ``problem.rhs`` call with
    *zero* yields, so serial op streams are byte-identical to the direct
    call.  All sweeper/controller RHS sites route through here.

    ``dispatch`` (a :class:`repro.parallel.executor.DispatchContext`)
    turns the evaluation into the scheduler's dispatch unit: when the
    problem is registered with the execution backend, the call is yielded
    as a :class:`~repro.parallel.executor.Compute` operation — on a
    process backend, independent RHS evaluations across time ranks then
    run concurrently on real cores.  Without a dispatch context (or for
    unregistered problems) behaviour is unchanged.
    """
    program = getattr(problem, "rhs_program", None)
    if space is not None and space.size > 1 and program is not None:
        result = yield from program(space, t, u, dispatch=dispatch)
        return result
    if dispatch is not None:
        key = dispatch.key_of(problem)
        if key is not None:
            result = yield Compute(
                ComputeTask(key, "rhs", args=(t,), arrays=(u,))
            )
            return result
    return problem.rhs(t, u)


def node_slice(n_nodes: int, parts: int, index: int) -> Tuple[int, int]:
    """Contiguous balanced slice ``[lo, hi)`` of ``n_nodes`` for one rank.

    Remainder nodes go to the lowest ranks; ranks beyond ``n_nodes`` get
    an empty slice (a node comm may be wider than a coarse level's node
    count).
    """
    base, extra = divmod(n_nodes, parts)
    lo = index * base + min(index, extra)
    return lo, lo + base + (1 if index < extra else 0)


def evaluate_node_values(problem: ODEProblem, times, values,
                         space=None, node=None, dispatch=None):
    """Evaluate the RHS at a set of collocation nodes, sharded over ``node``.

    The PFASST-ER node comm (``node``, one rank per slice of the node
    axis): each node rank evaluates only its own contiguous slice of the
    ``(t, u)`` pairs — space-parallel and/or dispatched per
    :func:`evaluate_rhs` — and the full ``F`` block is reassembled with a
    ring allgather over the node comm.  Every node rank returns the same
    array *bitwise*: each entry is computed on exactly one rank and
    shared, which is what keeps ``p_nodes > 1`` runs bit-comparable to
    ``p_nodes = 1``.

    With ``node`` absent (or of size 1) the loop runs inline with zero
    extra yields, so existing op streams are unchanged.
    """
    m1 = len(times)
    if node is None or node.size <= 1:
        out = []
        for m in range(m1):
            out.append((yield from evaluate_rhs(
                problem, space, times[m], values[m], dispatch=dispatch
            )))
        return np.stack(out, axis=0)
    lo, hi = node_slice(m1, node.size, node.rank)
    mine = []
    for m in range(lo, hi):
        mine.append((yield from evaluate_rhs(
            problem, space, times[m], values[m], dispatch=dispatch
        )))
    yield node.annotate("begin:node:rhs-allgather")
    nbytes = int(sum(np.asarray(f).nbytes for f in mine))
    node.metrics.counter("node.rhs_bytes").inc(nbytes)
    node.metrics.counter("node.rhs_bytes", rank=node.world_rank).inc(nbytes)
    parts = yield from allgather(node, mine, tag=tags.NODE_F)
    yield node.annotate("end:node:rhs-allgather")
    flat = [f for part in parts for f in part]
    return np.stack(flat, axis=0)


def _drain(gen):
    """Run a generator expected to perform zero yields; return its value."""
    try:
        op = next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(
        f"synchronous sweep drove a communicating generator (yielded "
        f"{op!r}); space-parallel evaluation requires the generator API"
    )


class ExplicitSDCSweeper:
    """Sweeps the explicit SDC corrector over one time step.

    The sweeper is stateless with respect to the solution: callers own the
    node arrays and thread them through :meth:`initialize` / :meth:`sweep`;
    this makes the PFASST controller's bookkeeping explicit and testable.
    """

    def __init__(self, problem: ODEProblem, rule: QuadratureRule) -> None:
        self.problem = problem
        self.rule = rule

    @property
    def num_nodes(self) -> int:
        return self.rule.num_nodes

    @property
    def needs_u0(self) -> bool:
        """True when every sweep must be handed the step initial value.

        Families without the left endpoint (``radau-right``,
        ``legendre``) have no node carrying ``u0`` implicitly, so node
        0's SDC update needs it explicitly on each call.
        """
        return not self.rule.node_set.includes_left

    def node_times(self, t0: float, dt: float) -> np.ndarray:
        """Physical times of the collocation nodes for step ``[t0, t0+dt]``."""
        return t0 + dt * self.rule.nodes

    # ------------------------------------------------------------------
    def initialize_gen(
        self,
        t0: float,
        dt: float,
        u0: np.ndarray,
        strategy: InitStrategy = "spread",
        space=None,
        dispatch=None,
        node=None,
    ):
        """Generator form of :meth:`initialize` (RHS via :func:`evaluate_rhs`).

        ``node`` (a PFASST-ER node comm) is accepted for call-site
        uniformity; initialization is node-sequential (``spread`` makes
        one evaluation, ``euler`` marches), so it is unused here.

        Drive with ``yield from`` inside a rank program to shard the RHS
        work over ``space`` and/or dispatch it to an execution backend
        via ``dispatch``; without either it performs zero yields and
        computes exactly what :meth:`initialize` does.
        """
        m1 = self.num_nodes
        times = self.node_times(t0, dt)
        U = np.empty((m1,) + u0.shape, dtype=np.float64)
        F = np.empty_like(U)
        U[0] = u0
        F[0] = yield from evaluate_rhs(
            self.problem, space, times[0], u0, dispatch=dispatch
        )
        if strategy == "spread":
            for m in range(1, m1):
                U[m] = u0
                F[m] = F[0]
        elif strategy == "euler":
            delta = dt * self.rule.delta
            for m in range(1, m1):
                U[m] = U[m - 1] + delta[m - 1] * F[m - 1]
                F[m] = yield from evaluate_rhs(
                    self.problem, space, times[m], U[m],
                    dispatch=dispatch,
                )
        else:
            raise ValueError(f"unknown init strategy {strategy!r}")
        return U, F

    def initialize(
        self,
        t0: float,
        dt: float,
        u0: np.ndarray,
        strategy: InitStrategy = "spread",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Provisional node values ``U^0`` and their evaluations ``F^0``.

        ``spread`` copies ``u0`` to every node (one RHS evaluation);
        ``euler`` marches forward Euler through the nodes (M+1 evaluations).
        """
        return _drain(self.initialize_gen(t0, dt, u0, strategy))

    # ------------------------------------------------------------------
    def sweep_gen(
        self,
        t0: float,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: Optional[np.ndarray] = None,
        tau: Optional[np.ndarray] = None,
        space=None,
        dispatch=None,
        node=None,
    ):
        """Generator form of :meth:`sweep` (RHS via :func:`evaluate_rhs`).

        ``node`` is accepted for call-site uniformity with
        :class:`~repro.sdc.diagonal.DiagonalSDCSweeper`; the
        Gauss-Seidel substitution chain is inherently node-sequential,
        so it is unused here (node ranks compute redundantly and stay
        bitwise identical).
        """
        m1 = self.num_nodes
        times = self.node_times(t0, dt)
        delta = dt * self.rule.delta
        integral = dt * self.rule.integrate_node_to_node(F)
        if tau is not None:
            integral = integral + tau

        U_new = np.empty_like(U)
        F_new = np.empty_like(F)
        if u0 is None:
            if not self.rule.node_set.includes_left:
                raise ValueError(
                    f"{self.rule.node_set.node_type!r} nodes do not "
                    "include the left endpoint, so node 0 is a genuine "
                    "collocation unknown: every sweep needs the step "
                    "initial value u0"
                )
            U_new[0] = U[0]
            F_new[0] = F[0]
        elif self.rule.node_set.includes_left:
            U_new[0] = u0
            F_new[0] = yield from evaluate_rhs(
                self.problem, space, times[0], u0, dispatch=dispatch
            )
        else:
            # node 0 sits at tau_0 > 0: its SDC update starts from u0
            # with row 0 of S, which integrates the interpolant (plus
            # any FAS correction) over [0, tau_0]
            U_new[0] = u0 + integral[0]
            F_new[0] = yield from evaluate_rhs(
                self.problem, space, times[0], U_new[0], dispatch=dispatch
            )
        for m in range(m1 - 1):
            U_new[m + 1] = (
                U_new[m]
                + delta[m] * (F_new[m] - F[m])
                + integral[m + 1]
            )
            F_new[m + 1] = yield from evaluate_rhs(
                self.problem, space, times[m + 1], U_new[m + 1],
                dispatch=dispatch,
            )
        return U_new, F_new

    @boundary("sweep", arrays=["U", "F", "u0", "tau"])
    def sweep(
        self,
        t0: float,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: Optional[np.ndarray] = None,
        tau: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One correction sweep; returns new ``(U, F)`` (inputs untouched).

        ``u0`` overrides the step initial value (PFASST passes the
        freshly received left-boundary value here).  For left-including
        families it lands directly on node 0; when omitted, ``U[0]`` is
        kept and its evaluation ``F[0]`` is reused.  For families whose
        node 0 sits inside the step (``needs_u0``), ``u0`` is mandatory
        and node 0 gets a genuine SDC update from it.
        """
        return _drain(self.sweep_gen(t0, dt, U, F, u0=u0, tau=tau))

    # ------------------------------------------------------------------
    def residual(
        self,
        dt: float,
        U: np.ndarray,
        F: np.ndarray,
        u0: np.ndarray,
        tau: Optional[np.ndarray] = None,
    ) -> float:
        """Max-norm collocation residual ``|u0 + dt (QF)_m + Tau_m - U_m|``.

        This is the discrete analogue of the Picard equation (paper Eq. 12)
        and the convergence monitor the paper reports in Sec. IV-B.
        """
        rhs = dt * self.rule.integrate_from_start(F)
        if tau is not None:
            rhs = rhs + np.cumsum(tau, axis=0)
        res = 0.0
        # node 0 is exact by construction only when it *is* the left
        # endpoint (tau_0 = 0); for radau-right/legendre it is a
        # genuine collocation node whose residual must be monitored
        start = 1 if self.rule.node_set.includes_left else 0
        for m in range(start, self.num_nodes):
            res = max(res, self.problem.norm(u0 + rhs[m] - U[m]))
        return res

    def end_value(
        self, dt: float, U: np.ndarray, F: np.ndarray, u0: np.ndarray
    ) -> np.ndarray:
        """Solution at the right end of the step.

        For node sets containing the right endpoint this is ``U[-1]``;
        otherwise the full-interval quadrature closes the step.
        """
        if self.rule.node_set.includes_right:
            return U[-1]
        return u0 + dt * self.rule.integrate_full(F)
