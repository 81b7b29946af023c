"""Diagonal (Jacobi-style) SDC sweeps — PFASST-ER's third parallel axis.

The Gauss-Seidel sweep of :mod:`repro.sdc.sweeper` substitutes node by
node: node ``m+1``'s update consumes node ``m``'s *new* value, so the M
evaluations of one sweep are inherently sequential.  PFASST-ER (Schöbel
& Speck; see PAPERS.md) replaces the lower-triangular substitution with
a **diagonal** preconditioner ``Q_delta = diag(d)``:

    u^{k+1}_m - dt d_m f(t_m, u^{k+1}_m)
        = u0 + dt ((Q - Q_delta) F^k)_m + Tau_m

Each node's equation involves only that node's unknown, so all nodes of
a sweep update **independently** — the collocation nodes become a third
process dimension next to time and space.  Executed under a node
sub-comm (``p_nodes`` ranks per time-space cell), each node rank
evaluates only its own slice of the node axis and the full ``F`` block
is reassembled with an allgather (:func:`repro.sdc.sweeper.
evaluate_node_values`).

For the explicit N-body right-hand sides of this repository the
per-node implicit relation is resolved by fixed-point (Picard)
iteration on the node equation, starting from the plain Picard value
``u0 + dt (Q F^k)_m + Tau_m``:

* ``inner_iterations = 0`` — the plain Picard/spectral iteration
  (``d`` drops out): one RHS evaluation per node per sweep, the same
  wall cost per sweep as Gauss-Seidel but fully node-parallel.
* ``inner_iterations = j >= 1`` — ``j`` extra evaluation rounds apply
  the diagonal correction; with the default ``"min"`` coefficients
  (``d_m = tau_m / M``, which make ``Q - Q_delta`` nilpotent) one inner
  iteration already recovers Gauss-Seidel-like convergence per sweep.

Cost trade-off vs Gauss-Seidel: one diagonal sweep makes
``inner_iterations + 1`` evaluation *rounds*, each round node-parallel
over ``min(p_nodes, M+1)`` ranks, against ``M + 1`` strictly sequential
evaluations for Gauss-Seidel.  With full node parallelism the per-sweep
critical path drops from ``M + 1`` to ``inner_iterations + 1``
evaluations.

The fixed point is the collocation solution — identical to the
Gauss-Seidel sweeper's — so PFASST's FAS machinery, residual monitor
and transfer operators apply unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sdc.quadrature import QuadratureRule, diagonal_coefficients
from repro.sdc.sweeper import ExplicitSDCSweeper, evaluate_node_values
from repro.vortex.problem import ODEProblem

__all__ = ["DiagonalSDCSweeper"]


class DiagonalSDCSweeper(ExplicitSDCSweeper):
    """SDC sweeper with mutually independent node updates.

    Parameters
    ----------
    problem, rule :
        As for :class:`~repro.sdc.sweeper.ExplicitSDCSweeper`.
    coefficients :
        Diagonal preconditioner choice — ``"ie"``, ``"min"`` (default),
        ``"picard"`` or an explicit array (see
        :func:`repro.sdc.quadrature.diagonal_coefficients`).
    inner_iterations :
        Fixed-point iterations resolving the per-node implicit relation
        (each costs one node-parallel evaluation round); ``0`` reduces
        the sweep to the plain Picard iteration.
    """

    def __init__(
        self,
        problem: ODEProblem,
        rule: QuadratureRule,
        coefficients="min",
        inner_iterations: int = 1,
    ) -> None:
        super().__init__(problem, rule)
        if inner_iterations < 0:
            raise ValueError(
                f"inner_iterations must be >= 0, got {inner_iterations}"
            )
        self.d = diagonal_coefficients(rule, coefficients)
        self.coefficients = (
            coefficients if isinstance(coefficients, str) else "custom"
        )
        self.inner_iterations = int(inner_iterations)

    @property
    def needs_u0(self) -> bool:
        """The Q-form update starts every node from ``u0`` directly."""
        return True

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
        """One Jacobi-style sweep; node-parallel over ``node`` when live.

        All node updates read only the previous iterate ``(U, F)`` and
        ``u0``, so the evaluation rounds shard over the node comm and
        every node rank returns the same ``(U_new, F_new)`` bitwise.
        """
        m1 = self.num_nodes
        times = self.node_times(t0, dt)
        if u0 is None:
            if self.rule.node_set.includes_left:
                u0 = U[0]
            else:
                raise ValueError(
                    f"{self.rule.node_set.node_type!r} nodes do not "
                    "include the left endpoint, so node 0 is a genuine "
                    "collocation unknown: every sweep needs the step "
                    "initial value u0"
                )
        base = u0 + dt * self.rule.integrate_from_start(F)
        if tau is not None:
            base = base + np.cumsum(tau, axis=0)
        # Picard predictor == first fixed-point iterate started from
        # the previous sweep's values (d_m F^k_m cancels exactly)
        U_new = base.copy()
        if self.inner_iterations > 0 and self.d.any():
            d_eff = (dt * self.d).reshape((m1,) + (1,) * (U.ndim - 1))
            b = base - d_eff * F
            for _ in range(self.inner_iterations):
                F_star = yield from evaluate_node_values(
                    self.problem, times, U_new,
                    space=space, node=node, dispatch=dispatch,
                )
                U_new = b + d_eff * F_star
        F_new = yield from evaluate_node_values(
            self.problem, times, U_new,
            space=space, node=node, dispatch=dispatch,
        )
        return U_new, F_new
