"""Level specification and per-rank runtime storage for PFASST."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sdc.quadrature import QuadratureRule, make_rule
from repro.sdc.sweeper import ExplicitSDCSweeper
from repro.vortex.problem import ODEProblem

__all__ = ["LevelSpec", "Level"]


@dataclass(frozen=True)
class LevelSpec:
    """Static description of one PFASST level.

    Parameters
    ----------
    problem :
        The IVP with this level's RHS accuracy.  The paper's particle
        coarsening supplies the *same* problem with a tree evaluator using
        a larger ``theta`` on coarser levels.
    num_nodes :
        Collocation nodes at this level (paper: 3 fine / 2 coarse).
    sweeps :
        SDC sweeps performed at this level per PFASST iteration
        (``n_ell``; paper: 1 fine, Y coarse).
    node_type :
        Collocation family; coarse nodes should be (near-)nested in the
        fine ones.
    sweeper :
        ``"gauss-seidel"`` (the sequential node-to-node substitution,
        default) or ``"diagonal"`` (the PFASST-ER Jacobi-style
        :class:`~repro.sdc.diagonal.DiagonalSDCSweeper` with mutually
        independent node updates — required for sweep-level ``p_nodes``
        parallelism).
    diagonal_coefficients :
        Coefficient choice for the diagonal sweeper (``"ie"``,
        ``"min"``, ``"picard"``; see
        :func:`repro.sdc.quadrature.diagonal_coefficients`).  Ignored
        under ``"gauss-seidel"``.
    """

    problem: ODEProblem
    num_nodes: int
    sweeps: int = 1
    node_type: str = "lobatto"
    sweeper: str = "gauss-seidel"
    diagonal_coefficients: str = "min"

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need >= 2 nodes per level, got {self.num_nodes}")
        if self.sweeps < 1:
            raise ValueError(f"need >= 1 sweep per level, got {self.sweeps}")
        if self.sweeper not in ("gauss-seidel", "diagonal"):
            raise ValueError(
                f"unknown sweeper {self.sweeper!r}: "
                "expected 'gauss-seidel' or 'diagonal'"
            )


class Level:
    """Mutable per-rank storage of one level's node data."""

    def __init__(self, spec: LevelSpec) -> None:
        self.spec = spec
        self.rule: QuadratureRule = make_rule(spec.num_nodes, spec.node_type)
        if spec.sweeper == "diagonal":
            from repro.sdc.diagonal import DiagonalSDCSweeper

            self.sweeper: ExplicitSDCSweeper = DiagonalSDCSweeper(
                spec.problem, self.rule,
                coefficients=spec.diagonal_coefficients,
            )
        else:
            self.sweeper = ExplicitSDCSweeper(spec.problem, self.rule)
        self.U: Optional[np.ndarray] = None  # (M+1, *state)
        self.F: Optional[np.ndarray] = None
        self.tau: Optional[np.ndarray] = None  # node-to-node FAS
        self.u0: Optional[np.ndarray] = None  # current initial value
        #: True when u0 changed since the last sweep consumed it (the
        #: sweep then re-evaluates F at node 0, otherwise it is reused)
        self.u0_dirty: bool = True
        #: snapshots taken when this level was filled by restriction,
        #: used to form the coarse corrections U - U_snap / F - F_snap
        #: on the way up the V-cycle
        self.U_at_restriction: Optional[np.ndarray] = None
        self.F_at_restriction: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Discard all runtime state, as if the owning rank's node died.

        Used by the fault-tolerant PFASST controller: a crashed rank's
        replacement starts from wiped levels and rebuilds them from a
        neighbour's coarse solution (warm restart) or from the block's
        predictor (cold restart).
        """
        self.U = None
        self.F = None
        self.tau = None
        self.u0 = None
        self.u0_dirty = True
        self.U_at_restriction = None
        self.F_at_restriction = None

    @property
    def problem(self) -> ODEProblem:
        return self.spec.problem

    @property
    def evaluator(self):
        """The problem's field evaluator, if it has one (else ``None``)."""
        return getattr(self.spec.problem, "evaluator", None)

    @property
    def end_value(self) -> np.ndarray:
        """Solution at the right edge of the slice."""
        if self.U is None or self.F is None or self.u0 is None:
            raise RuntimeError("level has not been initialised")
        return self.sweeper.end_value(self._dt, self.U, self.F, self.u0)

    # dt is threaded in by the controller before use
    _dt: float = 0.0
