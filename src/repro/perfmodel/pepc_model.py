"""Analytic strong-scaling model of the parallel Barnes-Hut code (Fig. 5).

Total per-step wall-clock on ``P`` cores for ``N`` particles:

    T(N, P) = T_traversal + T_branch + T_build

* ``T_traversal = I(N) * N / P * t_int  +  fetch terms`` — the force
  computation; ``I(N)`` (interactions per particle) is measured on our own
  tree code and grows ~ ``log N`` at fixed theta.
* ``T_branch = latency * ceil(log2 P) + B(N, P) * node_bytes / bandwidth``
  — the branch-node allgather; ``B`` is the *total* number of branch nodes,
  measured from the SFC decomposition (:mod:`repro.tree.domain`), and grows
  with ``P``, which is exactly why strong scaling saturates (Fig. 5).
* ``T_build = c_build * (N/P) * log2(N/P + 1)`` — local sort + tree build.

Calibration measures ``I(N)`` and seconds-per-interaction on the Python
tree code and transplants the flop count onto a target machine model, so
the *shape* (crossover points, saturation) is driven by real measured work
counts rather than guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.perfmodel.machine import JUGENE, MachineModel

__all__ = ["PepcScalingModel", "ScalingPoint", "calibrate_interactions"]


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a strong-scaling curve."""

    n_particles: int
    cores: int
    total: float
    traversal: float
    branch_exchange: float
    build: float


@dataclass
class PepcScalingModel:
    """Calibrated analytic model of the space-parallel tree code."""

    machine: MachineModel = field(default_factory=lambda: JUGENE)
    #: interactions per particle: I(N) = ipp_a + ipp_b * log2(N)
    ipp_a: float = -40.0
    ipp_b: float = 35.0
    #: flops per particle-cluster interaction (quadrupole + gradient)
    flops_per_interaction: float = 120.0
    #: bytes per multipole node on the wire (center, moments, meta)
    node_bytes: float = 256.0
    #: branch nodes per rank: b(n_local) = br_a + br_b * log2(n_local + 1)
    br_a: float = 6.0
    br_b: float = 3.0
    #: build cost per particle (fraction of an interaction)
    build_factor: float = 8.0
    #: per-rank constant overhead per traversal (s)
    overhead: float = 5.0e-4

    def interactions_per_particle(self, n: float) -> float:
        return max(1.0, self.ipp_a + self.ipp_b * np.log2(max(n, 2.0)))

    def traversal_time(self, n: int, cores: int) -> float:
        t_int = self.machine.interaction_time(self.flops_per_interaction)
        work = self.interactions_per_particle(n) * n / cores * t_int
        # remote-node fetches: ranks request ~ surface share of the tree
        n_local = max(n / cores, 1.0)
        fetch = (
            self.machine.latency * np.log2(cores + 1)
            + (n_local ** (2.0 / 3.0)) * self.node_bytes / self.machine.bandwidth
        )
        return work + fetch + self.overhead

    def branch_count_per_rank(self, n_local: float) -> float:
        return self.br_a + self.br_b * np.log2(n_local + 1.0)

    def branch_exchange_time(self, n: int, cores: int) -> float:
        ranks = max(cores // self.machine.cores_per_node, 1)
        n_local = max(n / ranks, 1.0)
        total_branches = ranks * self.branch_count_per_rank(n_local)
        return (
            self.machine.latency * np.ceil(np.log2(ranks + 1))
            + total_branches * self.node_bytes / self.machine.bandwidth
        )

    def build_time(self, n: int, cores: int) -> float:
        n_local = max(n / cores, 1.0)
        t_int = self.machine.interaction_time(self.flops_per_interaction)
        return self.build_factor * n_local * np.log2(n_local + 1.0) * t_int

    def point(self, n: int, cores: int) -> ScalingPoint:
        trav = self.traversal_time(n, cores)
        br = self.branch_exchange_time(n, cores)
        bld = self.build_time(n, cores)
        return ScalingPoint(
            n_particles=n,
            cores=cores,
            total=trav + br + bld,
            traversal=trav,
            branch_exchange=br,
            build=bld,
        )

    def sweep(self, n: int, cores: Sequence[int]) -> list[ScalingPoint]:
        """Strong-scaling curve for one problem size."""
        return [self.point(n, c) for c in cores]

    def saturation_cores(self, n: int, max_cores: Optional[int] = None) -> int:
        """Core count with minimal total time (the strong-scaling knee)."""
        limit = max_cores or self.machine.max_cores
        cores = 1
        best_cores, best_time = 1, float("inf")
        while cores <= limit:
            t = self.point(n, cores).total
            if t < best_time:
                best_time, best_cores = t, cores
            cores *= 2
        return best_cores


def calibrate_interactions(
    measurements: Dict[int, float],
) -> tuple[float, float]:
    """Fit ``I(N) = a + b log2 N`` from measured interactions-per-particle.

    ``measurements`` maps particle counts to measured interactions per
    particle (the ``tree.interactions_per_particle`` histogram of a
    :class:`~repro.obs.metrics.MetricsRegistry` around the evaluations).
    """
    if len(measurements) < 2:
        raise ValueError("need at least two (N, I) measurements to fit")
    ns = np.array(sorted(measurements))
    ys = np.array([measurements[int(n)] for n in ns])
    x = np.log2(ns.astype(np.float64))
    b, a = np.polyfit(x, ys, 1)
    return float(a), float(b)
