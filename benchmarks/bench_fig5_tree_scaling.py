"""Fig. 5 — strong scaling of the parallel Barnes-Hut tree code.

Paper: per-step wall-clock of PEPC (total, tree traversal, branch
exchange) vs core count on JUGENE, for N = 0.125M / 8M / 2048M particles
of a homogeneous neutral Coulomb system.  Shape: near-ideal scaling while
particles/core stay large, then saturation — the branch-exchange term
grows with P and eventually dominates.

Reproduction: (1) *measure* interaction counts and branch-node counts on
our own tree code / SFC decomposition at small N and P; (2) calibrate the
analytic scaling model with those measurements and a Blue Gene/P machine
description; (3) sweep the model over the paper's N and core counts.
The curves' crossover structure then comes from measured work counts, not
hand-picked constants.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

import numpy as np
import pytest

from common import format_table
from repro.obs import MetricsRegistry, use_metrics
from repro.perfmodel import JUGENE, PepcScalingModel, calibrate_interactions
from repro.tree import TreeCoulombSolver
from repro.tree.domain import branch_counts, sfc_partition

PAPER_N = (125_000, 8_000_000, 2_048_000_000)
#: several sizes: interactions/particle oscillates with N (leaf fill
#: parity), so the log-law fit needs averaging across the swing
CI_CALIBRATION_N = (1000, 2000, 4000, 8000, 16000)
CORES = tuple(4**k for k in range(10))  # 1 .. 262144


def neutral_coulomb_cloud(n: int, seed: int = 0):
    """The Fig. 5 workload: homogeneous, charge-neutral plasma cube."""
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    q = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
    return pos, q


def calibrate_model(
    sizes: Sequence[int] = CI_CALIBRATION_N, theta: float = 0.6
) -> PepcScalingModel:
    """Fit I(N) and branch counts from real runs of our tree code."""
    interactions: Dict[int, float] = {}
    for n in sizes:
        pos, q = neutral_coulomb_cloud(n)
        solver = TreeCoulombSolver(theta=theta, leaf_size=48)
        with use_metrics(MetricsRegistry()) as metrics:
            solver.compute(pos, q)
        interactions[n] = metrics.histogram(
            "tree.interactions_per_particle").mean
    ipp_a, ipp_b = calibrate_interactions(interactions)

    # branch counts per rank at a few decompositions -> log-law fit
    pos, _ = neutral_coulomb_cloud(max(sizes))
    pts = []
    for ranks in (4, 16, 64):
        counts = branch_counts(sfc_partition(pos, ranks))
        n_local = max(sizes) / ranks
        pts.append((np.log2(n_local + 1), counts.mean()))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    br_b, br_a = np.polyfit(xs, ys, 1)
    return PepcScalingModel(
        machine=JUGENE, ipp_a=ipp_a, ipp_b=ipp_b,
        br_a=float(br_a), br_b=float(max(br_b, 0.0)),
    )


def run_experiment(model: PepcScalingModel | None = None,
                   sizes: Sequence[int] = PAPER_N):
    model = model or calibrate_model()
    curves = {}
    for n in sizes:
        cores = [c for c in CORES if c <= JUGENE.max_cores and n / c >= 1]
        curves[n] = model.sweep(n, cores)
    return model, curves


@pytest.fixture(scope="module")
def calibrated():
    return run_experiment()


def test_saturation_within_machine(calibrated):
    """Each N has a strong-scaling knee inside the swept range."""
    _, curves = calibrated
    for n, pts in curves.items():
        totals = [p.total for p in pts]
        knee = int(np.argmin(totals))
        assert knee > 0
        if n <= 8_000_000:  # small problems saturate before 262k cores
            assert knee < len(pts) - 1


def test_knee_moves_right_with_n(calibrated):
    model, _ = calibrated
    knees = [model.saturation_cores(n) for n in PAPER_N]
    assert knees[0] < knees[1] <= knees[2]


def test_branch_exchange_dominates_at_scale(calibrated):
    """The Fig. 5 message: branch exchange overtakes traversal for the
    small problem at large core counts."""
    model, curves = calibrated
    small = curves[125_000]
    assert small[0].branch_exchange < small[0].traversal
    assert small[-1].branch_exchange > small[-1].traversal


def test_big_problem_scales_across_machine(calibrated):
    """N = 2048M keeps gaining to (nearly) the full machine."""
    model, curves = calibrated
    pts = curves[2_048_000_000]
    assert pts[-1].total < pts[len(pts) // 2].total


def test_calibration_reflects_measured_interactions(calibrated):
    """The fitted log-law passes through the measured band.

    Interactions/particle oscillates with N around the trend (leaf fill
    parity of the batched tree), so the fit is only expected to land
    within the swing, not on each sample."""
    model, _ = calibrated
    pos, q = neutral_coulomb_cloud(4000)
    solver = TreeCoulombSolver(theta=0.6, leaf_size=48)
    with use_metrics(MetricsRegistry()) as metrics:
        solver.compute(pos, q)
    measured = metrics.histogram("tree.interactions_per_particle").mean
    predicted = model.interactions_per_particle(4000)
    assert 0.3 * measured < predicted < 3.0 * measured


def test_benchmark_coulomb_tree_solve(benchmark):
    pos, q = neutral_coulomb_cloud(CI_CALIBRATION_N[-1])
    solver = TreeCoulombSolver(theta=0.6, leaf_size=48)
    benchmark(lambda: solver.compute(pos, q))


def main(argv: List[str]) -> None:
    model, curves = run_experiment()
    print("Fig. 5 — modelled PEPC strong scaling on JUGENE "
          f"(calibrated: I(N) = {model.ipp_a:.1f} + {model.ipp_b:.1f} "
          f"log2 N; branches/rank = {model.br_a:.1f} + {model.br_b:.2f} "
          "log2 n_local)")
    for n, pts in curves.items():
        print(f"\nN = {n:,}")
        rows = [
            [p.cores, p.total, p.traversal, p.branch_exchange, p.build]
            for p in pts
        ]
        print(format_table(
            ["cores", "total (s)", "traversal", "branch exch", "build"],
            rows,
        ))
        print(f"saturation at ~{model.saturation_cores(n):,} cores")


if __name__ == "__main__":
    main(sys.argv[1:])
