"""Ablation — MAC variant and theta sweep: accuracy/cost frontier.

DESIGN.md calls out the multipole acceptance criterion as *the* spatial
coarsening knob (paper Sec. III-A / IV-B) and the paper's outlook asks
for "more elaborate strategies".  This ablation maps the error-vs-work
frontier of the classical Barnes-Hut MAC against the Salmon-Warren style
``bmax`` MAC over a theta sweep, quantifying how much headroom a better
acceptance criterion buys for the coarse propagator.
"""

from __future__ import annotations

import sys
from typing import Dict, List

import numpy as np
import pytest

from common import format_table, sheet_problem
from repro.obs import MetricsRegistry, use_metrics
from repro.tree import TreeEvaluator
from repro.vortex import DirectEvaluator, get_kernel

N_CI = 800
THETAS = (0.2, 0.4, 0.6, 0.9)


def run_experiment(n: int = N_CI, sigma_over_h: float = 3.0) -> List[Dict]:
    problem, u0, cfg = sheet_problem(n, sigma_over_h=sigma_over_h)
    kernel = get_kernel("algebraic6")
    positions, vorticity = u0[0], u0[1]
    charges = vorticity * problem.volumes[:, None]
    ref = DirectEvaluator(kernel, cfg.sigma).field(positions, charges)
    rows = []
    for variant in ("bh", "bmax"):
        for theta in THETAS:
            ev = TreeEvaluator(kernel, cfg.sigma, theta=theta,
                               leaf_size=48, mac_variant=variant)
            with use_metrics(MetricsRegistry()) as metrics:
                out = ev.field(positions, charges)
            err = np.max(np.abs(out.velocity - ref.velocity)) / np.max(
                np.abs(ref.velocity)
            )
            per_particle = metrics.histogram(
                "tree.interactions_per_particle").total
            rows.append({
                "variant": variant,
                "theta": theta,
                "rel_error": float(err),
                "interactions": round(per_particle * len(positions)),
                "seconds": ev.mean_cost,
            })
    return rows


@pytest.fixture(scope="module")
def frontier():
    return run_experiment()


def _select(rows, variant):
    return [r for r in rows if r["variant"] == variant]


def test_error_monotone_in_theta(frontier):
    for variant in ("bh", "bmax"):
        errs = [r["rel_error"] for r in _select(frontier, variant)]
        assert all(errs[i] <= errs[i + 1] * 1.2 for i in range(len(errs) - 1))


def test_work_monotone_in_theta(frontier):
    for variant in ("bh", "bmax"):
        work = [r["interactions"] for r in _select(frontier, variant)]
        assert all(work[i] > work[i + 1] for i in range(len(work) - 1))


def test_bmax_frontier_not_dominated(frontier):
    """At equal theta, bmax must not be both slower AND less accurate."""
    bh = {r["theta"]: r for r in _select(frontier, "bh")}
    bm = {r["theta"]: r for r in _select(frontier, "bmax")}
    for theta in THETAS:
        worse_error = bm[theta]["rel_error"] > 2.0 * bh[theta]["rel_error"]
        worse_work = (bm[theta]["interactions"]
                      > 1.5 * bh[theta]["interactions"])
        assert not (worse_error and worse_work)


def test_coarse_propagator_band(frontier):
    """theta = 0.6 (the paper's coarse level) stays accurate enough to
    serve as a PFASST coarse propagator (error well below 10%)."""
    bh = {r["theta"]: r for r in _select(frontier, "bh")}
    assert bh[0.6]["rel_error"] < 0.05


def test_benchmark_bh_mac_traversal(benchmark):
    from repro.tree import build_octree, compute_vortex_moments, dual_traversal

    problem, u0, cfg = sheet_problem(N_CI)
    tree = build_octree(u0[0], leaf_size=48)
    charges = u0[1] * problem.volumes[:, None]
    mom = compute_vortex_moments(tree, charges)
    benchmark(lambda: dual_traversal(tree, 0.6, node_bmax=mom.bmax))


def main(argv: List[str]) -> None:
    rows = run_experiment()
    print("Ablation — MAC variants over theta (vortex sheet RHS)")
    print(format_table(
        ["variant", "theta", "rel error", "interactions", "seconds"],
        [[r["variant"], r["theta"], r["rel_error"], r["interactions"],
          r["seconds"]] for r in rows],
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
