"""Coulomb tree-code demo — PEPC's original use case.

Builds a homogeneous, charge-neutral plasma cube (the workload of the
paper's Fig. 5 scaling study), solves for the electrostatic potential and
field with the Barnes-Hut solver at several MAC parameters, and checks
the accuracy/cost trade-off against direct summation.  Also shows the SFC
domain decomposition a parallel run would use.

Run:  python examples/coulomb_plasma.py
"""

import numpy as np

from repro import TreeCoulombSolver
from repro.nbody import coulomb_direct
from repro.obs import MetricsRegistry, use_metrics
from repro.tree.domain import branch_counts, sfc_partition

N = 3000


def main() -> None:
    rng = np.random.default_rng(42)
    positions = rng.random((N, 3))
    charges = np.concatenate([np.ones(N // 2), -np.ones(N - N // 2)])
    print(f"neutral plasma cube: N={N}, total charge "
          f"{charges.sum():+.0f}")

    phi_ref, e_ref = coulomb_direct(positions, positions, charges)
    print(f"direct O(N^2) reference: potential range "
          f"[{phi_ref.min():.3f}, {phi_ref.max():.3f}]")

    print(f"\n{'theta':>6} {'rel phi err':>12} {'rel E err':>10} "
          f"{'interactions/particle':>22}")
    for theta in (0.3, 0.6, 1.0):
        solver = TreeCoulombSolver(theta=theta, leaf_size=48)
        with use_metrics(MetricsRegistry()) as metrics:
            phi, e = solver.compute(positions, charges)
        per_particle = metrics.histogram("tree.interactions_per_particle")
        err_phi = np.max(np.abs(phi - phi_ref)) / np.max(np.abs(phi_ref))
        err_e = np.max(np.abs(e - e_ref)) / np.max(np.abs(e_ref))
        print(f"{theta:>6.1f} {err_phi:>12.2e} {err_e:>10.2e} "
              f"{per_particle.mean:>22.0f}")

    # the parallel decomposition a P_S-rank run would use (paper Fig. 3)
    print("\nSFC domain decomposition (what each PEPC rank would own):")
    for ranks in (4, 16):
        d = sfc_partition(positions, ranks, curve="hilbert")
        b = branch_counts(d)
        print(f"  {ranks:>3} ranks: {d.counts.min()}-{d.counts.max()} "
              f"particles/rank, {b.sum()} branch nodes to exchange")


if __name__ == "__main__":
    main()
