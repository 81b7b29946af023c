"""Self-gravitating cluster — PEPC's original gravitation mode.

Builds a Plummer-like star cluster, computes accelerations with the
Barnes-Hut solver, and integrates a short stretch of dynamics with RK4,
monitoring energy conservation and the virial ratio.  Demonstrates that
the tree code is a multi-purpose N-body engine (the paper stresses PEPC's
"transition from a pure gravitation/Coulomb solver to a multi-purpose
N-body suite").

Run:  python examples/gravity_cluster.py
"""

import numpy as np

from repro.nbody import gravity_direct
from repro.obs import MetricsRegistry, use_metrics
from repro.tree import TreeCoulombSolver

N = 1500
G = 1.0
THETA = 0.5


def plummer_sphere(n: int, seed: int = 11) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of a Plummer model (a = 1, M = 1)."""
    rng = np.random.default_rng(seed)
    # radii by inverting the Plummer cumulative mass profile
    m = rng.uniform(0.0, 1.0, n)
    r = 1.0 / np.sqrt(m ** (-2.0 / 3.0) - 1.0)
    r = np.clip(r, 0.0, 10.0)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pos = r[:, None] * direction
    # isotropic velocities at ~half the local escape speed
    v_esc = np.sqrt(2.0) * (1.0 + r * r) ** (-0.25)
    vdir = rng.normal(size=(n, 3))
    vdir /= np.linalg.norm(vdir, axis=1, keepdims=True)
    vel = 0.5 * v_esc[:, None] * vdir
    return pos, vel


def tree_acceleration(solver, pos, masses):
    """a = -(4 pi G) E_coulomb with the singular kernel (see nbody)."""
    phi, field = solver.compute(pos, masses)
    return -4.0 * np.pi * G * field, -4.0 * np.pi * G * phi


def main() -> None:
    pos, vel = plummer_sphere(N)
    masses = np.full(N, 1.0 / N)
    solver = TreeCoulombSolver(theta=THETA, leaf_size=48, softening=0.02)

    # accuracy check vs direct summation
    acc_tree, phi_tree = tree_acceleration(solver, pos, masses)
    phi_ref, acc_ref = gravity_direct(pos, pos, masses, g_constant=G,
                                      softening=0.02)
    rel = np.max(np.abs(acc_tree - acc_ref)) / np.max(np.abs(acc_ref))
    print(f"Plummer cluster N={N}: tree vs direct acceleration "
          f"rel err {rel:.2e} at theta={THETA}")

    def energies(pos, vel):
        phi, acc = gravity_direct(pos, pos, masses, g_constant=G,
                                  softening=0.02)
        kinetic = 0.5 * np.sum(masses[:, None] * vel**2)
        potential = 0.5 * np.dot(masses, phi)
        return kinetic, potential

    ke, pe = energies(pos, vel)
    print(f"initial: KE={ke:.4f} PE={pe:.4f} virial 2K/|W|="
          f"{2 * ke / abs(pe):.2f}")

    # leapfrog (kick-drift-kick) with tree forces
    dt, steps = 0.05, 40
    acc, _ = tree_acceleration(solver, pos, masses)
    e0 = ke + pe
    with use_metrics(MetricsRegistry()) as metrics:
        for k in range(steps):
            vel = vel + 0.5 * dt * acc
            pos = pos + dt * vel
            acc, _ = tree_acceleration(solver, pos, masses)
            vel = vel + 0.5 * dt * acc
    ke, pe = energies(pos, vel)
    e1 = ke + pe
    print(f"after t={dt * steps}: KE={ke:.4f} PE={pe:.4f} "
          f"energy drift {(e1 - e0) / abs(e0):.2e}")
    per_particle = metrics.histogram("tree.interactions_per_particle")
    print(f"tree stats: {per_particle.mean:.0f} interactions/particle "
          f"(mean over {per_particle.count} force evaluations)")


if __name__ == "__main__":
    main()
