"""Barnes-Hut field evaluators (the "PEPC" front end).

:class:`TreeEvaluator` implements the vortex-method
:class:`~repro.vortex.problem.FieldEvaluator` interface in
``O(N log N)``: build the oct-tree, compute multipole moments, run the
group-collective dual traversal, then evaluate far interactions by
multipole expansion and near interactions by direct summation.

Both summation phases run through the batched engine
(:mod:`repro.tree.engine`): interaction lists are expanded into flat
(particle, node) / (particle, particle) pair streams and evaluated in
memory-budgeted chunks, so Python-level iteration no longer scales with
the number of target groups.  Tree build, moments and traversal are
obtained through a :class:`~repro.tree.state.TreeStateCache` keyed by a
content fingerprint of the particle arrays: repeated RHS evaluations at
the same state (SDC node-0 re-evaluations, FAS restriction) skip straight
to the summation phases.

The multipole acceptance parameter ``theta`` controls the accuracy/cost
trade-off; PFASST's particle-based coarsening (the paper's contribution)
is simply two ``TreeEvaluator`` instances sharing everything but ``theta``
(0.3 fine / 0.6 coarse in the paper's runs).  Use :meth:`coarsened` to
derive the coarse evaluator: it shares the fine evaluator's state cache,
so the pair shares one tree and one moment pass per particle
configuration and re-runs only its own traversal.

:class:`TreeCoulombSolver` provides the scalar-charge (Coulomb/gravity)
counterpart, mirroring PEPC's multi-purpose design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import boundary
from repro.tree.build import Octree
from repro.tree.engine import (
    TraversalLayout,
    batched_far_coulomb,
    batched_far_vortex,
    batched_near_coulomb,
    batched_near_vortex,
    build_traversal_layout,
)
from repro.obs.metrics import get_metrics
from repro.obs.timing import TimingRegistry
from repro.tree.mac import MACVariant
from repro.tree.profiles import supports_multipoles
from repro.tree.state import CacheStats, TreeState, TreeStateCache
from repro.tree.traversal import InteractionLists
from repro.utils.validation import check_positive
from repro.vortex.kernels import SingularKernel, SmoothingKernel, get_kernel
from repro.vortex.problem import FieldEvaluator
from repro.vortex.rhs import VelocityField

__all__ = ["TreeStats", "TreeEvaluator", "TreeCoulombSolver"]


@dataclass
class TreeStats:
    """Work statistics of the most recent tree evaluation."""

    n_particles: int = 0
    n_nodes: int = 0
    n_groups: int = 0
    mac_tests: int = 0
    far_pairs: int = 0
    near_pairs: int = 0
    far_interactions: int = 0
    near_interactions: int = 0
    #: which pipeline stages were served from the state cache
    build_cached: bool = False
    moments_cached: bool = False
    traversal_cached: bool = False

    @property
    def interactions_per_particle(self) -> float:
        if self.n_particles == 0:
            return 0.0
        return (self.far_interactions + self.near_interactions) / self.n_particles


def _make_stats(
    tree: Octree,
    lists: InteractionLists,
    build_cached: bool,
    moments_cached: bool,
    traversal_cached: bool,
) -> TreeStats:
    stats = TreeStats(
        n_particles=tree.n_particles,
        n_nodes=tree.n_nodes,
        n_groups=lists.n_groups,
        mac_tests=lists.mac_tests,
        far_pairs=int(lists.far_group.size),
        near_pairs=int(lists.near_group.size),
        far_interactions=lists.far_interaction_count(tree),
        near_interactions=lists.near_interaction_count(tree),
        build_cached=build_cached,
        moments_cached=moments_cached,
        traversal_cached=traversal_cached,
    )
    m = get_metrics()
    if m.enabled:
        m.counter("tree.evaluations").inc()
        m.counter("tree.mac_tests").inc(stats.mac_tests)
        m.counter("tree.far_pairs").inc(stats.far_pairs)
        m.counter("tree.near_pairs").inc(stats.near_pairs)
        m.histogram("tree.interactions_per_particle").observe(
            stats.interactions_per_particle
        )
    return stats


def _engine_layout(
    state: TreeState,
    lists: InteractionLists,
    theta: float,
    variant: str,
    phases: TimingRegistry,
) -> TraversalLayout:
    """Per-traversal engine layout, cached on the state object."""
    key = (float(theta), str(variant))
    layout = state.engine_layouts.get(key)
    if layout is None:
        with phases.phase("layout"):
            layout = build_traversal_layout(state.tree, lists)
        state.engine_layouts[key] = layout
    return layout


class _Engine(NamedTuple):
    name: str


class TreeEvaluator(FieldEvaluator):
    """Barnes-Hut evaluator for the vortex RHS.

    Parameters
    ----------
    kernel :
        Smoothing kernel (must be algebraic or singular — those admit
        exact multipole radial chains).
    sigma :
        Core size.
    theta :
        Multipole acceptance parameter; larger = faster and less accurate.
    order :
        Multipole order: 0 monopole, 1 dipole, 2 quadrupole (default).
    leaf_size :
        Particles per leaf; leaves double as traversal target groups.
    mac_variant :
        ``"bh"`` (classical, the paper's choice) or ``"bmax"``.
    cache :
        :class:`~repro.tree.state.TreeStateCache` for tree/moment/traversal
        reuse.  Pass a shared instance to let several evaluators (e.g. a
        fine/coarse theta pair) share trees and moments; by default each
        evaluator owns a private cache (still reused across its own calls).
    batch_budget_bytes :
        Approximate temporary-memory budget per engine chunk; ``None``
        uses the engine default (64 MiB).
    """

    #: the engine the batched passes run on: the serial NumPy engine is
    #: the only one, named here for host fingerprints
    backend = _Engine("numpy")

    def __init__(
        self,
        kernel: SmoothingKernel | str,
        sigma: float,
        theta: float = 0.3,
        order: int = 2,
        leaf_size: int = 32,
        mac_variant: MACVariant = "bh",
        cache: Optional[TreeStateCache] = None,
        batch_budget_bytes: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        if not supports_multipoles(self.kernel):
            raise ValueError(
                f"kernel {self.kernel.name!r} lacks an exact multipole "
                "expansion; use DirectEvaluator or an algebraic kernel"
            )
        self.sigma = check_positive("sigma", sigma)
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.theta = float(theta)
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        self.order = order
        self.leaf_size = int(leaf_size)
        self.mac_variant: MACVariant = mac_variant
        self.cache = cache if cache is not None else TreeStateCache()
        self.batch_budget_bytes = batch_budget_bytes
        self.phases = TimingRegistry()
        self.last_stats = TreeStats()
        self._exclude_zero = (
            isinstance(self.kernel, SingularKernel)
            and self.kernel.softening == 0.0
        )

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the underlying state cache."""
        return self.cache.stats

    def coarsened(
        self, theta: float, mac_variant: Optional[MACVariant] = None
    ) -> "TreeEvaluator":
        """A theta-coarsened evaluator sharing this one's state cache.

        The returned evaluator reuses every tree build and moment pass of
        this evaluator (and vice versa) and only runs its own traversal —
        the paper's fine/coarse pair for the price of one tree pipeline.
        """
        return TreeEvaluator(
            self.kernel,
            self.sigma,
            theta=theta,
            order=self.order,
            leaf_size=self.leaf_size,
            mac_variant=self.mac_variant if mac_variant is None else mac_variant,
            cache=self.cache,
            batch_budget_bytes=self.batch_budget_bytes,
        )

    @boundary("tree_evaluate", arrays=[
        ("positions", (None, 3)), ("charges", (None, 3)),
    ])
    def _evaluate(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        gradient: bool,
        include_far: bool = True,
    ) -> VelocityField:
        state, build_cached = self.cache.state(
            positions, self.leaf_size, self.phases
        )
        tree = state.tree
        moments, moments_cached = state.vortex_moments(charges, self.phases)
        lists, traversal_cached = state.traversal(
            self.theta, self.mac_variant, moments.bmax, self.phases
        )
        layout = _engine_layout(
            state, lists, self.theta, self.mac_variant, self.phases
        )

        n = positions.shape[0]
        vel = np.zeros((n, 3))
        grad = np.zeros((n, 3, 3)) if gradient else None

        if include_far:
            with self.phases.phase("far_field"):
                batched_far_vortex(
                    tree, moments, layout, self.kernel, self.sigma,
                    self.order, gradient, vel, grad,
                    budget_bytes=self.batch_budget_bytes,
                )
        with self.phases.phase("near_field"):
            batched_near_vortex(
                tree, charges[tree.order], layout, self.kernel, self.sigma,
                gradient, self._exclude_zero, vel, grad,
                budget_bytes=self.batch_budget_bytes,
            )

        self.last_stats = _make_stats(
            tree, lists, build_cached, moments_cached, traversal_cached
        )
        # scatter from Morton order back to caller order
        out_v = np.empty_like(vel)
        out_v[tree.order] = vel
        out_g = None
        if gradient:
            out_g = np.empty_like(grad)
            out_g[tree.order] = grad
        return VelocityField(out_v, out_g)


class TreeCoulombSolver:
    """Barnes-Hut potential/field solver for scalar charges.

    Mirrors PEPC's original Coulomb/gravity mode; used by the Fig. 5-style
    scaling benchmark ("homogeneous neutral Coulomb system").  Runs on the
    same batched engine and state cache as :class:`TreeEvaluator`.
    """

    def __init__(
        self,
        theta: float = 0.6,
        order: int = 2,
        leaf_size: int = 32,
        softening: float = 0.0,
        mac_variant: MACVariant = "bh",
        cache: Optional[TreeStateCache] = None,
        batch_budget_bytes: Optional[int] = None,
    ) -> None:
        self.kernel = SingularKernel(softening=softening)
        self.theta = float(theta)
        self.order = order
        self.leaf_size = int(leaf_size)
        self.mac_variant: MACVariant = mac_variant
        self.cache = cache if cache is not None else TreeStateCache()
        self.batch_budget_bytes = batch_budget_bytes
        self.phases = TimingRegistry()
        self.last_stats = TreeStats()
        # unsoftened coincident pairs diverge and are excluded, exactly as
        # in the direct reference; softened ones contribute 1/(4 pi eps)
        self._exclude_zero = self.kernel.softening == 0.0

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the underlying state cache."""
        return self.cache.stats

    @boundary("tree_coulomb", arrays=[
        ("positions", (None, 3)), ("charges", (None,)),
    ])
    def compute(
        self, positions: np.ndarray, charges: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(potential, field)`` at every particle position."""
        state, build_cached = self.cache.state(
            positions, self.leaf_size, self.phases
        )
        tree = state.tree
        moments, moments_cached = state.coulomb_moments(charges, self.phases)
        lists, traversal_cached = state.traversal(
            self.theta, self.mac_variant, moments.bmax, self.phases
        )
        layout = _engine_layout(
            state, lists, self.theta, self.mac_variant, self.phases
        )

        n = positions.shape[0]
        phi = np.zeros(n)
        field = np.zeros((n, 3))

        with self.phases.phase("far_field"):
            batched_far_coulomb(
                tree, moments, layout, self.kernel, 1.0, self.order,
                phi, field, budget_bytes=self.batch_budget_bytes,
            )
        with self.phases.phase("near_field"):
            batched_near_coulomb(
                tree, charges[tree.order], layout, self.kernel, 1.0,
                self._exclude_zero, phi, field,
                budget_bytes=self.batch_budget_bytes,
            )

        self.last_stats = _make_stats(
            tree, lists, build_cached, moments_cached, traversal_cached
        )
        out_phi = np.empty_like(phi)
        out_phi[tree.order] = phi
        out_field = np.empty_like(field)
        out_field[tree.order] = field
        return out_phi, out_field
