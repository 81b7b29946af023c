"""Reusable tree state: build + moments + traversal behind one cache.

PFASST calls the tree code over and over: M quadrature nodes x K sweeps x
iterations, on two levels that share the *same particle set* and differ
only in ``theta``.  Rebuilding the octree, the multipole moments and the
interaction lists from scratch on every RHS call therefore repeats a large
amount of state-identical work:

* repeated evaluations at the same ``(positions, charges)`` (the sweep's
  node-0 re-evaluations, the FAS restriction re-evaluating the coarse RHS
  at the states the fine level just visited) can reuse *everything* up to
  the final far/near summation;
* the paper's fine/coarse evaluator pair (``theta = 0.3`` / ``0.6``) can
  share one tree and one moment pass, re-running only the
  ``theta``-dependent traversal.

:class:`TreeStateCache` realises both.  States are keyed by a cheap
content fingerprint (BLAKE2 over the raw array bytes) of ``positions``
plus the build parameters, so in-place mutation of a caller array simply
produces a miss — there is no way to observe a stale tree.  Within a
state, moments are keyed by the charge-array fingerprint and traversals by
``(theta, mac_variant)``.  When a global metrics registry is active
(:func:`repro.obs.use_metrics`), every lookup increments a
``tree.cache.<stage>.<hits|misses>`` counter there, and every miss runs
its stage under a ``tree_build`` / ``moments`` / ``traverse`` phase span
of the active tracer (:func:`repro.obs.use_tracer`) — so a trace shows
directly which work the cache saved.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.tree.build import Octree, build_octree
from repro.tree.multipole import (
    CoulombMoments,
    VortexMoments,
    compute_coulomb_moments,
    compute_vortex_moments,
)
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.tree.traversal import InteractionLists, dual_traversal

__all__ = ["array_fingerprint", "TreeState", "TreeStateCache"]


def array_fingerprint(array: np.ndarray) -> bytes:
    """Content fingerprint of an array (shape, dtype and raw bytes)."""
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(array.shape).encode())
    h.update(array.dtype.str.encode())
    h.update(array.view(np.uint8).reshape(-1).data)
    return h.digest()


def _count(stage: str, hit: bool) -> None:
    """Record one cache lookup in the active metrics registry."""
    m = get_metrics()
    if m.enabled:
        m.counter(f"tree.cache.{stage}.{'hits' if hit else 'misses'}").inc()


class TreeState:
    """One built octree plus its derived, lazily-cached products.

    Holds the tree itself, multipole moments per charge set (vortex and
    Coulomb kinds side by side) and interaction lists per
    ``(theta, mac_variant)``.  Created and owned by
    :class:`TreeStateCache`; evaluators never build trees directly.
    """

    def __init__(self, tree: Octree) -> None:
        self.tree = tree
        self._vortex_moments: "OrderedDict[bytes, VortexMoments]" = OrderedDict()
        self._coulomb_moments: "OrderedDict[bytes, CoulombMoments]" = OrderedDict()
        self._traversals: Dict[Tuple[float, str], InteractionLists] = {}
        #: per-traversal engine layouts, attached by the batched engine
        #: (keyed like ``_traversals``; opaque to this module)
        self.engine_layouts: Dict[Tuple[float, str], object] = {}
        self._groups: Optional[np.ndarray] = None

    # A handful of charge sets coexist per state (e.g. gradient on/off
    # callers, multirate freeze snapshots); keep the map tiny.
    _MOMENT_SLOTS = 4

    @property
    def groups(self) -> np.ndarray:
        """Leaf node ids (traversal target groups), computed once."""
        if self._groups is None:
            self._groups = self.tree.leaves()
        return self._groups

    def vortex_moments(self, charges: np.ndarray) -> VortexMoments:
        """Moments for vector charges, cached per charge fingerprint."""
        key = array_fingerprint(charges)
        hit = self._vortex_moments.get(key)
        _count("moment", hit is not None)
        if hit is not None:
            self._vortex_moments.move_to_end(key)
            return hit
        with get_tracer().span("moments", cat="phase"):
            moments = compute_vortex_moments(self.tree, charges)
        self._vortex_moments[key] = moments
        while len(self._vortex_moments) > self._MOMENT_SLOTS:
            self._vortex_moments.popitem(last=False)
        return moments

    def coulomb_moments(self, charges: np.ndarray) -> CoulombMoments:
        """Moments for scalar charges, cached per charge fingerprint."""
        key = array_fingerprint(charges)
        hit = self._coulomb_moments.get(key)
        _count("moment", hit is not None)
        if hit is not None:
            self._coulomb_moments.move_to_end(key)
            return hit
        with get_tracer().span("moments", cat="phase"):
            moments = compute_coulomb_moments(self.tree, charges)
        self._coulomb_moments[key] = moments
        while len(self._coulomb_moments) > self._MOMENT_SLOTS:
            self._coulomb_moments.popitem(last=False)
        return moments

    def traversal(
        self, theta: float, variant: str, node_bmax: np.ndarray
    ) -> InteractionLists:
        """Interaction lists for ``(theta, variant)``; cached per state.

        ``node_bmax`` comes from the moment pass but is purely geometric
        (distances of particles to cell centers), hence identical for
        every charge set over the same tree — safe to key the traversal
        by ``(theta, variant)`` alone.
        """
        key = (float(theta), str(variant))
        hit = self._traversals.get(key)
        _count("traversal", hit is not None)
        if hit is not None:
            return hit
        with get_tracer().span("traverse", cat="phase"):
            lists = dual_traversal(
                self.tree, theta, node_bmax=node_bmax, variant=variant
            )
        self._traversals[key] = lists
        return lists


class TreeStateCache:
    """LRU cache of :class:`TreeState` keyed by particle positions.

    One cache instance may be *shared* by several evaluators — the paper's
    fine/coarse pair shares one tree and one moment pass and re-runs only
    its own traversal.  ``maxsize`` bounds the number of distinct particle
    configurations kept alive (PFASST touches a handful per time slice).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._states: "OrderedDict[Tuple[bytes, int], TreeState]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        self._states.clear()

    def state(self, positions: np.ndarray, leaf_size: int) -> TreeState:
        """Tree state for a particle configuration, built on a miss."""
        key = (array_fingerprint(positions), int(leaf_size))
        hit = self._states.get(key)
        _count("build", hit is not None)
        if hit is not None:
            self._states.move_to_end(key)
            return hit
        with get_tracer().span("tree_build", cat="phase"):
            tree = build_octree(positions, leaf_size=leaf_size)
        state = TreeState(tree)
        self._states[key] = state
        while len(self._states) > self.maxsize:
            self._states.popitem(last=False)
        return state
