"""Batched interaction-list evaluation engine.

The seed evaluators walked the interaction lists with one Python-loop
iteration per target group (``O(N / leaf_size)`` iterations, each issuing
dozens of small NumPy calls and a per-leaf ``np.concatenate``).  This
module evaluates whole *batches of groups* at once, padded to rectangular
blocks so the inner loops are dense matrix products:

* **near** (vortex): in the production regime (smooth kernel, leaves a
  few core sizes across) each batch builds per-source feature rows
  ``[alpha | s x alpha | alpha (x) s | (s x alpha) (x) s]``, computes
  ``r^2`` from the GEMM identity ``|t|^2 + |s|^2 - 2 t.s``, the two
  radial factors straight from ``r^2``
  (:meth:`~repro.vortex.kernels.SmoothingKernel.f_g_from_r2`), and
  contracts them against the feature block with two GEMMs; a short
  per-target epilogue reassembles velocity and gradient from the 6/24
  contracted columns.  Outside the expansion gate (theta = 0 stress
  shapes, singular kernels) a fully explicit ``r = t - s`` path keeps
  exact-zero detection and reference-level rounding.
* **far** (vortex): the multipole expansion is factored over the
  *cluster-frame* monomial basis (:mod:`repro.tree.localbasis`): every
  unique cluster node gets one weight matrix mapping the D-weighted
  monomials of ``r = target - center`` straight to the 3 velocity + 9
  gradient components.  The far pass walks unique nodes (regrouped by
  the layout into a node -> target-slots CSR), evaluates the radial
  chain and an incremental monomial table per pair, runs one batched
  GEMM against the cached weights, and scatters with one
  ``np.bincount`` per output component.  Per-pair work is independent
  of how many groups share a cluster, and all per-cluster tensor
  algebra happens once per traversal, not once per batch.
* **Coulomb** far/near keep the flat chunked pair streams over the
  pairwise kernels (:func:`~repro.tree.evaluate.evaluate_coulomb_far_pairs`,
  :func:`~repro.nbody.direct.coulomb_pairs`) — the scalar-charge path
  has an order of magnitude less per-pair state, so gather-per-pair is
  already cheap.

Batches are packed greedily under a temporary-memory budget, groups
sorted by size so padding stays tight; a batch always contains at least
one group, so any positive budget makes progress.  Scatter back onto the
targets uses plain fancy indexing — leaves tile disjoint slot ranges, so
target rows within a batch are unique.

Interaction lists are laid out once per traversal by
:func:`segment_layout`: a single ``np.bincount`` + ``cumsum`` gives the
per-group segment table shared by the far and near phases (replacing the
seed's two stable argsorts + four ``searchsorted`` calls; a sort is only
performed when the traversal output is not already group-ordered).

**Process safety.** The batched kernels are safe to run inside worker
processes of the executor backend (:mod:`repro.parallel.executor`):
module state is limited to immutable constants (``_INV_FOUR_PI``, the
budget defaults), inputs are only read (positions/charges may arrive as
read-only shared-memory views), and all mutation targets are the
caller-allocated ``vel`` / ``grad`` output buffers.  Callers that cross a
process boundary must therefore allocate *fresh, writable* outputs on the
worker side — :func:`check_output_buffers` validates the contract
(float64, C-contiguous, writable, correctly shaped) before the GEMM
passes touch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nbody.direct import coulomb_pairs
from repro.tree.build import Octree
from repro.tree.evaluate import (
    _cross,
    _cross_matrix_add,
    _eps_add,
    evaluate_coulomb_far_pairs,
)
from repro.tree.localbasis import (
    BLOCK_COL,
    BLOCK_END,
    BLOCK_LO,
    DEG_START,
    monomial_rows,
    node_far_weights,
)
from repro.tree.multipole import CoulombMoments, VortexMoments
from repro.tree.profiles import radial_chain
from repro.tree.traversal import InteractionLists
from repro.vortex.kernels import SmoothingKernel

__all__ = [
    "SegmentLayout",
    "segment_layout",
    "TraversalLayout",
    "build_traversal_layout",
    "batched_far_vortex",
    "batched_near_vortex",
    "batched_far_coulomb",
    "batched_near_coulomb",
    "check_output_buffers",
]

_INV_FOUR_PI = 1.0 / (4.0 * np.pi)


def check_output_buffers(
    vel: np.ndarray,
    grad: Optional[np.ndarray],
    n: int,
    gradient: bool,
) -> None:
    """Validate accumulation buffers before the batched far/near passes.

    The engine accumulates in place, so the buffers must be fresh float64
    C-contiguous *writable* arrays of the full particle count.  Read-only
    views (e.g. shared-memory inputs mapped into an executor worker) and
    stale-shaped reuse are rejected here, with a clear message, instead
    of failing deep inside a GEMM scatter.
    """
    def _check(name: str, a: np.ndarray, shape: Tuple[int, ...]) -> None:
        if a.shape != shape:
            raise ValueError(
                f"{name} buffer has shape {a.shape}, expected {shape}"
            )
        if a.dtype != np.float64:
            raise TypeError(
                f"{name} buffer has dtype {a.dtype}, expected float64"
            )
        if not a.flags.c_contiguous:
            raise ValueError(f"{name} buffer must be C-contiguous")
        if not a.flags.writeable:
            raise ValueError(
                f"{name} buffer is read-only; the engine accumulates in "
                "place — allocate a fresh array on this side of any "
                "process boundary"
            )

    _check("velocity", vel, (n, 3))
    if gradient:
        if grad is None:
            raise ValueError("gradient requested but grad buffer is None")
        _check("gradient", grad, (n, 3, 3))

#: default temporary-memory budget per evaluation batch/chunk
DEFAULT_BUDGET_BYTES = 64 * 2**20
#: tighter defaults for the GEMM passes — blocks that stay cache-resident
#: make the many short elementwise sweeps (radial factors, monomials)
#: run at cache bandwidth instead of streaming from memory.  Values from
#: a budget sweep on the N=8192 sheet benchmark (single-core BLAS).
NEAR_GEMM_BUDGET_BYTES = 3 * 2**20
FAR_BUDGET_BYTES = 16 * 2**20

# approximate float64 temporaries, used only to size batches — order of
# magnitude accuracy suffices.  "elem" is per padded (target, source)
# pair; the near "pair" bytes are per padded source lane.
_NEAR_ELEM_BYTES = {True: 112, False: 56}
_NEAR_GEMM_ELEM_BYTES = {True: 64, False: 40}
_NEAR_PAIR_BYTES = {True: 264, False: 96}
#: per padded (target, cluster-node) far pair: monomial + Ycat rows,
#: radial chain, gather/output blocks
_FAR_PAIR_BYTES = 904
_FAR_BYTES_PER_PAIR = {True: 1200, False: 600}  # flat Coulomb path
_NEAR_BYTES_PER_PAIR = {True: 480, False: 240}

#: cached far-weight sets per layout — one per live moment set times
#: (order, gradient) combination; PFASST alternates a handful of charge
#: sets over the same positions, so keep enough slots to avoid thrash
_FAR_WEIGHT_SLOTS = 16

#: near product-expansion gate: the GEMM distance/feature expansion is
#: used only when every *target* sits within this many core sizes of its
#: group center.  The expansion noise of ``|t|^2 + |s|^2 - 2 t.s`` and
#: of the split cross products is ~(|t| / sigma)^2 ulps relative to the
#: kernel scale (distant sources self-limit: the kernel decays faster
#: than the expanded magnitudes grow), so small-leaf production trees
#: (|t| ~ 2 sigma) stay at reference accuracy while coarse-leaf stress
#: shapes fall back to the explicit path.
_NEAR_EXPAND_SIGMA = 4.0


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """Exclusive-prefix-sum with a leading 0 (length ``a.size + 1``)."""
    out = np.empty(a.size + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(a, out=out[1:])
    return out


def _segment_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenation of ``arange(c)`` for every ``c`` in ``counts``."""
    starts = _cumsum0(counts)[:-1]
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


@dataclass
class SegmentLayout:
    """Interaction-list pairs grouped by target group (CSR layout)."""

    #: pair node ids, ordered by group index
    node: np.ndarray
    #: (n_groups,) pairs per group
    counts: np.ndarray
    #: (n_groups + 1,) exclusive prefix offsets into ``node``
    starts: np.ndarray


def segment_layout(
    group: np.ndarray, node: np.ndarray, n_groups: int
) -> SegmentLayout:
    """Group the ``(group, node)`` pair list into per-group segments.

    One ``np.bincount`` + ``cumsum`` replaces the seed's argsort +
    ``searchsorted`` bookkeeping; the stable argsort only runs when the
    pairs are not already group-ordered (the traversal emits each wave
    group-ordered, so short lists frequently need no sort at all).
    """
    counts = np.bincount(group, minlength=n_groups).astype(np.int64)
    starts = _cumsum0(counts)
    if group.size > 1 and np.any(np.diff(group) < 0):
        node = node[np.argsort(group, kind="stable")]
    return SegmentLayout(node=node, counts=counts, starts=starts)


@dataclass
class TraversalLayout:
    """Everything the batched engine needs, precomputed per traversal.

    Group-indexed arrays follow the order of ``lists.groups``; per-slot
    arrays are indexed by *sorted particle slot* (the Morton order the
    tree stores) and serve the flat chunked Coulomb path, whose ``cum``
    prefix sums cut the pair streams into chunks.
    """

    far: SegmentLayout
    near: SegmentLayout
    #: per-group target slot range and geometric center
    group_start: np.ndarray
    group_count: np.ndarray
    group_center: np.ndarray
    #: concatenated near source slots, one contiguous block per group
    src_concat: np.ndarray
    #: per-group range into ``src_concat``
    src_start: np.ndarray
    src_count: np.ndarray
    #: far pairs per slot / segment base offset per slot / prefix sum
    far_count: np.ndarray
    far_base: np.ndarray
    far_cum: np.ndarray
    near_count: np.ndarray
    near_base: np.ndarray
    near_cum: np.ndarray
    #: unique far cluster nodes (ascending) with their pair CSR: node
    #: ``far_nodes_u[k]`` interacts with targets ``far_pair_targets[
    #: far_node_pair_start[k]:far_node_pair_start[k + 1]]`` (sorted slots)
    far_nodes_u: np.ndarray = field(default=None)
    far_node_pair_start: np.ndarray = field(default=None)
    far_pair_targets: np.ndarray = field(default=None)
    #: max squared distance of any target to its group center — drives
    #: the near product-expansion gate (see ``_NEAR_EXPAND_SIGMA``)
    group_radius2: float = 0.0
    #: cached cluster-frame far weights, keyed by ``(moments.token,
    #: order, gradient)``.  The weights are built from moment *values*,
    #: while the layout itself is purely geometric and outlives any one
    #: charge set (the TreeState caches it per ``(theta, variant)``) —
    #: so the moment token MUST be part of the key, or a charge change
    #: over the same particle positions would be served weights of the
    #: previous charge set.  Insertion-ordered; oldest entries are
    #: evicted beyond ``_FAR_WEIGHT_SLOTS``.
    far_weights: Dict[Tuple[int, int, bool], np.ndarray] = field(
        default_factory=dict
    )

    @property
    def far_pairs(self) -> int:
        return int(self.far_cum[-1])

    @property
    def near_pairs(self) -> int:
        return int(self.near_cum[-1])


def _group_of_slot(tree: Octree, groups: np.ndarray) -> np.ndarray:
    """Group index of every sorted particle slot (leaves tile the slots)."""
    starts = tree.node_start[groups]
    sizes = tree.node_end[groups] - starts
    order = np.argsort(starts)
    return np.repeat(np.arange(groups.size, dtype=np.int64)[order],
                     sizes[order])


def build_traversal_layout(
    tree: Octree, lists: InteractionLists
) -> TraversalLayout:
    """Expand interaction lists into the per-group and per-slot tables."""
    n_groups = lists.n_groups
    far = segment_layout(lists.far_group, lists.far_node, n_groups)
    near = segment_layout(lists.near_group, lists.near_node, n_groups)
    gi = _group_of_slot(tree, lists.groups)

    group_start = tree.node_start[lists.groups]
    group_count = tree.node_end[lists.groups] - group_start
    group_center = tree.node_center[lists.groups]

    far_count = far.counts[gi]
    far_base = far.starts[:-1][gi]
    far_cum = _cumsum0(far_count)

    # near: concatenate every group's source leaf ranges once
    leaf_sizes = tree.node_count(near.node)
    total_src = int(leaf_sizes.sum())
    src_concat = (
        np.repeat(tree.node_start[near.node], leaf_sizes)
        + _segment_arange(leaf_sizes, total_src)
    )
    cum_sizes = _cumsum0(leaf_sizes)
    sources_per_group = cum_sizes[near.starts[1:]] - cum_sizes[near.starts[:-1]]
    group_src_offset = _cumsum0(sources_per_group)
    near_count = sources_per_group[gi]
    near_base = group_src_offset[:-1][gi]
    near_cum = _cumsum0(near_count)

    # far pairs regrouped by cluster node: the cluster-frame far driver
    # walks unique nodes, each paired with the concatenated target slots
    # of every group that accepted it
    n_far_entries = far.node.size
    if n_far_entries:
        entry_group = np.repeat(
            np.arange(n_groups, dtype=np.int64), far.counts
        )
        order_e = np.argsort(far.node, kind="stable")
        nodes_sorted = far.node[order_e]
        gsort = entry_group[order_e]
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(nodes_sorted)) + 1, [n_far_entries])
        )
        far_nodes_u = nodes_sorted[bounds[:-1]]
        ecount = group_count[gsort]
        pair_cum = _cumsum0(ecount)
        far_node_pair_start = pair_cum[bounds]
        far_pair_targets = np.repeat(group_start[gsort], ecount)
        far_pair_targets += _segment_arange(ecount, int(pair_cum[-1]))
    else:
        far_nodes_u = np.empty(0, np.int64)
        far_node_pair_start = np.zeros(1, np.int64)
        far_pair_targets = np.empty(0, np.int64)

    if gi.size:
        d = tree.positions - group_center[gi]
        group_radius2 = float(np.einsum("ij,ij->i", d, d).max())
    else:
        group_radius2 = 0.0

    return TraversalLayout(
        far=far,
        near=near,
        group_start=group_start,
        group_count=group_count,
        group_center=group_center,
        src_concat=src_concat,
        src_start=group_src_offset[:-1],
        src_count=sources_per_group,
        far_count=far_count,
        far_base=far_base,
        far_cum=far_cum,
        near_count=near_count,
        near_base=near_base,
        near_cum=near_cum,
        far_nodes_u=far_nodes_u,
        far_node_pair_start=far_node_pair_start,
        far_pair_targets=far_pair_targets,
        group_radius2=group_radius2,
    )


# ---------------------------------------------------------------------------
# batching helpers
# ---------------------------------------------------------------------------

def _pack_groups(
    idx: np.ndarray,
    tcount: np.ndarray,
    kcount: np.ndarray,
    elem_bytes: int,
    pair_bytes: int,
    budget: int,
) -> List[np.ndarray]:
    """Greedy group batches under ``budget`` temporary bytes.

    Cost model: ``B * Cmax * Kmax * elem_bytes`` padded pair temporaries
    plus ``B * Kmax * pair_bytes`` per-lane state.  ``idx`` should arrive
    sorted by ``kcount`` descending so padding stays tight.  Every batch
    holds at least one group, so progress is made for any budget.
    """
    batches: List[np.ndarray] = []
    tc, kc = tcount[idx], kcount[idx]
    i, n = 0, idx.size
    while i < n:
        cmax, kmax = int(tc[i]), int(kc[i])
        j = i + 1
        while j < n:
            c = max(cmax, int(tc[j]))
            k = max(kmax, int(kc[j]))
            nb = j + 1 - i
            if nb * k * (c * elem_bytes + pair_bytes) > budget:
                break
            cmax, kmax = c, k
            j += 1
        batches.append(idx[i:j])
        i = j
    return batches


def _padded_lanes(
    start: np.ndarray, count: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Padded per-group index block (B, width) plus its validity mask.

    Padding lanes repeat the group's last element so every gathered
    index is in range; callers mask their contributions.
    """
    lane = np.minimum(np.arange(width), count[:, None] - 1)
    return start[:, None] + lane, np.arange(width) < count[:, None]


def _slot_chunks(
    cum: np.ndarray, chunk_pairs: int
) -> Iterator[Tuple[int, int]]:
    """Cut slots into ranges of roughly ``chunk_pairs`` pairs each.

    A single slot whose pair count exceeds the budget still forms its own
    chunk (progress is always made).
    """
    n = cum.size - 1
    a = 0
    while a < n:
        b = int(np.searchsorted(cum, cum[a] + max(chunk_pairs, 1), "left"))
        b = min(max(b, a + 1), n)
        yield a, b
        a = b


def _expand(
    count: np.ndarray, base: np.ndarray, a: int, b: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pair expansion for slots ``[a, b)``.

    Returns ``(reps, flat_index, total)`` where ``reps`` is the slot
    offset (relative to ``a``) of each pair — non-decreasing, so segment
    sums per target are contiguous — and ``flat_index`` points into the
    layout's segment array.
    """
    c = count[a:b]
    total = int(c.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    reps = np.repeat(np.arange(b - a, dtype=np.int64), c)
    within = _segment_arange(c, total)
    return reps, base[a:b][reps] + within, total


def _scatter_add(
    out: np.ndarray, a: int, reps: np.ndarray, contrib: np.ndarray
) -> None:
    """Segment-sum per-pair contributions onto ``out`` (sorted order)."""
    seg = np.concatenate(
        ([0], np.flatnonzero(np.diff(reps)) + 1)
    )
    out[a + reps[seg]] += np.add.reduceat(contrib, seg, axis=0)


def _chunk_size(budget_bytes: Optional[int], bytes_per_pair: int) -> int:
    budget = DEFAULT_BUDGET_BYTES if budget_bytes is None else budget_bytes
    return max(4096, budget // bytes_per_pair)


# ---------------------------------------------------------------------------
# vortex (vector charge) drivers
# ---------------------------------------------------------------------------

def batched_far_vortex(
    tree: Octree,
    moments: VortexMoments,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    order: int,
    gradient: bool,
    vel: np.ndarray,
    grad: Optional[np.ndarray],
    budget_bytes: Optional[int] = None,
) -> None:
    """Far-field multipole pass, accumulated into sorted-order outputs.

    Cluster-frame factorization (see :mod:`repro.tree.localbasis`): each
    unique cluster node carries a weight matrix ``W`` mapping D-weighted
    monomials of ``r = target - center`` straight to velocity/gradient
    components, so the per-pair work is the radial chain, one incremental
    monomial table and a single batched GEMM; results land on the targets
    via one ``np.bincount`` per output component.  ``W`` is built once
    per (order, gradient) and cached on the layout.  Exact — matches the
    pairwise kernel to rounding error.
    """
    if layout.far_pairs == 0 or layout.far_nodes_u.size == 0:
        return
    budget = FAR_BUDGET_BYTES if budget_bytes is None else budget_bytes
    need = order + (2 if gradient else 1)
    ncols = BLOCK_END[need - 1]
    nout = 12 if gradient else 3
    n_mono = DEG_START[need + 1]
    nodes_u = layout.far_nodes_u
    wt = layout.far_weights.get((moments.token, order, gradient))
    if wt is None:
        w = node_far_weights(
            moments.m0[nodes_u],
            moments.m1[nodes_u] if order >= 1 else None,
            moments.m2[nodes_u] if order >= 2 else None,
            order, gradient,
        )
        # store transposed/sliced for the (B, nout, ncols) GEMM operand
        wt = np.ascontiguousarray(w[:, :ncols, :nout].transpose(0, 2, 1))
        layout.far_weights[(moments.token, order, gradient)] = wt
        while len(layout.far_weights) > _FAR_WEIGHT_SLOTS:
            layout.far_weights.pop(next(iter(layout.far_weights)))
    centers = moments.center[nodes_u]

    pstart = layout.far_node_pair_start
    pcount = pstart[1:] - pstart[:-1]
    korder = np.argsort(-pcount, kind="stable")
    # consecutive runs of the count-sorted nodes; the first (largest)
    # node of a run fixes the padded width
    batches: List[np.ndarray] = []
    i = 0
    while i < korder.size:
        pmax = int(pcount[korder[i]])
        nb = max(1, int(budget // max(pmax * _FAR_PAIR_BYTES, 1)))
        batches.append(korder[i:i + nb])
        i += nb

    pcap = max(int(pcount[kb[0]]) * kb.size for kb in batches)
    rt = np.empty((3, pcap), dtype=np.float64)
    psi = np.empty((n_mono, pcap), dtype=np.float64)
    ycat = np.empty((ncols, pcap), dtype=np.float64)
    n = vel.shape[0]
    gflat = grad.reshape(n, 9) if gradient else None
    pos = tree.positions
    for kbatch in batches:
        bsz = kbatch.size
        p = int(pcount[kbatch].max())
        pall = bsz * p
        lanes, valid = _padded_lanes(pstart[:-1][kbatch], pcount[kbatch], p)
        tflat = layout.far_pair_targets[lanes].reshape(-1)
        ppos = pos[tflat]
        ctr = centers[kbatch]
        rtv = rt[:, :pall]
        for c in range(3):
            np.subtract(
                ppos[:, c].reshape(bsz, p), ctr[:, c, None],
                out=rtv[c].reshape(bsz, p),
            )
        r2 = rtv[0] * rtv[0]
        r2 += rtv[1] * rtv[1]
        r2 += rtv[2] * rtv[2]
        chain = radial_chain(kernel, r2, sigma, need)
        if not valid.all():
            # padding lanes repeat a real pair; zeroing their chain
            # values zeroes every Ycat column they touch
            invalid = ~valid
            for arr in chain:
                arr.reshape(bsz, p)[invalid] = 0.0
        psiv = psi[:, :pall]
        monomial_rows(rtv, n_mono, psiv)
        ycv = ycat[:, :pall]
        for blk in range(need):
            lo, c0, c1 = BLOCK_LO[blk], BLOCK_COL[blk], BLOCK_END[blk]
            np.multiply(
                psiv[lo:lo + (c1 - c0)], chain[blk][None, :],
                out=ycv[c0:c1],
            )
        yb = ycv.reshape(ncols, bsz, p).transpose(1, 0, 2)
        out = np.matmul(wt[kbatch], yb)  # (bsz, nout, p)
        for c in range(3):
            vel[:, c] += np.bincount(
                tflat, weights=out[:, c, :].ravel(), minlength=n
            )
        if gradient:
            for c in range(9):
                gflat[:, c] += np.bincount(
                    tflat, weights=out[:, 3 + c, :].ravel(), minlength=n
                )


def batched_near_vortex(
    tree: Octree,
    charges_sorted: np.ndarray,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    gradient: bool,
    exclude_zero: bool,
    vel: np.ndarray,
    grad: Optional[np.ndarray],
    budget_bytes: Optional[int] = None,
) -> None:
    """Near-field direct pass, accumulated into sorted-order outputs.

    Dense form of :func:`~repro.vortex.rhs.biot_savart_pairs`: with
    ``r = t - s`` the cross products split into per-target and
    per-source factors,

        sum f (r x a)            = t x Fa - Fsxa,     F* = GEMM of f,

    and with ``h = g (r x a)`` kept per pair the gradient term splits
    once,

        sum h_a r_d   = (sum h)_a t_d - sum_s h_a s_d,

    where the second sum is again a batched matrix product over the
    sources.  Positions enter all split terms *relative to the group
    center*, and only one factor of ``r`` is ever expanded — ``h``
    itself stays on the scale of the true pair contribution — so
    rounding noise stays at the level of the reference path instead of
    being amplified by ``(|t| / |r|)^2``.  Distances stay explicit (no
    product expansion of ``r^2``): exact zeros are detected exactly
    (coincident points shift identically) and there is no cancellation.

    When every target lies within ``_NEAR_EXPAND_SIGMA`` core sizes of
    its group center (the production tree regime: leaves a few ``sigma``
    across) the pass switches to a fully expanded form —
    ``r^2`` from the GEMM identity ``|t|^2 + |s|^2 - 2 t.s`` and the
    gradient from 24 per-source feature columns contracted by two GEMMs
    per batch — which never materialises a (targets x sources x 3) pair
    tensor.  The expansion noise is bounded by the gate; ``exclude_zero``
    (singular kernels) always takes the explicit path, which detects
    exact zero distances reliably.
    """
    if layout.near_pairs == 0:
        return
    pos = tree.positions

    counts = layout.src_count
    active = np.flatnonzero(counts > 0)
    if active.size == 0:
        return
    active = active[np.argsort(-counts[active], kind="stable")]
    # The expanded path also requires a genuine multipole regime
    # (far pairs exist): theta ~ 0 degenerates every interaction to a
    # near pair spanning the whole domain, where the product expansion
    # amplifies rounding beyond reference accuracy.
    expand = (
        not exclude_zero
        and layout.far_pairs > 0
        and layout.group_radius2 <= (_NEAR_EXPAND_SIGMA * sigma) ** 2
    )
    if budget_bytes is not None:
        budget = budget_bytes
    else:
        budget = NEAR_GEMM_BUDGET_BYTES if expand else DEFAULT_BUDGET_BYTES
    elem_bytes = (
        _NEAR_GEMM_ELEM_BYTES[gradient] if expand
        else _NEAR_ELEM_BYTES[gradient]
    )
    batches = _pack_groups(
        active, layout.group_count, counts,
        elem_bytes, _NEAR_PAIR_BYTES[gradient], budget,
    )
    for batch in batches:
        b = batch.size
        tc = layout.group_count[batch]
        sc = counts[batch]
        cmax, smax = int(tc.max()), int(sc.max())
        tidx, tvalid = _padded_lanes(layout.group_start[batch], tc, cmax)
        slane, svalid = _padded_lanes(layout.src_start[batch], sc, smax)
        sidx = layout.src_concat[slane]

        gc = layout.group_center[batch][:, None, :]
        t = pos[tidx] - gc  # (B, C, 3), group-local frame
        s = pos[sidx] - gc  # (B, S, 3)
        a = charges_sorted[sidx]
        flat = tidx[tvalid]

        if expand:
            # every feature column is linear in the charge, so zeroed
            # padded lanes contribute nothing to either GEMM
            a[~svalid] = 0.0
            sxa = _cross(s, a)
            r2 = np.matmul(t, s.transpose(0, 2, 1))
            r2 *= -2.0
            r2 += np.einsum("bci,bci->bc", t, t)[:, :, None]
            r2 += np.einsum("bsi,bsi->bs", s, s)[:, None, :]
            np.maximum(r2, 0.0, out=r2)  # GEMM form can round below zero
            f, g = kernel.f_g_from_r2(r2, sigma, gradient)
            nf = 24 if gradient else 6
            feat = np.empty((b, smax, nf), dtype=np.float64)
            feat[:, :, 0:3] = a
            feat[:, :, 3:6] = sxa
            if gradient:
                np.multiply(
                    a[:, :, :, None], s[:, :, None, :],
                    out=feat[:, :, 6:15].reshape(b, smax, 3, 3),
                )
                np.multiply(
                    sxa[:, :, :, None], s[:, :, None, :],
                    out=feat[:, :, 15:24].reshape(b, smax, 3, 3),
                )
            ff = np.matmul(f, feat[:, :, 0:6])
            u = _cross(t, ff[..., 0:3])
            u -= ff[..., 3:6]
            u *= -_INV_FOUR_PI
            vel[flat] += u[tvalid]
            if gradient:
                gg = np.matmul(g, feat)
                # sum_s h = t x (sum g a) - sum g (s x a)
                hsum = _cross(t, gg[..., 0:3])
                hsum -= gg[..., 3:6]
                g3 = gg[..., 6:15].reshape(b, cmax, 3, 3)
                g4 = gg[..., 15:24].reshape(b, cmax, 3, 3)
                # sum_s h_a s_d = (t X sum g a (x) s) - sum g (s x a)(x)s
                gm = hsum[..., :, None] * t[..., None, :]
                np.negative(g3, out=g3)
                _cross_matrix_add(gm, t, g3)
                gm += g4
                _eps_add(gm, ff[..., 0:3])
                gm *= -_INV_FOUR_PI
                grad[flat] += gm[tvalid]
            continue

        r = t[:, :, None, :] - s[:, None, :, :]
        r2 = np.einsum("bcsi,bcsi->bcs", r, r)
        if not gradient:
            del r
        if exclude_zero:
            zero = r2 == 0.0
            r2[zero] = 1.0
        f, g = kernel.f_g_from_r2(r2, sigma, gradient)
        f *= svalid[:, None, :]
        if exclude_zero:
            f[zero] = 0.0
        fg = np.empty((b, smax, 6), dtype=np.float64)
        fg[:, :, 0:3] = a
        fg[:, :, 3:6] = _cross(s, a)
        ff = np.matmul(f, fg)
        u = _cross(t, ff[..., 0:3])
        u -= ff[..., 3:6]
        u *= -_INV_FOUR_PI
        vel[flat] += u[tvalid]

        if gradient:
            g *= svalid[:, None, :]
            if exclude_zero:
                g[zero] = 0.0
            h = _cross(r, a[:, None, :, :])
            del r
            h *= g[..., None]
            gm = np.einsum("bcsa->bca", h)[..., :, None] * t[..., None, :]
            gm -= np.matmul(h.transpose(0, 1, 3, 2), s[:, None, :, :])
            _eps_add(gm, ff[..., 0:3])
            gm *= -_INV_FOUR_PI
            grad[flat] += gm[tvalid]


# ---------------------------------------------------------------------------
# Coulomb (scalar charge) drivers
# ---------------------------------------------------------------------------

def batched_far_coulomb(
    tree: Octree,
    moments: CoulombMoments,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    order: int,
    phi: np.ndarray,
    field: np.ndarray,
    budget_bytes: Optional[int] = None,
) -> None:
    """Far-field multipole pass for scalar charges (sorted order)."""
    if layout.far_pairs == 0:
        return
    m1 = moments.m1 if order >= 1 else None
    m2 = moments.m2 if order >= 2 else None
    chunk = _chunk_size(budget_bytes, _FAR_BYTES_PER_PAIR[False])
    for a, b in _slot_chunks(layout.far_cum, chunk):
        reps, idx, total = _expand(layout.far_count, layout.far_base, a, b)
        if total == 0:
            continue
        nodes = layout.far.node[idx]
        p, e = evaluate_coulomb_far_pairs(
            tree.positions[a:b][reps],
            moments.center[nodes],
            moments.m0[nodes],
            m1[nodes] if m1 is not None else None,
            m2[nodes] if m2 is not None else None,
            kernel,
            sigma,
            order=order,
        )
        _scatter_add(phi, a, reps, p)
        _scatter_add(field, a, reps, e)


def batched_near_coulomb(
    tree: Octree,
    charges_sorted: np.ndarray,
    layout: TraversalLayout,
    kernel: SmoothingKernel,
    sigma: float,
    exclude_zero: bool,
    phi: np.ndarray,
    field: np.ndarray,
    budget_bytes: Optional[int] = None,
) -> None:
    """Near-field direct pass for scalar charges (sorted order)."""
    if layout.near_pairs == 0:
        return
    chunk = _chunk_size(budget_bytes, _NEAR_BYTES_PER_PAIR[False])
    for a, b in _slot_chunks(layout.near_cum, chunk):
        reps, idx, total = _expand(layout.near_count, layout.near_base, a, b)
        if total == 0:
            continue
        src = layout.src_concat[idx]
        p, e = coulomb_pairs(
            tree.positions[a:b][reps],
            tree.positions[src],
            charges_sorted[src],
            kernel=kernel,
            sigma=sigma,
            exclude_zero=exclude_zero,
        )
        _scatter_add(phi, a, reps, p)
        _scatter_add(field, a, reps, e)
