"""TreeState cache: hits, invalidation, fine/coarse sharing, counters."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.tree import TreeEvaluator, TreeStateCache, array_fingerprint
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=300)
    ps = spherical_vortex_sheet(cfg)
    return ps, cfg, get_kernel("algebraic6")


def _lookups(registry):
    """The registry's ``tree.cache.*`` counters, keyed by
    ``<stage>.<hits|misses>``."""
    return {
        k[len("tree.cache."):]: v
        for k, v in registry.as_dict()["counters"].items()
        if k.startswith("tree.cache.")
    }


ALL_HIT = {"build.hits": 1, "moment.hits": 1, "traversal.hits": 1}
ALL_MISS = {"build.misses": 1, "moment.misses": 1, "traversal.misses": 1}


def _fresh_evaluator(sheet, **kw):
    ps, cfg, kernel = sheet
    kw.setdefault("theta", 0.3)
    kw.setdefault("leaf_size", 24)
    return TreeEvaluator(kernel, cfg.sigma, **kw)


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self, rng):
        a = rng.normal(size=(50, 3))
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        b = a.copy()
        b[17, 2] += 1e-12
        assert array_fingerprint(a) != array_fingerprint(b)

    def test_shape_and_dtype_matter(self):
        flat = np.zeros(12)
        assert array_fingerprint(flat) != array_fingerprint(
            flat.reshape(4, 3)
        )
        assert array_fingerprint(flat) != array_fingerprint(
            flat.astype(np.float32)
        )

    def test_non_contiguous_input(self, rng):
        a = rng.normal(size=(40, 6))
        view = a[:, ::2]
        assert array_fingerprint(view) == array_fingerprint(
            np.ascontiguousarray(view)
        )


class TestRepeatedEvaluation:
    def test_identical_state_hits_every_stage(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        with use_metrics(MetricsRegistry()) as m:
            first = ev.field(ps.positions, ps.charges)
        assert _lookups(m) == ALL_MISS
        with use_metrics(MetricsRegistry()) as m:
            second = ev.field(ps.positions, ps.charges)
        assert _lookups(m) == ALL_HIT
        assert np.array_equal(first.velocity, second.velocity)
        assert np.array_equal(first.gradient, second.gradient)

    def test_perturbed_positions_invalidate(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        moved = ps.positions.copy()
        moved[0, 0] += 1e-9
        with use_metrics(MetricsRegistry()) as m:
            ev.field(moved, ps.charges)
        assert _lookups(m) == ALL_MISS

    def test_perturbed_charges_invalidate_moments_only(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        bumped = ps.charges.copy()
        bumped[3, 1] *= 1.0 + 1e-10
        with use_metrics(MetricsRegistry()) as m:
            ev.field(ps.positions, bumped)
        assert _lookups(m) == {
            "build.hits": 1,  # same positions: tree reused
            "moment.misses": 1,  # new charges: moments recomputed
            "traversal.hits": 1,  # traversal is geometry-only
        }

    def test_charge_change_is_bitwise_pure(self, sheet):
        """Regression: the engine layout (cached per geometry) lazily
        caches *moment-derived* far weights.  Before the weights were
        keyed by moment identity, evaluating charge set A and then
        charge set B over the same positions served B the weights built
        from A's moments — the warm path returned a different answer
        than a cold evaluator.  Caught in a P_T=4 x P_N=3 PFASST run by
        the node-group digest cross-check."""
        ps, _, _ = sheet
        other = ps.charges * 1.1 + 1e-3
        warm = _fresh_evaluator(sheet)
        warm.field(ps.positions, other, gradient=True)
        with use_metrics(MetricsRegistry()) as m:
            hit = warm.field(ps.positions, ps.charges, gradient=True)
        # warm geometry, new charges
        assert _lookups(m) == {
            "build.hits": 1, "moment.misses": 1, "traversal.hits": 1,
        }
        cold = _fresh_evaluator(sheet).field(
            ps.positions, ps.charges, gradient=True
        )
        assert np.array_equal(hit.velocity, cold.velocity)
        assert np.array_equal(hit.gradient, cold.gradient)

    def test_inplace_mutation_cannot_go_stale(self, sheet):
        """Content fingerprinting: mutating the caller's array in place is
        a miss, never a stale hit."""
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        pos = ps.positions.copy()
        before = ev.field(pos, ps.charges)
        pos[: pos.shape[0] // 2] *= 1.05  # in-place, same object identity
        with use_metrics(MetricsRegistry()) as m:
            after = ev.field(pos, ps.charges)
        assert _lookups(m) == ALL_MISS
        assert not np.allclose(before.velocity, after.velocity)

    def test_build_timed_only_on_miss(self, sheet):
        """A warm repeat records only the summation phase spans."""
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        with use_tracer(Tracer()) as tracer:
            ev.field(ps.positions, ps.charges)
        assert [(s.name, s.cat, s.clock) for s in tracer.spans] == [
            ("far_field", "phase", "wall"), ("near_field", "phase", "wall"),
        ]


class TestFineCoarseSharing:
    def test_coarsened_shares_cache_and_tree(self, sheet):
        ps, _, _ = sheet
        fine = _fresh_evaluator(sheet, theta=0.3)
        coarse = fine.coarsened(0.6)
        assert coarse.cache is fine.cache
        assert coarse.theta == 0.6
        fine.field(ps.positions, ps.charges)
        # coarse reuses the fine build + moments, runs its own traversal
        with use_metrics(MetricsRegistry()) as m:
            coarse.field(ps.positions, ps.charges)
        assert _lookups(m) == {
            "build.hits": 1, "moment.hits": 1, "traversal.misses": 1,
        }
        assert len(fine.cache) == 1

    def test_shared_results_match_unshared(self, sheet):
        ps, _, _ = sheet
        fine = _fresh_evaluator(sheet, theta=0.3)
        shared = fine.coarsened(0.6)
        fine.field(ps.positions, ps.charges)
        out_shared = shared.field(ps.positions, ps.charges)
        solo = _fresh_evaluator(sheet, theta=0.6)
        out_solo = solo.field(ps.positions, ps.charges)
        assert np.array_equal(out_shared.velocity, out_solo.velocity)
        assert np.array_equal(out_shared.gradient, out_solo.gradient)

    def test_explicit_shared_cache_parameter(self, sheet):
        ps, cfg, kernel = sheet
        cache = TreeStateCache(maxsize=4)
        a = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=24,
                          cache=cache)
        b = TreeEvaluator(kernel, cfg.sigma, theta=0.6, leaf_size=24,
                          cache=cache)
        with use_metrics(MetricsRegistry()) as m:
            a.field(ps.positions, ps.charges)
            b.field(ps.positions, ps.charges)
        assert _lookups(m)["build.hits"] == 1
        assert _lookups(m)["build.misses"] == 1

    def test_different_leaf_size_is_a_different_state(self, sheet):
        ps, cfg, kernel = sheet
        cache = TreeStateCache()
        a = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=16,
                          cache=cache)
        b = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=32,
                          cache=cache)
        with use_metrics(MetricsRegistry()) as m:
            a.field(ps.positions, ps.charges)
            b.field(ps.positions, ps.charges)
        assert _lookups(m)["build.misses"] == 2
        assert "build.hits" not in _lookups(m)
        assert len(cache) == 2


class TestEviction:
    def test_lru_bound_holds(self, sheet, rng):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.cache.maxsize = 2
        configs = [ps.positions + 0.01 * k for k in range(4)]
        for pos in configs:
            ev.field(pos, ps.charges)
        assert len(ev.cache) == 2
        # oldest state evicted: re-evaluating it is a miss again
        with use_metrics(MetricsRegistry()) as m:
            ev.field(configs[0], ps.charges)
        assert _lookups(m) == ALL_MISS

    def test_clear(self, sheet):
        ps, _, _ = sheet
        ev = _fresh_evaluator(sheet)
        ev.field(ps.positions, ps.charges)
        ev.cache.clear()
        assert len(ev.cache) == 0
        with use_metrics(MetricsRegistry()) as m:
            ev.field(ps.positions, ps.charges)
        assert _lookups(m) == ALL_MISS

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            TreeStateCache(maxsize=0)

