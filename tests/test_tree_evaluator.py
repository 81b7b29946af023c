"""Tests for the full Barnes-Hut evaluators against direct summation."""

import pickle

import numpy as np
import pytest

from repro.nbody import coulomb_direct
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.tree import TreeCoulombSolver, TreeEvaluator
from repro.vortex import DirectEvaluator, get_kernel, spherical_vortex_sheet
from repro.vortex.kernels import GaussianKernel
from repro.vortex.sheet import SheetConfig


@pytest.fixture(scope="module")
def sheet_setup():
    cfg = SheetConfig(n=400)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    ref = DirectEvaluator(kernel, cfg.sigma).field(ps.positions, ps.charges)
    return ps, cfg, kernel, ref


class TestAccuracy:
    def test_theta_zero_matches_direct_exactly(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        tree = TreeEvaluator(kernel, cfg.sigma, theta=0.0, leaf_size=24)
        out = tree.field(ps.positions, ps.charges)
        assert np.allclose(out.velocity, ref.velocity, rtol=1e-12, atol=1e-14)
        assert np.allclose(out.gradient, ref.gradient, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("theta,tol", [(0.3, 2e-3), (0.6, 2e-2)])
    def test_accuracy_at_paper_thetas(self, sheet_setup, theta, tol):
        ps, cfg, kernel, ref = sheet_setup
        tree = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24)
        out = tree.field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.velocity - ref.velocity)) / np.max(
            np.abs(ref.velocity)
        )
        assert rel < tol

    def test_error_monotone_in_theta(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        errs = []
        for theta in (0.2, 0.5, 1.0):
            out = TreeEvaluator(kernel, cfg.sigma, theta=theta,
                                leaf_size=24).field(ps.positions, ps.charges)
            errs.append(np.max(np.abs(out.velocity - ref.velocity)))
        assert errs[0] < errs[1] < errs[2]

    def test_cost_decreases_with_theta(self, sheet_setup):
        """The paper's coarsening premise: larger theta => less work."""
        ps, cfg, kernel, _ = sheet_setup
        work = []
        for theta in (0.3, 0.6):
            ev = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24)
            with use_metrics(MetricsRegistry()) as m:
                ev.field(ps.positions, ps.charges)
            work.append(m.histogram("tree.interactions_per_particle").total)
        assert work[1] < work[0]

    def test_multipole_order_improves_accuracy(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        errs = []
        for order in (0, 1, 2):
            out = TreeEvaluator(kernel, cfg.sigma, theta=0.5, order=order,
                                leaf_size=24).field(ps.positions, ps.charges)
            errs.append(np.max(np.abs(out.velocity - ref.velocity)))
        assert errs[2] < errs[0]

    def test_gradient_accuracy(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.3,
                            leaf_size=24).field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.gradient - ref.gradient)) / np.max(
            np.abs(ref.gradient)
        )
        assert rel < 5e-3

    def test_no_gradient_mode(self, sheet_setup):
        ps, cfg, kernel, _ = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.3).field(
            ps.positions, ps.charges, gradient=False
        )
        assert out.gradient is None

    def test_bmax_variant_works(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.4, leaf_size=24,
                            mac_variant="bmax").field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.velocity - ref.velocity)) / np.max(
            np.abs(ref.velocity)
        )
        assert rel < 2e-2

    def test_result_in_caller_order(self, sheet_setup, rng):
        """Scatter back: permuting the input permutes the output."""
        ps, cfg, kernel, _ = sheet_setup
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=24)
        out = ev.field(ps.positions, ps.charges)
        perm = rng.permutation(ps.n)
        out_p = ev.field(ps.positions[perm], ps.charges[perm])
        assert np.allclose(out_p.velocity, out.velocity[perm], atol=1e-11)


class TestValidation:
    def test_gaussian_kernel_rejected(self):
        with pytest.raises(ValueError, match="multipole"):
            TreeEvaluator(GaussianKernel(), 0.5)

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="theta"):
            TreeEvaluator("algebraic6", 0.5, theta=-0.1)

    def test_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            TreeEvaluator("algebraic6", 0.5, order=5)

    def test_stats_populated(self, sheet_setup):
        ps, cfg, kernel, _ = sheet_setup
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.5, leaf_size=24)
        with use_metrics(MetricsRegistry()) as m:
            ev.field(ps.positions, ps.charges)
        counters = m.as_dict()["counters"]
        assert counters["tree.evaluations"] == 1
        assert counters["tree.mac_tests"] > 0
        assert counters["tree.far_pairs"] + counters["tree.near_pairs"] > 0
        ipp = m.histogram("tree.interactions_per_particle")
        assert ipp.count == 1 and ipp.total > 0

    def test_cold_evaluation_records_every_phase(self, sheet_setup):
        """Each tree pipeline phase is a wall span of the active tracer
        (the warm case is ``test_build_timed_only_on_miss``)."""
        ps, cfg, kernel, _ = sheet_setup
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.5, leaf_size=24)
        with use_tracer(Tracer()) as tracer:
            ev.field(ps.positions, ps.charges)
        phases = ["tree_build", "moments", "traverse", "layout",
                  "far_field", "near_field"]
        assert [s.name for s in tracer.spans] == phases
        assert all(s.cat == "phase" and s.clock == "wall"
                   for s in tracer.spans)
        traverse = tracer.spans[phases.index("traverse")]
        assert traverse.t1 > traverse.t0


class TestPickling:
    def test_evaluator_roundtrips(self):
        """ProcessExecutor ships evaluators to its workers by pickle: a
        round-tripped evaluator must evaluate bitwise-equal."""
        cfg = SheetConfig(n=600)
        ps = spherical_vortex_sheet(cfg)
        ev = TreeEvaluator(get_kernel("algebraic6"), cfg.sigma, theta=0.6)
        ref = ev.field(ps.positions, ps.charges)
        clone = pickle.loads(pickle.dumps(ev))
        out = clone.field(ps.positions, ps.charges)
        assert (out.velocity == ref.velocity).all()


class TestCoulombTree:
    def test_matches_direct(self, rng):
        pos = rng.normal(size=(500, 3))
        q = rng.normal(size=500)
        phi_ref, e_ref = coulomb_direct(pos, pos, q)
        solver = TreeCoulombSolver(theta=0.4, leaf_size=24)
        phi, e = solver.compute(pos, q)
        assert np.max(np.abs(phi - phi_ref)) / np.max(np.abs(phi_ref)) < 5e-3
        assert np.max(np.abs(e - e_ref)) / np.max(np.abs(e_ref)) < 5e-3

    def test_theta_zero_exact(self, rng):
        pos = rng.normal(size=(200, 3))
        q = rng.normal(size=200)
        phi_ref, e_ref = coulomb_direct(pos, pos, q)
        phi, e = TreeCoulombSolver(theta=0.0, leaf_size=24).compute(pos, q)
        assert np.allclose(phi, phi_ref, atol=1e-12)
        assert np.allclose(e, e_ref, atol=1e-12)

    def test_neutral_plasma_setup(self, rng):
        """The Fig. 5 workload: homogeneous neutral Coulomb system."""
        n = 400
        pos = rng.random((n, 3))
        q = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        solver = TreeCoulombSolver(theta=0.6, leaf_size=24)
        with use_metrics(MetricsRegistry()) as m:
            phi, e = solver.compute(pos, q)
        assert np.all(np.isfinite(phi))
        assert np.all(np.isfinite(e))
        assert m.as_dict()["counters"]["tree.far_pairs"] > 0
