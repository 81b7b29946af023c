"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench -q

The workloads are shrunk to N = 400; everything else (levels, gate,
tracing, result printing) is the benchmark's own code path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # pins BLAS threads and puts src/ on the path

run._import_library()

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SMOKE_N = 400
SEED = 7


@pytest.fixture
def smoke(monkeypatch):
    table = {name: dataclasses.replace(wl, n=SMOKE_N)
             for name, wl in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    return table


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_metric_prints_with_its_unit(smoke, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(smoke) == sorted(w["name"] for w in spec["workloads"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _result(capsys, ["--workload", "grid2x2-procs-1k", "--seed",
                               str(SEED), "--seconds", "0", "--trace", str(trace)])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        printed = {k: v["unit"] for k, v in out["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(v["value"], (int, float))
                   for v in out["metrics"].values())


def test_wrong_evaluator_fails_the_gate(smoke, monkeypatch):
    wl = smoke["rhs-sheet-16k"]
    op = workloads.Bench(wl, SEED, fine_theta=1.5).operation(0)
    assert any(f.startswith("fine error") for f in op.failures)

    _, attempted, failed, metrics, _ = run.untraced_run(wl, SEED, 0)
    assert failed == 0 and metrics["pass_ratio"] == 1.0
    monkeypatch.setattr(workloads, "Bench",
                        functools.partial(workloads.Bench, fine_theta=1.5))
    _, attempted, failed, metrics, _ = run.untraced_run(wl, SEED, 0)
    assert failed == attempted >= 1
    assert metrics["pass_ratio"] == 0.0


def test_counts_repeat_exactly(smoke):
    wl = smoke["grid2x2-procs-1k"]
    first, second = (run.traced_run(wl, SEED, 0)[3] for _ in range(2))
    exact = [k for k in first
             if k.startswith(("rhs.calls.", "mpi."))
             or (k.startswith("tree.") and "_interactions." in k)]
    assert len(exact) == 8
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["mpi.messages"] > 0 and first["tree.far_interactions.fine"] > 0
    # PFASST(2,2,2), 3 fine nodes x 1 sweep, 2 coarse nodes x 2 sweeps
    assert (first["rhs.calls.fine"], first["rhs.calls.coarse"]) == (11, 26)


def test_interaction_counts_match_the_interaction_lists():
    """The far/near counts read from the engine layout equal the counts
    of the InteractionLists a traversal of the same particles returns."""
    from repro.tree.build import build_octree
    from repro.tree.multipole import compute_vortex_moments
    from repro.tree.traversal import dual_traversal
    from repro.vortex.particles import unpack_state

    wl = dataclasses.replace(workloads.WORKLOADS["rhs-sheet-16k"], n=SMOKE_N)
    bench = workloads.Bench(wl, SEED)
    u = bench.initial_state(0)
    rec = layers.SpanRecorder(ROOT / ".bench_out", "test-lists")
    undo = layers.install(rec, {workloads.THETA_FINE: "fine",
                                workloads.THETA_COARSE: "coarse"})
    try:
        rec.begin_op(0)
        bench.fine.rhs(0.0, u)
        rec.end_op()
    finally:
        undo()
    positions, vorticity = unpack_state(u)
    tree = build_octree(positions, leaf_size=workloads.LEAF_SIZE)
    moments = compute_vortex_moments(tree, vorticity * bench.sheet.volumes[:, None])
    lists = dual_traversal(tree, workloads.THETA_FINE, node_bmax=moments.bmax)
    (far,) = [s for s in rec.spans if s["name"] == "tree.far"]
    (near,) = [s for s in rec.spans if s["name"] == "tree.near"]
    (traverse,) = [s for s in rec.spans if s["name"] == "tree.traverse"]
    assert far["attrs"]["pairs"] == lists.far_interaction_count(tree)
    assert near["attrs"]["pairs"] == lists.near_interaction_count(tree)
    assert traverse["attrs"]["mac_tests"] == lists.mac_tests
    assert far["level"] == near["level"] == traverse["level"] == "fine"


def test_self_time_subtracts_covered_child_time():
    parent = {"t0": 0.0, "t1": 10.0}
    children = [{"t0": 1.0, "t1": 3.0}, {"t0": 2.0, "t1": 4.0},
                {"t0": 9.0, "t1": 12.0}]
    assert layers._self_time(parent, children) == pytest.approx(10 - 3 - 1)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rhs-sheet-16k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
