"""Fixed-accuracy check behind the PFASST workloads (run by hand, untimed).

    python3 perfbench/accuracy.py --workload grid2x2-procs-1k --seed 2012

Integrates the workload's initial state (operation 0 of the seed) over
its interval with PFASST, with serial SDC(4) on the same steps, and with
an SDC(8) reference on 5 Lobatto nodes and a quarter of the step, all on
the workload's own tree evaluators, and prints the relative maximum
position error of PFASST and SDC(4) against the reference.
"""

from __future__ import annotations

import argparse
import json
import time

import run  # pins BLAS threads

run._import_library()

import numpy as np  # noqa: E402

from repro.pfasst import run_pfasst  # noqa: E402
from repro.sdc import SDCStepper  # noqa: E402
from workloads import FINE_NODES, LINK, WORKLOADS, Bench  # noqa: E402


def rel_max_position_error(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(u[0] - ref[0]).max() / np.abs(ref[0]).max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="grid2x2-procs-1k",
                        choices=[n for n, w in WORKLOADS.items() if w.kind == "pfasst"])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed)
    bench.start()
    u0 = bench.initial_state(0)
    dt = wl.t_end / wl.p_time
    row = {"workload": wl.name, "n": wl.n, "seed": args.seed,
           "t_end": wl.t_end, "dt": dt}
    try:
        t0 = time.perf_counter()
        pfasst = run_pfasst(bench.config, bench.specs, u0, p_time=wl.p_time,
                            p_space=wl.p_space, cost_model=LINK,
                            executor=bench.executor).u_end
        row["pfasst_s"] = time.perf_counter() - t0
    finally:
        bench.close()
    t0 = time.perf_counter()
    sdc4 = SDCStepper(bench.fine, num_nodes=FINE_NODES, sweeps=4).run(
        u0, 0.0, wl.t_end, dt)
    row["sdc4_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = SDCStepper(bench.fine, num_nodes=5, sweeps=8).run(
        u0, 0.0, wl.t_end, dt / 4)
    row["reference_s"] = time.perf_counter() - t0
    row["pfasst_error"] = rel_max_position_error(pfasst, ref)
    row["sdc4_error"] = rel_max_position_error(sdc4, ref)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
