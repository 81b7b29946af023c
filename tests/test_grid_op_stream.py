"""Op-stream pins for the single space-time(-node) grid program.

Every ``run_pfasst`` shape runs through one rank program over one
:class:`~repro.parallel.topology.SpaceTimeGrid`, where a dimension of
extent 1 gets no communicator and costs no message.  The time-only
(P_T x 1 x 1) and 2D (P_T x P_S x 1) streams are pinned to their
determinism-certificate digests and message counts; the node-parallel
stream must send fewer messages than the historical separate 3D path
(which split a size-1 space comm and a separate recovery plane) while
staying bitwise equal to its P_N = 1 counterpart.
"""

import numpy as np
import pytest

from repro.parallel.chaos import ChaosODE
from repro.parallel.simmpi import CommCostModel
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import LevelSpec

RECOVERY = ("fail", "warm-restart")

#: (p_time, p_space, p_nodes, recovery) -> (certificate digest, messages)
PINNED = {
    (4, 1, 1, "fail"): ("5754489c1833e6db9535d10c4f9471e6", 21),
    (4, 1, 1, "warm-restart"): ("6d21b6dc4f752c4062b078a5d527768b", 39),
    (2, 2, 1, "fail"): ("8a062b911371a0f071ebb85bbf06368b", 40),
    (2, 2, 1, "warm-restart"): ("88f46fb885e1b6831a9b957b0e359f8d", 76),
}

#: messages of the 2 x 1 x 2 run when a size-1 space comm and a separate
#: recovery plane were still split; the single grid program sends fewer
NODE_SPLIT_MESSAGES = {"fail": 62, "warm-restart": 104}


def _run(p_time, p_space, p_nodes, recovery):
    problem = ChaosODE()
    specs = [LevelSpec(problem, 5, 1), LevelSpec(problem, 3, 2)]
    config = PfasstConfig(t0=0.0, t_end=0.8, n_steps=4, iterations=2,
                          recovery=recovery)
    return run_pfasst(
        config, specs, np.array([1.0, 0.0]), p_time=p_time,
        p_space=p_space, p_nodes=p_nodes,
        cost_model=CommCostModel(latency=1e-6, bandwidth=1e9), certify=True,
    )


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_time_only_and_2d_streams_are_pinned(shape):
    *dims, recovery = shape
    res = _run(*dims, recovery)
    digest, n_messages = PINNED[shape]
    assert res.certificate.digest == digest
    assert res.certificate.n_messages == n_messages


@pytest.mark.parametrize("recovery", RECOVERY)
def test_node_axis_sends_fewer_messages(recovery):
    res = _run(2, 1, 2, recovery)
    assert res.certificate.n_messages < NODE_SPLIT_MESSAGES[recovery]


@pytest.mark.parametrize("recovery", RECOVERY)
@pytest.mark.parametrize("p_time,p_space", [(2, 1), (2, 2), (4, 1)])
def test_node_axis_is_bitwise_neutral(p_time, p_space, recovery):
    flat = _run(p_time, p_space, 1, recovery)
    nodes = _run(p_time, p_space, 2, recovery)
    assert nodes.u_end.tobytes() == flat.u_end.tobytes()
