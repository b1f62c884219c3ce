"""Literal pins for every path that builds a deployment.

A change in construction order (an RNG stream drawn in another order, a
stack bound to another node) changes results silently; every value below
pins the wiring, so a change to any of them means a deployment is now wired
differently.

Covered: the multi-hop run (fault-free, and with slow and lossy links), a
short multi-hop stream, and one short churn stream, whose committee
reconfigurations rebuild the per-member stacks mid-run.
"""

import pytest

from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.harness import run_multihop_consensus
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec, ChurnSpec

HB_DIGEST = "204e116266968237ddfdbed306d6c5a299a9c8909f63994f95288d04959aa4ab"
BEAT_DIGEST = "7a93b8f25a034dedeb0b4ab472dbf3750fd4a786aa8bb16c1ddf3a11bb43f85a"

#: protocol -> (block digest, latency_s, sim_events) on scale_multi_hop(2, 4)
CLASSIC_PINS = {
    "honeybadger-sc": (HB_DIGEST, 0.2643007037085377, 1434),
    "beat": (BEAT_DIGEST, 0.2590230813602643, 1476),
}

#: the epoch-0 leaders of scale_multi_hop(2, 4)
LEADERS = (0, 5)


@pytest.mark.parametrize("protocol", sorted(CLASSIC_PINS))
def test_classic_multihop_pins(protocol):
    digest, latency, events = CLASSIC_PINS[protocol]
    result = run_multihop_consensus(protocol, Scenario.scale_multi_hop(2, 4),
                                    seed=0)
    assert result.decided
    assert result.block_digest == digest
    assert result.per_leader_digest == {leader: digest for leader in LEADERS}
    assert result.latency_s == latency
    assert result.sim_events == events


def test_classic_network_faults_pin():
    # Slow and lossy links are registered for every node of the topology.
    scenario = Scenario.scale_multi_hop(2, 4).with_byzantine(
        ByzantineSpec(assignments={0: "slow-links", 6: "lossy-links"}))
    result = run_multihop_consensus("honeybadger-sc", scenario, seed=0)
    digest = "3cdcd8ff003ba8681f0588ad14e2d9b17dda7c07b8f10df3a96c60b5776956e0"
    assert result.decided
    assert result.block_digest == digest
    assert result.per_leader_digest == {leader: digest for leader in LEADERS}
    assert result.committed_transactions == 48
    assert result.latency_s == 8.483326632440953
    assert result.sim_events == 1786


def test_multihop_stream_pins():
    spec = StreamingSpec(epochs=3, batch_size=3, warmup=12,
                         arrival=ArrivalSpec(rate_tps=4.0, transaction_bytes=32,
                                             max_mempool=512))
    result = run_streaming_consensus(
        "honeybadger-sc", Scenario.scale_multi_hop(2, 4), spec, seed=11)
    assert result.decided
    assert result.epochs_completed == 3
    assert result.committed_transactions == 27
    assert result.per_epoch_digests == (
        "091922fcfadac0d57dfda27937bb54a0325a7e5ce340a46797c9d582d1e98615",
        "b8e5d02aa116653d7a6cf4baf41892abb93e3bbdb5daa3ba1d7c9be4cffc319a",
        "996804771763bad1b0cf89cc28f07055554719854b5c5ac5e43a3ef672211d65",
    )
    assert result.ledger_digest == (
        "89cb526afd7e69a3ffe03d27a7647243ac294bf030897c1b9698a37617d1cd2d")
    assert result.sim_events == 4412


def test_churn_stream_pins():
    # Four of five nodes start in the committee (so install() already
    # rebuilds the stacks once); node 2 crashes at 40 s and node 4 replaces
    # it at the epoch-4 boundary.
    churn = ChurnSpec(initial_size=4, crash_times=(40.0,),
                      replace_crashed=True, horizon_s=100.0)
    spec = StreamingSpec(epochs=6, batch_size=3, warmup=12,
                         arrival=ArrivalSpec(rate_tps=4.0, transaction_bytes=32,
                                             max_mempool=512))
    result = run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(5).with_membership(churn), spec,
        seed=7)
    assert result.decided
    assert result.per_epoch_digests == (
        "4d6e509c84f9b5530e3979af4ea12e517c2255a0fb143918b05e1e5227a97683",
        "99125c47d4a13033e96083ab40de14d5c4cb3c08741abdbc543e37b45159fa9e",
        "378e877deab7db368bd0c74466590ebf64a6408f91beeaf05030864184223e67",
        "19c44c7acb2888105dc018a00f3ffc62f4fa04a6a8e380eff9da448170d0c346",
        "bc2f289958be17f5646ceb57f10547bfaf3f2698a67187f838c0a33eae2b40b2",
        "fe75017a53e6756316f275ba15622f1b676d701bdd310e3b2649dcb0ce4d8b78",
    )
    assert result.ledger_digest == (
        "0a891fcce611b81b9a1a5bc501b1628c8c07d2ecdb978f90364896c1459c58a1")
    assert result.sim_events == 4460
    trail = [(record.epoch, record.members, record.joined, record.departed,
              record.crashed, record.reconfigured)
             for record in result.committees]
    before = (0, 1, 2, 3)
    after = (0, 1, 3, 4)
    assert trail == [
        (0, before, (), (), (), False),
        (1, before, (), (), (), False),
        (2, before, (), (), (), False),
        (3, before, (), (), (), False),
        (4, after, (4,), (), (2,), True),
        (5, after, (), (), (), False),
    ]
