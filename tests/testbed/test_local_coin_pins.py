"""Literal pins for the local-coin ABA (ABA-LC) path.

The conformance campaign has no local-coin cell, so without these pins only
``RESULTS.md`` would notice a behaviour change in
:class:`~repro.components.aba_bracha.BrachaAba` or in the receive path that
feeds it.  Every value below was recorded before the receive path was made
incremental; a change to any of them means the protocol now sends other
messages, in another order or at other virtual times.
"""

import pytest

import repro.testbed.harness as harness
from repro.testbed.harness import run_consensus
from repro.testbed.ingress import ingress_profile
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec

CONSENSUS_PINS = [
    ("honeybadger-lc", 1,
     "184f048795edd12972526e4e89278eb9141c47320503b7b2ecf599635d63f610", 440),
    ("honeybadger-lc", 2,
     "cd38e26d7b74050a2422157796949602014c90aabce6d2066e36c70ee2590521", 409),
    ("honeybadger-lc", 3,
     "e8853d5c70e4bd09b5d8d7ccb7b7f6ee45186ee59eab55af1bc7f31b523e6611", 449),
    ("dumbo-lc", 1,
     "184f048795edd12972526e4e89278eb9141c47320503b7b2ecf599635d63f610", 1045),
    ("dumbo-lc", 2,
     "c39b52d02a51481996b3cf78e25c04969b7e0a9b645d6eb81760799184661bf2", 1110),
    ("dumbo-lc", 3,
     "e8853d5c70e4bd09b5d8d7ccb7b7f6ee45186ee59eab55af1bc7f31b523e6611", 1210),
]


@pytest.mark.parametrize("protocol,seed,digest,sim_events", CONSENSUS_PINS)
def test_local_coin_consensus_pins(protocol, seed, digest, sim_events):
    result = run_consensus(protocol, Scenario.single_hop(4), seed=seed,
                           batch_size=3, transaction_bytes=32)
    assert result.decided
    assert result.block_digest == digest
    assert result.sim_events == sim_events


def test_local_coin_aba_experiment_pins(monkeypatch):
    # ComponentRunResult carries no event count; read it off the deployment
    # the experiment builds.
    built = []
    build = harness.build_deployment

    def recording_build(*args, **kwargs):
        deployment = build(*args, **kwargs)
        built.append(deployment)
        return deployment

    monkeypatch.setattr(harness, "build_deployment", recording_build)
    result = harness.run_aba_experiment("lc", parallel_instances=4,
                                        num_nodes=8, seed=0)
    assert result.completed
    assert result.rounds_executed == 32
    assert result.bytes_sent == 3252
    assert result.channel_accesses == 60
    assert len(built) == 1
    assert built[0].sim.events_processed == 1261


def test_local_coin_ingress_stream_pin():
    spec = StreamingSpec(epochs=3, batch_size=4,
                         arrival=ArrivalSpec(rate_tps=120.0,
                                             transaction_bytes=48,
                                             max_mempool=256))
    result = run_streaming_consensus(
        "honeybadger-lc", Scenario.scale_single_hop(8), spec, seed=5,
        ingress=ingress_profile("three-class-shed"))
    assert result.decided
    assert result.epochs_completed == 3
    assert result.committed_transactions == 37
    assert result.sim_events == 8636
    assert result.ledger_digest == (
        "41059e4a0fae083bedebf6b4c777a3df069aa50af2c8c9f2398f67aa785981bd")
