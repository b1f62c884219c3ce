"""Unit tests of the conservative-synchronization engine.

Exercises the :mod:`repro.net.shard` pieces in isolation: the
digest-preserving boundary codec, ghost transmissions on the backbone
mirror (carrier sensing, symmetric collisions, delivery through the normal
pipeline), per-shard bounds, horizon computation and the ``run_conservative``
coordinator with toy runners.
"""

import math
import pickle

import pytest

from repro.net.channel import (
    BoundaryCodecError,
    Frame,
    WirelessChannel,
    decode_boundary_frame,
    encode_boundary_frame,
)
from repro.net.radio import WIFI_LIKE
from repro.net.shard import (
    Emission,
    GhostMac,
    Lookahead,
    ShardBackboneChannel,
    ShardRunner,
    ShardSyncError,
    _InProcessPool,
    next_horizon,
    run_conservative,
)
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace
from repro.testbed.scenarios import WIFI_CSMA


# ---------------------------------------------------------------------------
# boundary codec
# ---------------------------------------------------------------------------

class TestBoundaryCodec:
    def test_round_trip_preserves_every_wire_field(self):
        frame = Frame(sender=7, payload={"digest": "ab" * 32, "body": b"x" * 40},
                      size_bytes=123, channel="global")
        frame.frame_id = 42
        decoded = decode_boundary_frame(encode_boundary_frame(frame))
        assert decoded.sender == 7
        assert decoded.payload == frame.payload
        assert decoded.size_bytes == 123
        assert decoded.channel == "global"
        assert decoded.frame_id == 42
        assert decoded.builder is None

    def test_encoding_is_deterministic(self):
        def make():
            frame = Frame(sender=1, payload=(b"p", 3), size_bytes=10)
            frame.frame_id = 5
            return frame
        assert encode_boundary_frame(make()) == encode_boundary_frame(make())

    def test_pending_builder_is_rejected(self):
        frame = Frame(sender=1, payload=None, size_bytes=10,
                      builder=lambda: (b"late", 4))
        with pytest.raises(BoundaryCodecError, match="builder"):
            encode_boundary_frame(frame)

    def test_unpicklable_payload_raises_codec_error(self):
        frame = Frame(sender=1, payload=lambda: None, size_bytes=10)
        with pytest.raises(BoundaryCodecError, match="not serializable"):
            encode_boundary_frame(frame)


# ---------------------------------------------------------------------------
# backbone mirror + ghosts
# ---------------------------------------------------------------------------

class _StubMac:
    """Minimal MAC for driving the channel directly."""

    def __init__(self, node_id, node=None):
        self.node_id = node_id
        self.node = node
        self.done = []

    def was_transmitting_during(self, start, end):
        return False

    def on_transmit_done(self, frame, collided):
        self.done.append((frame.frame_id, collided))


class _StubNode:
    def __init__(self):
        self.delivered = []

    def deliver_frame(self, frame):
        self.delivered.append(frame)


def _mirror(sim, shard_index=0):
    return ShardBackboneChannel(sim, WIFI_LIKE, NetworkTrace(), name="global",
                                shard_index=shard_index)


def _emit(channel, mac, sender=1, size=64):
    frame = Frame(sender=sender, payload=b"payload", size_bytes=size)
    transmission = channel.transmit(mac, frame)
    [emission] = channel.drain_outbound()
    return transmission, emission


class TestShardBackboneChannel:
    def test_local_transmission_is_captured_as_emission(self):
        sim = Simulator()
        channel = _mirror(sim, shard_index=3)
        transmission, emission = _emit(channel, _StubMac(1), sender=1)
        assert emission.shard == 3
        assert emission.seq == 0
        assert emission.sender == 1
        assert emission.start == transmission.start
        assert emission.end == transmission.end
        assert decode_boundary_frame(emission.data).payload == b"payload"
        # drained: a second drain is empty
        assert channel.drain_outbound() == []

    def test_emission_seq_increments_per_transmission(self):
        sim = Simulator()
        channel = _mirror(sim)
        mac = _StubMac(1)
        channel.transmit(mac, Frame(sender=1, payload=b"a", size_bytes=8))
        sim.run()
        channel.transmit(mac, Frame(sender=1, payload=b"b", size_bytes=8))
        first, second = channel.drain_outbound()
        assert (first.seq, second.seq) == (0, 1)

    def test_ghost_delivers_through_normal_pipeline(self):
        # Home shard: transmit and capture the emission.
        home_sim = Simulator(seed=1)
        home = _mirror(home_sim, shard_index=0)
        _, emission = _emit(home, _StubMac(1), sender=1)
        # Remote shard: inject at the same instant; a local receiver hears it.
        remote_sim = Simulator(seed=2)
        remote = _mirror(remote_sim, shard_index=1)
        node = _StubNode()
        receiver = _StubMac(2, node=node)
        remote.attach(receiver)
        remote.inject_remote(emission)
        remote_sim.run()
        assert len(node.delivered) == 1
        assert node.delivered[0].payload == b"payload"
        # the home shard's frame id (its _frame_seq starts at 1) survives
        # the codec round-trip
        assert node.delivered[0].frame_id == 1
        assert remote.trace.channels["global"].delivered_frames == 1
        # the ghost's sender got no local transmit-done callback
        assert receiver.done == []

    def test_ghost_occupies_the_channel(self):
        sim = Simulator()
        home = _mirror(Simulator(), shard_index=0)
        _, emission = _emit(home, _StubMac(1))
        remote = _mirror(sim, shard_index=1)
        remote.inject_remote(emission)
        assert remote.busy_until == emission.end
        assert remote.is_busy()

    def test_ghost_collides_symmetrically_with_local_transmission(self):
        # Shard A transmits at t=0; shard B independently transmits at t=0.
        # At the barrier each side injects the other's ghost; both sides must
        # mark both transmissions collided from (start, end) data alone.
        sim_a, sim_b = Simulator(seed=1), Simulator(seed=2)
        side_a, side_b = _mirror(sim_a, 0), _mirror(sim_b, 1)
        mac_a, mac_b = _StubMac(1), _StubMac(2)
        node_a, node_b = _StubNode(), _StubNode()
        mac_a.node, mac_b.node = node_a, node_b
        side_a.attach(mac_a)
        side_b.attach(mac_b)
        tx_a, emission_a = _emit(side_a, mac_a, sender=1)
        tx_b, emission_b = _emit(side_b, mac_b, sender=2)
        ghost_b = side_a.inject_remote(emission_b)
        ghost_a = side_b.inject_remote(emission_a)
        assert tx_a.collided and ghost_b.collided
        assert tx_b.collided and ghost_a.collided
        sim_a.run()
        sim_b.run()
        # nothing delivered anywhere, collision recorded once per real tx
        assert node_a.delivered == [] and node_b.delivered == []
        assert side_a.trace.channels["global"].collisions == 1
        assert side_b.trace.channels["global"].collisions == 1
        # the real senders saw their own collision locally
        assert mac_a.done == [(tx_a.frame.frame_id, True)]
        assert mac_b.done == [(tx_b.frame.frame_id, True)]

    def test_collided_ghost_stays_silent(self):
        home = _mirror(Simulator(), 0)
        _, emission = _emit(home, _StubMac(1))
        sim = Simulator()
        remote = _mirror(sim, 1)
        node = _StubNode()
        local_mac = _StubMac(2, node=node)
        remote.attach(local_mac)
        # local transmission overlapping the ghost
        remote.transmit(local_mac, Frame(sender=2, payload=b"l", size_bytes=64))
        remote.drain_outbound()
        remote.inject_remote(emission)
        sim.run()
        assert node.delivered == []
        # only the local (real) transmission records the collision here
        assert remote.trace.channels["global"].collisions == 1

    def test_ghost_injection_off_the_clock_is_rejected(self):
        home = _mirror(Simulator(), 0)
        _, emission = _emit(home, _StubMac(1))
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        remote = _mirror(sim, 1)
        with pytest.raises(ShardSyncError, match="horizon protocol"):
            remote.inject_remote(emission)

    def test_ghost_mac_is_inert(self):
        ghost = GhostMac(9)
        assert ghost.node_id == 9
        assert ghost.was_transmitting_during(0.0, 1.0) is False
        assert ghost.on_transmit_done(None, collided=False) is None


# ---------------------------------------------------------------------------
# bounds, horizons, coordinator
# ---------------------------------------------------------------------------

class TestHorizon:
    LOOKAHEAD = Lookahead(difs_s=0.001, rx_turnaround_s=0.002)

    def test_min_of_bounds_and_timeout(self):
        assert next_horizon([2.0, 1.5], [], self.LOOKAHEAD, 60.0) == 1.5
        assert next_horizon([100.0], [], self.LOOKAHEAD, 60.0) == 60.0

    def test_fresh_emission_caps_the_horizon(self):
        emission = Emission(shard=0, seq=0, sender=1, start=1.0, end=1.1,
                            size_bytes=8, data=b"")
        horizon = next_horizon([5.0], [emission], self.LOOKAHEAD, 60.0)
        assert horizon == pytest.approx(1.1 + 0.002 + 0.001)

    def test_no_candidates_falls_to_timeout(self):
        assert next_horizon([], [], self.LOOKAHEAD, 60.0) == 60.0
        assert next_horizon([math.inf], [], self.LOOKAHEAD, 60.0) == 60.0


class _ToyRunner(ShardRunner):
    """A shard with a few plain events and no backbone."""

    def __init__(self, shard_index, event_times):
        sim = Simulator(seed=shard_index)
        self.ran = []
        for when in event_times:
            sim.schedule(when, lambda w=when: self.ran.append(w))
        super().__init__(shard_index, sim, backbone=None, backbone_macs=[],
                         difs_s=0.001,
                         done=lambda: len(self.ran) == len(event_times))

    def finish(self):
        return {"shard": self.shard_index, "ran": list(self.ran)}


class TestRunConservative:
    def test_runs_all_shards_to_completion(self):
        times = {0: [0.5, 1.5], 1: [1.0], 2: [2.5, 2.6]}
        decided, stop, finals = run_conservative(
            lambda index: _ToyRunner(index, times[index]), num_shards=3,
            lookahead=Lookahead(difs_s=0.001, rx_turnaround_s=0.002),
            timeout_s=60.0)
        assert decided is True
        assert stop <= 60.0
        assert [final["ran"] for final in finals] == [[0.5, 1.5], [1.0],
                                                      [2.5, 2.6]]

    def test_timeout_reported_as_not_decided(self):
        class NeverDone(_ToyRunner):
            def __init__(self, index):
                super().__init__(index, [0.5])
                self.done = lambda: False

        decided, stop, _ = run_conservative(
            lambda index: NeverDone(index), num_shards=2,
            lookahead=Lookahead(difs_s=0.001, rx_turnaround_s=0.002),
            timeout_s=5.0)
        assert decided is False
        assert stop == 5.0

    def test_zero_shards_rejected(self):
        with pytest.raises(ShardSyncError):
            run_conservative(lambda index: _ToyRunner(index, []), 0,
                             Lookahead(0.001, 0.002), 1.0)

    def test_zero_workers_rejected(self):
        # a worker count below one used to be clamped to one in silence
        with pytest.raises(ShardSyncError, match="workers must be at least 1"):
            run_conservative(lambda index: _ToyRunner(index, [0.5]), 1,
                             Lookahead(0.001, 0.002), 1.0, workers=0)

    def test_stalled_horizon_rejected(self):
        # a shard promising an already-elapsed bound would make the window
        # sequence move backwards; the coordinator refuses it
        class Stuck(_ToyRunner):
            def bound(self):
                return 0.0

        with pytest.raises(ShardSyncError, match="stalled"):
            run_conservative(lambda index: Stuck(index, [0.5]), 1,
                             Lookahead(0.001, 0.002), 1.0)

    def test_in_process_pool_steps_every_shard_to_the_horizon(self):
        seen = []
        first, second = _ToyRunner(0, [0.5]), _ToyRunner(1, [0.2, 0.8])
        first.poll = lambda: seen.append(0)
        second.poll = lambda: seen.append(1)
        pool = _InProcessPool([first, second])
        assert [result.processed for result in pool.step(0.6, {})] == [1, 1]
        assert first.sim.now == 0.6 and second.sim.now == 0.6
        assert [result.processed for result in pool.step(1.0, {})] == [0, 1]
        assert seen == [0, 1, 1]

    def test_nonpositive_difs_rejected(self):
        with pytest.raises(ShardSyncError, match="DIFS"):
            ShardRunner(0, Simulator(), None, [], difs_s=0.0)

    def test_ghosts_require_a_backbone(self):
        runner = _ToyRunner(0, [])
        emission = Emission(shard=1, seq=0, sender=1, start=0.0, end=0.1,
                            size_bytes=8, data=b"")
        with pytest.raises(ShardSyncError, match="no[\\s]+backbone"):
            runner.inject([emission])

    def test_results_are_picklable(self):
        # worker replies cross a multiprocessing pipe
        emission = Emission(shard=0, seq=1, sender=2, start=0.5, end=0.6,
                            size_bytes=16, data=b"frame")
        assert pickle.loads(pickle.dumps(emission)) == emission


class TestLookaheadFromScenarioProfiles:
    def test_wifi_profile_has_positive_lookahead(self):
        # The conservative engine needs difs > 0 (minimum CSMA deferral);
        # the profile every multi-hop scenario uses provides it.
        assert WIFI_CSMA.difs_s > 0.0
        assert WIFI_LIKE.rx_turnaround_s > 0.0
