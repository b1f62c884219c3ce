"""The benchmark's three workloads, their correctness gate and their samples.

Each workload is one single-process, single-threaded run of a public harness
entry point on the classic single-heap simulator.  A benchmark run executes
a workload several times ("reps"), each rep on its own seed derived from the
benchmark's ``--seed`` (:func:`rep_seed`), so a run's simulated results are
a pure function of ``(workload, --seed, rep count)``.

Why these three (each stresses different layers; see README.md):

* ``lora-hb-sc-n4`` -- the paper's LoRa testbed: HoneyBadger with the shared
  threshold coin on four nodes, a saturated warm-mempool FIFO stream.
  Crypto-bound; LoRa airtime sets the simulated latency.
* ``wifi-hb-lc-n8-ingress`` -- HoneyBadger with Bracha local-coin ABA on
  eight Wi-Fi nodes behind the three-class shedding ingress, open loop past
  saturation.  Component- and transport-bound with little crypto; exercises
  the priority pool and admission gate instead of the FIFO pool.
* ``wifi-multihop-8x8`` -- one two-phase multi-hop epoch over 8 clusters of
  8 nodes (64 nodes, 9 channels).  The event core, routing and the harness
  termination predicate; the classic-engine baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.testbed.dealer_cache import DealerCache
from repro.testbed.harness import build_deployment, run_multihop_consensus
from repro.testbed.ingress import ingress_profile
from repro.testbed.invariants import (
    RunObserver,
    check_all,
    check_ingress_conservation,
    check_ledger_continuity,
)
from repro.testbed.metrics import percentile
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec


def rep_seed(workload: str, seed: int, index: int) -> int:
    """The program seed of rep ``index`` of a run started with ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class RepSample:
    """What one rep leaves for the metrics and the correctness gate."""

    committed: int
    sim_events: int
    digest: str
    #: virtual seconds the rep's committed transactions took
    sim_duration_s: float
    #: samples of sim_epoch_latency_p50_s: per-epoch latencies (streams)
    #: or honest leaders' global decide times (multi-hop), virtual seconds
    latencies_s: list
    #: samples of sim_epoch_latency_tail_s, one per independent epoch:
    #: per-epoch latencies (streams) or the slowest honest leader's decide
    #: time, the paper's latency_s (multi-hop)
    tail_samples_s: list
    channel_accesses: int
    bytes_sent: int
    collisions: int
    #: ``(name, ok, detail)`` for every verdict of the correctness gate
    verdicts: list = field(default_factory=list)
    #: ingress only: high-priority class (p50 s, p90 s, committed count)
    client: Optional[tuple] = None
    #: ingress only: (shed, offered) over every class
    shed: Optional[tuple] = None


def _gate(observer: RunObserver, decided: bool, timeout_s: float) -> list:
    return [(v.name, v.ok, v.detail)
            for v in check_all(observer, decided, expect_decision=True,
                               timeout_s=timeout_s)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: reps whose simulated results make up the sim_* metrics (a timed run
    #: runs at least this many, then more until --seconds have passed)
    sim_reps: int
    #: reps run untraced and then traced by a --trace 1 run
    trace_reps: int
    protocol: str
    scenario: Scenario

    def prepare(self, seed: int, cache: DealerCache) -> None:
        """Deal (or load) every key the rep at ``seed`` will use into the
        disk tier of ``cache``, off the clock."""
        build_deployment(self.scenario, seed=seed,
                         dealer_cache=cache).shutdown()

    def run(self, seed: int, observer: RunObserver) -> Any:
        """One rep through the public entry point."""
        raise NotImplementedError

    def sample(self, result: Any, observer: RunObserver) -> RepSample:
        raise NotImplementedError


@dataclass(frozen=True)
class StreamWorkload(Workload):
    spec: Optional[StreamingSpec] = None
    #: ingress profile name ("" = the plain FIFO mempool)
    ingress: str = ""

    latency_samples = "per-epoch latencies"

    def run(self, seed: int, observer: RunObserver) -> Any:
        return run_streaming_consensus(
            self.protocol, self.scenario, self.spec, seed=seed,
            observer=observer,
            ingress=ingress_profile(self.ingress) if self.ingress else None)

    def sample(self, result: Any, observer: RunObserver) -> RepSample:
        verdicts = [("decided", result.decided, "")]
        verdicts.append((
            "epochs-complete",
            result.epochs_completed == result.epochs_target,
            f"{result.epochs_completed}/{result.epochs_target} epochs"))
        verdicts += _gate(observer, result.decided, self.scenario.timeout_s)
        continuity = check_ledger_continuity(result.per_epoch,
                                             result.ledger_digest)
        verdicts.append((continuity.name, continuity.ok, continuity.detail))
        client = shed = None
        if self.ingress:
            conservation = check_ingress_conservation(result.classes)
            verdicts.append((conservation.name, conservation.ok,
                             conservation.detail))
            high = max(result.classes, key=lambda record: record.priority)
            client = (high.p50_latency_s, high.p90_latency_s, high.committed)
            shed = (result.shed_total,
                    sum(record.offered for record in result.classes))
        return RepSample(
            committed=result.committed_transactions,
            sim_events=result.sim_events, digest=result.ledger_digest,
            sim_duration_s=result.duration_s,
            latencies_s=list(result.epoch_latencies_s),
            tail_samples_s=list(result.epoch_latencies_s),
            channel_accesses=result.channel_accesses,
            bytes_sent=result.bytes_sent, collisions=result.collisions,
            verdicts=verdicts, client=client, shed=shed)


@dataclass(frozen=True)
class MultiHopWorkload(Workload):
    latency_samples = ("honest leaders' global decide times; tail samples "
                       "are each epoch's slowest leader (latency_s)")

    def run(self, seed: int, observer: RunObserver) -> Any:
        return run_multihop_consensus(self.protocol, self.scenario,
                                      seed=seed, observer=observer)

    def sample(self, result: Any, observer: RunObserver) -> RepSample:
        verdicts = [("decided", result.decided, "")]
        verdicts += _gate(observer, result.decided, self.scenario.timeout_s)
        verdicts.append(("committed", result.committed_transactions > 0,
                         f"{result.committed_transactions} transactions"))
        leaders = [decision.decide_time
                   for decision in observer.decisions_in("global")]
        return RepSample(
            committed=result.committed_transactions,
            sim_events=result.sim_events, digest=result.block_digest,
            sim_duration_s=result.latency_s, latencies_s=leaders,
            tail_samples_s=[result.latency_s],
            channel_accesses=result.channel_accesses,
            bytes_sent=result.bytes_sent, collisions=result.collisions,
            verdicts=verdicts)


WORKLOADS = {
    workload.name: workload for workload in (
        StreamWorkload(
            name="lora-hb-sc-n4",
            why="paper LoRa testbed: saturated FIFO HoneyBadger-SC stream on "
                "4 nodes; crypto-bound, airtime sets simulated latency",
            sim_reps=10, trace_reps=2,
            protocol="honeybadger-sc", scenario=Scenario.single_hop(4),
            spec=StreamingSpec(
                epochs=24, batch_size=4, warmup=24 * 4,
                arrival=ArrivalSpec(rate_tps=2.0, transaction_bytes=32,
                                    max_mempool=1024))),
        StreamWorkload(
            name="wifi-hb-lc-n8-ingress",
            why="8 Wi-Fi nodes, local-coin ABA behind the shedding 3-class "
                "ingress at 120 tx/s open loop; component- and "
                "transport-bound",
            sim_reps=3, trace_reps=1,
            protocol="honeybadger-lc",
            scenario=Scenario.scale_single_hop(8),
            spec=StreamingSpec(
                epochs=20, batch_size=4,
                arrival=ArrivalSpec(rate_tps=120.0, transaction_bytes=48,
                                    max_mempool=256)),
            ingress="three-class-shed"),
        MultiHopWorkload(
            name="wifi-multihop-8x8",
            why="one multi-hop epoch, 64 nodes on 9 channels, classic engine; "
                "event core, routing and the termination predicate",
            sim_reps=20, trace_reps=2,
            protocol="honeybadger-sc",
            scenario=Scenario.scale_multi_hop(8, 8)),
    )
}


def latency_summary(samples: list, tail_samples: list) -> dict:
    """Median of ``samples`` and tail of ``tail_samples``, with counts.

    Both are nearest-rank, like the harness's own percentiles; the tail is
    the highest percentile that still has ten samples beyond it.  Tail samples must be independent: the leaders of
    one multi-hop epoch decide within moments of each other, so there one
    epoch is one tail sample.
    """
    ordered = sorted(tail_samples)
    if len(ordered) < 11:
        raise ValueError(f"{len(ordered)} latency samples cannot support a "
                         f"tail percentile with ten samples beyond it")
    index = len(ordered) - 11  # ten samples beyond it
    return {
        "p50": percentile(samples, 0.50),
        "count": len(samples),
        "tail": ordered[index],
        "tail_pct": 100.0 * (index + 1) / len(ordered),
        "tail_count": len(ordered),
    }
