"""Sharded multi-hop execution: per-cluster-group deployments + metric merge.

This module is the testbed half of the conservative-synchronization refactor
(:mod:`repro.net.shard` is the engine half).  A sharded multi-hop run
partitions the cluster grid into contiguous groups; each group gets its own
:class:`~repro.testbed.harness.Deployment` -- own simulator (heap, sequence
counter, RNG streams), own channels, nodes, crypto suites and transports --
built by :func:`~repro.testbed.harness.build_deployment` from a shard slice
with exactly the classic ``stable_seed`` labels, so every shard-local stream
is a pure function of ``(scenario, seed, shard layout)``.

Cross-shard coupling happens only on the leaders' backbone, which every shard
hosts as a :class:`~repro.net.shard.ShardBackboneChannel` mirror: the full
hop table and all leader identities are resolved identically everywhere (a
pure function of the scenario), the global crypto domain is dealt from the
same ``stable_seed(seed, "global")`` in every shard (the dealer cache makes
this cheap: each shard deals only its own clusters' domains plus the shared
global domain -- the per-shard dealer-cache key slice), local leaders attach
real MACs, and remote leaders appear only through ghost transmissions
exchanged at barrier windows.

Each shard runs the same :class:`~repro.testbed.harness.MultiHopEpoch` as a
classic run, and the merged reports go through the same
:func:`~repro.testbed.harness.multihop_result`.  Metric merge follows the
trace-ownership rules of the mirror (transmissions, channel accesses and
collisions at the home shard; deliveries, half-duplex misses and adversary
drops at the receiving shard), so summing per-shard traces reproduces
single-channel totals; observer records are replayed in shard order, which
equals the classic cluster order because shards are contiguous.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Optional

from repro.net.shard import Lookahead, ShardRunner, ShardSyncError, run_conservative
from repro.net.trace import NetworkTrace
from repro.protocols.base import ConsensusConfig
from repro.testbed.harness import DeploymentError, MultiHopEpoch, multihop_result
from repro.testbed.invariants import RunObserver
from repro.testbed.metrics import MultiHopRunResult
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec


def partition_clusters(num_clusters: int, shards: int) -> list[list[int]]:
    """Contiguous cluster-index blocks, sizes differing by at most one."""
    if shards < 1:
        raise ShardSyncError(f"need at least one shard, got {shards}")
    if shards > num_clusters:
        raise ShardSyncError(
            f"cannot split {num_clusters} clusters into {shards} shards; "
            f"a shard needs at least one cluster")
    base, extra = divmod(num_clusters, shards)
    blocks, cursor = [], 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(list(range(cursor, cursor + size)))
        cursor += size
    return blocks


def merge_traces(traces: list[NetworkTrace]) -> NetworkTrace:
    """Sum per-shard traces field by field.

    Node entries are disjoint across shards (every node-side record happens
    in the node's home shard); channel entries overlap only on the backbone
    name, where the ownership rules make summation reproduce the
    single-channel totals.
    """
    merged = NetworkTrace()
    for trace in traces:
        for name, stats in trace.channels.items():
            target = merged.channels[name]
            for field in dataclass_fields(stats):
                setattr(target, field.name,
                        getattr(target, field.name) + getattr(stats, field.name))
        for node_id, stats in trace.nodes.items():
            target = merged.nodes[node_id]
            for field in dataclass_fields(stats):
                setattr(target, field.name,
                        getattr(target, field.name) + getattr(stats, field.name))
    return merged


class _RecordingObserver:
    """Captures observer calls inside a shard for replay in the parent.

    The real :class:`RunObserver` lives in the coordinating process; shard
    workers record plain tuples (picklable) and the parent replays them in
    shard order.
    """

    def __init__(self) -> None:
        self.proposals: list[tuple[int, list[bytes], Any, str]] = []

    def record_proposal(self, node_id: int, transactions: list[bytes],
                        domain: Any = 0, kind: str = "honest") -> None:
        self.proposals.append((node_id, [bytes(t) for t in transactions],
                               domain, kind))


# ---------------------------------------------------------------------------
# per-shard runner
# ---------------------------------------------------------------------------

class _MultiHopShardRunner(ShardRunner):
    """One shard of a multi-hop consensus run.

    Wraps the shard's :class:`~repro.testbed.harness.MultiHopEpoch`: its
    ``poll`` couples local decisions into the global domain after every
    event exactly as the classic run loop does, its ``done`` is the
    shard-local stop condition, and ``finish()`` adds the shard's event
    count, trace and recorded proposals to the epoch's picklable report.
    """

    def __init__(self, shard_index: int, epoch: MultiHopEpoch,
                 recorder: _RecordingObserver) -> None:
        self.epoch = epoch
        self.recorder = recorder
        deployment = epoch.deployment
        backbone = deployment.channels[
            deployment.scenario.topology.global_channel_name]
        backbone_macs = [deployment.nodes[leader].interfaces["backbone"]
                         for leader in deployment.global_runtimes]
        super().__init__(shard_index, deployment.sim, backbone, backbone_macs,
                         difs_s=deployment.scenario.csma.difs_s,
                         poll=epoch.poll, done=epoch.done)

    def finish(self) -> dict[str, Any]:
        report = self.epoch.report()
        deployment = self.epoch.deployment
        report.update(shard=self.shard_index,
                      events=deployment.sim.events_processed,
                      trace=deployment.trace,
                      proposals=self.recorder.proposals)
        return report


# ---------------------------------------------------------------------------
# entry point (called by run_multihop_consensus when shards is set)
# ---------------------------------------------------------------------------

def run_sharded_multihop_consensus(protocol: str, scenario: Scenario,
                                   shards: int, shard_workers: int = 1,
                                   batch_size: int = 8,
                                   transaction_bytes: int = 64,
                                   batched: bool = True, seed: int = 0,
                                   config: Optional[ConsensusConfig] = None,
                                   workload_spec: Optional[WorkloadSpec] = None,
                                   observer: Optional[RunObserver] = None,
                                   shard_stats: Optional[list] = None
                                   ) -> MultiHopRunResult:
    """Run the two-phase multi-hop consensus under conservative sharding.

    The result is a pure function of ``(protocol, scenario, workload,
    batched, seed, shards)`` -- ``shard_workers`` (at least 1, else
    :class:`~repro.testbed.harness.DeploymentError`) only chooses how many
    processes execute the (identical) barrier schedule, so any worker count
    reproduces every metric bit for bit.

    Pass a list as ``shard_stats`` to receive one dict per shard
    (``shard``, ``clusters``, ``events``) describing how the event load
    split -- diagnostics the merged result deliberately flattens away.
    """
    if shard_workers < 1:
        raise DeploymentError(
            f"shard_workers must be at least 1, got {shard_workers}")
    spec = workload_spec or WorkloadSpec(batch_size=batch_size,
                                         transaction_bytes=transaction_bytes)
    blocks = partition_clusters(scenario.topology.num_clusters, shards)

    def factory(shard_index: int) -> _MultiHopShardRunner:
        recorder = _RecordingObserver()
        epoch = MultiHopEpoch(protocol, scenario, batched, seed, config, spec,
                              recorder, shard=(shard_index, blocks[shard_index]))
        return _MultiHopShardRunner(shard_index, epoch, recorder)

    lookahead = Lookahead(difs_s=scenario.csma.difs_s,
                          rx_turnaround_s=scenario.radio.rx_turnaround_s)
    decided, _stop_time, finals = run_conservative(
        factory, shards, lookahead, scenario.timeout_s, workers=shard_workers)

    # ------------------------------------------------------------------ merge
    finals = sorted(finals, key=lambda final: final["shard"])
    if shard_stats is not None:
        shard_stats.extend(
            {"shard": final["shard"], "clusters": list(blocks[final["shard"]]),
             "events": final["events"]}
            for final in finals)
    if observer is not None:
        # Shards hold contiguous cluster blocks, so replaying reports in
        # shard order reproduces the classic (cluster-order) record stream.
        for final in finals:
            for node_id, transactions, domain, kind in final["proposals"]:
                observer.record_proposal(node_id, transactions, domain,
                                         kind=kind)
    return multihop_result(
        protocol, scenario, batched, seed, decided, finals,
        merge_traces([final["trace"] for final in finals]),
        sum(final["events"] for final in finals), observer=observer)
