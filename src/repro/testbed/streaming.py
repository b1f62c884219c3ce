"""Streaming multi-epoch consensus: sustained load, pipelining, checkpoint/GC.

Every other harness entry point runs exactly *one* epoch; this module is the
fifth entry point, :func:`run_streaming_consensus`, which drives the same
protocol cores through ``E`` back-to-back epochs on **one long-lived
deployment** against an open-loop transaction arrival process
(:class:`~repro.testbed.workload.OpenLoopArrivals`).  It is what answers the
paper's deployment question -- sustained throughput and latency under
continuous client load -- rather than the per-epoch snapshots of the figures.

Shape of a streaming run
------------------------

* **Arrivals** -- each node receives a seeded Poisson-like stream of
  transactions (virtual-time inter-arrival gaps from a per-node child RNG,
  never the simulator RNG) into a bounded :class:`Mempool`; arrivals beyond
  the bound are dropped and counted, so memory stays O(backlog) under
  overload.
* **Epochs** -- epoch ``e`` installs fresh protocol instances tagged with
  ``e`` on the deployment's existing routers/transports (dealt keys are
  reused; only the per-epoch tags change), every eligible node proposes up
  to ``batch_size`` transactions drained from its mempool, and the epoch is
  *complete* once every honest node (every honest leader, multi-hop) has
  decided it.
* **Pipelining** -- ``pipeline_depth`` extra epochs may be in flight at
  once: with depth ``d``, epoch ``e`` starts as soon as epoch ``e - 1 - d``
  has completed, so at depth 1 the RBC dissemination of epoch ``e + 1``
  overlaps the ABA/decryption tail of epoch ``e`` on the shared channel.
  Tags keep the message streams of concurrent epochs apart.
* **Checkpoint/GC** -- when the oldest in-flight epoch completes it is
  checkpointed: its committed transactions are folded into the running
  ledger digest, its metrics are recorded, and (with ``gc`` enabled, the
  default) every protocol instance of the epoch releases its router and
  transport state (:meth:`repro.protocols.base.ConsensusProtocol.release`).
  Live state is therefore bounded by the pipeline window, not the stream
  length.

Determinism contract
--------------------

``run_streaming_consensus`` is a pure function of
``(protocol, scenario, spec, batched, seed, config)`` -- bit-reproducible
across reruns and worker counts like the other entry points (guarded by
``tests/testbed/test_streaming.py``).  Additionally, because arrival streams
are pace independent and nodes drain their mempools in FIFO arrival order,
a fault-free run that stays **saturated** (every node's backlog covers its
batch size at every proposal) commits the same transactions to the same
epochs at any pipeline depth: per-epoch block digests are bit-identical
between depth 0 and depth 1.  ``StreamingSpec.warmup >= epochs *
batch_size`` guarantees saturation regardless of the offered load (the
regression test and the ``streaming-pipeline`` experiment pin the identity
at 50 epochs this way); unsaturated streams may legitimately compose epochs
differently at different depths -- pipelined epochs propose *earlier*, when
fewer arrivals are buffered.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.crypto.group import BatchVerifySession
from repro.protocols.base import ConsensusConfig, ConsensusProtocol
from repro.protocols.multihop import ClusterOutcome
from repro.testbed.harness import (
    Deployment,
    DeploymentError,
    build_deployment,
    crypto_schemes_for_protocol,
    feed_decided_clusters,
    global_consensus_config,
    install_epoch_protocols,
    propose_epoch,
)
from repro.testbed.ingress import ClassedArrivals, IngressGateway, IngressSpec
from repro.testbed.invariants import RunObserver
from repro.testbed.membership import MembershipController, MembershipSchedule
from repro.testbed.metrics import (
    ClassRecord,
    CommitteeRecord,
    EpochRecord,
    StreamingRunResult,
    chain_digest,
    percentile,
)
from repro.testbed.scenario_packs import ScenarioController, ScenarioPack
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import (
    ArrivalSpec,
    OpenLoopArrivals,
    TransactionWorkload,
    WorkloadSpec,
)


@dataclass(frozen=True)
class StreamingSpec:
    """Configuration of one streaming run.

    Units: ``epochs`` counts consensus epochs; ``batch_size`` is the maximum
    number of transactions a node drains from its mempool per epoch;
    ``pipeline_depth`` is the number of *extra* epochs allowed in flight
    beyond the oldest incomplete one (0 = strictly sequential, 1 = epoch
    ``e + 1`` disseminates while epoch ``e`` finishes); ``gc`` toggles the
    checkpoint-time release of decided-epoch state (disable only to measure
    what GC saves).
    """

    epochs: int = 16
    batch_size: int = 8
    pipeline_depth: int = 0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    gc: bool = True
    #: arrivals per node pre-buffered into the mempool at t=0 (clients queued
    #: while the system was offline); lets a stream start saturated instead
    #: of ramping up from empty mempools.
    warmup: int = 0
    #: when the next epoch may start disseminating (pipeline_depth > 0):
    #: ``locked`` waits until every honest node's *content* for the previous
    #: epoch is frozen (its ``pipeline_ready`` point -- the common subset
    #: lock for HoneyBadger/BEAT), so pipelining can never change what an
    #: in-flight epoch decides; ``eager`` starts the moment the window has
    #: room, claiming the channel-idle gaps of ABA coin rounds for the next
    #: epoch's RBC at the cost of pipelining-dependent epoch composition.
    pipeline_gate: str = "locked"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.pipeline_gate not in ("locked", "eager"):
            raise ValueError(f"unknown pipeline_gate {self.pipeline_gate!r}; "
                             f"known: locked, eager")


class Mempool:
    """One node's bounded FIFO backlog of not-yet-proposed transactions.

    Admission dedups against everything currently pooled *or* in flight
    (proposed but not yet committed) and enforces ``capacity`` on the pooled
    backlog; both kinds of rejection are counted.  Committed transactions are
    forgotten entirely, which is what keeps memory proportional to
    ``backlog + in-flight`` rather than to stream history.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pool: dict[bytes, None] = {}  # insertion-ordered set
        self._in_flight: set[bytes] = set()
        self.admitted = 0
        self.dropped_capacity = 0
        self.dropped_duplicate = 0
        self.committed = 0

    @property
    def backlog(self) -> int:
        """Transactions waiting to be proposed."""
        return len(self._pool)

    def admit(self, transaction: bytes) -> bool:
        """Admit one arriving transaction (False = dropped, with the reason
        counted in ``dropped_duplicate`` / ``dropped_capacity``)."""
        if transaction in self._pool or transaction in self._in_flight:
            self.dropped_duplicate += 1
            return False
        if len(self._pool) >= self.capacity:
            self.dropped_capacity += 1
            return False
        self._pool[transaction] = None
        self.admitted += 1
        return True

    def take(self, count: int) -> list:
        """Drain up to ``count`` transactions in FIFO arrival order.

        Taken transactions move to the in-flight set (still deduped against,
        no longer counted in ``backlog``) until :meth:`commit` sees them or
        :meth:`requeue` returns them.
        """
        batch = list(itertools.islice(self._pool, max(0, count)))
        for transaction in batch:
            del self._pool[transaction]
            self._in_flight.add(transaction)
        return batch

    def commit(self, transactions) -> None:
        """Forget committed transactions (from in-flight or, defensively,
        from the pool when another node proposed the same bytes first)."""
        for transaction in transactions:
            if transaction in self._in_flight:
                self._in_flight.discard(transaction)
                self.committed += 1
            elif transaction in self._pool:
                del self._pool[transaction]
                self.committed += 1

    def requeue(self, transactions) -> None:
        """Return in-flight transactions to the *front* of the pool.

        Called at checkpoint time for proposed-but-not-committed
        transactions (their proposer was excluded from the epoch's common
        subset); front placement preserves arrival order, so they lead the
        next epoch's batch instead of starving behind newer arrivals.
        """
        returned = [transaction for transaction in transactions
                    if transaction in self._in_flight]
        if not returned:
            return
        for transaction in returned:
            self._in_flight.discard(transaction)
        refilled = {transaction: None for transaction in returned}
        refilled.update(self._pool)
        self._pool = refilled

    def drain(self) -> list:
        """Hand over every pooled transaction (FIFO) and forget it.

        Called when this node departs the committee: its uncommitted backlog
        is redistributed to the survivors (clients fail over).  In-flight
        state is cleared too -- at an epoch boundary it is empty anyway
        (every taken batch was committed or requeued at checkpoint time).
        """
        drained = list(self._pool)
        self._pool.clear()
        self._in_flight.clear()
        return drained


#: the canonical digest-chaining rule lives in metrics so the
#: ledger-continuity invariant checker can rebuild the chain independently
_chain_digest = chain_digest


class StreamingRun:
    """Internal driver of one streaming run (kept as a class so tests can
    inspect the deployment's post-run state, e.g. the GC bounds)."""

    def __init__(self, protocol: str, scenario: Scenario, spec: StreamingSpec,
                 batched: bool = True, seed: int = 0,
                 config: Optional[ConsensusConfig] = None,
                 observer: Optional[RunObserver] = None,
                 pack: Optional[ScenarioPack] = None,
                 membership: Optional[MembershipSchedule] = None,
                 ingress: Optional[IngressSpec] = None) -> None:
        self.protocol = protocol
        self.scenario = scenario
        self.spec = spec
        self.batched = batched
        self.seed = seed
        self.base_config = config or ConsensusConfig()
        self.observer = observer
        self.pack = pack
        self.ingress = ingress
        if ingress is not None and scenario.is_multi_hop:
            # Gateways front the single-hop committee; a multi-hop ingress
            # would need per-cluster gateway placement and cross-cluster
            # class routing -- a documented extension point, not a silent
            # misconfiguration.
            raise DeploymentError(
                "ingress gateways front the single-hop committee; "
                "multi-hop ingress is not supported")
        byzantine = scenario.byzantine
        if (byzantine.nodes_with("epoch-crash")
                and byzantine.crash_at_epoch >= spec.epochs):
            # Mirror _inject_equivocation's philosophy: a mid-stream fault
            # that can never fire must fail loudly, not pass vacuously.
            raise DeploymentError(
                f"epoch-crash at epoch {byzantine.crash_at_epoch} can never "
                f"fire in a {spec.epochs}-epoch stream")
        #: one batch-verification memo shared by every node's CryptoSuite for
        #: the whole stream: repeated verifications of the same share batch
        #: (every node combines the same quorum each epoch) hit the memo
        #: instead of redoing the wall-clock work.  Modelled CPU cost and
        #: results are unchanged -- see BatchVerifySession.
        self.batch_session = BatchVerifySession()
        self.deployment = build_deployment(
            scenario, batched=batched, seed=seed,
            crypto_schemes=crypto_schemes_for_protocol(
                protocol, self.base_config),
            global_crypto_schemes=crypto_schemes_for_protocol(
                protocol, global_consensus_config(self.base_config)),
            batch_session=self.batch_session)
        #: time-varying network conditions (None = static scenario only)
        self.controller = ScenarioController(pack, self.deployment) \
            if pack is not None else None
        #: dynamic membership (None = fixed committee)
        schedule = membership
        if schedule is None and scenario.membership is not None:
            schedule = MembershipSchedule.from_churn(
                scenario.membership, scenario.num_nodes, seed=seed)
        if schedule is not None:
            if ingress is not None:
                # Redistributing a departed gateway's pooled transactions
                # would need their class/fee marks to survive the move; the
                # drain/admit seam loses them today.
                raise DeploymentError(
                    "membership schedules and ingress gateways cannot be "
                    "combined yet (departed-gateway redistribution would "
                    "drop class marks)")
            if scenario.is_multi_hop:
                # Multi-hop reconfiguration would re-elect leaders and
                # re-route the backbone mid-stream -- the documented
                # extension point (membership.rebind_leader_schedules).
                raise DeploymentError(
                    "membership schedules reconfigure the single-hop "
                    "committee; multi-hop reconfiguration is not supported")
            if spec.pipeline_depth > 0:
                raise ValueError(
                    f"pipeline_depth must be 0 under a membership schedule "
                    f"(reconfiguration needs a quiescent epoch boundary), "
                    f"got {spec.pipeline_depth}")
            if len(schedule.universe) != scenario.num_nodes:
                raise ValueError(
                    f"universe: the schedule covers {len(schedule.universe)} "
                    f"nodes but the scenario deploys {scenario.num_nodes}")
        self.membership = MembershipController(
            schedule, self.deployment, protocol=protocol,
            base_config=self.base_config, seed=seed,
            batch_session=self.batch_session) if schedule is not None else None
        self.committees: list[CommitteeRecord] = []
        if ingress is not None:
            self.arrivals: Any = ClassedArrivals(
                ingress, spec.arrival, scenario.num_nodes, seed=seed)
            #: committed-latency bookkeeping: pooled tx -> (class, submit_s),
            #: shared by every gateway, popped at checkpoint time
            self.tx_meta: dict = {}
            self.gateways = {
                node_id: IngressGateway(ingress, spec.arrival.max_mempool,
                                        meta=self.tx_meta)
                for node_id in self.deployment.nodes}
            self.mempools = {node_id: gateway.pool
                             for node_id, gateway in self.gateways.items()}
            self.class_latencies: list[list] = [
                [] for _ in ingress.classes]
            self.class_committed = [0] * len(ingress.classes)
        else:
            self.arrivals = OpenLoopArrivals(spec.arrival, scenario.num_nodes,
                                             seed=seed)
            self.mempools = {node_id: Mempool(spec.arrival.max_mempool)
                             for node_id in self.deployment.nodes}
        #: conflicting-batch source for equivocating proposers (per epoch)
        self.workload = TransactionWorkload(
            WorkloadSpec(batch_size=spec.batch_size,
                         transaction_bytes=spec.arrival.transaction_bytes,
                         flavor=spec.arrival.flavor), seed=seed)
        self.honest = self.deployment.honest_ids()
        if scenario.is_multi_hop:
            byzantine = scenario.byzantine.byzantine_ids
            self.honest_leaders = [
                leader for leader in self.deployment.epoch_leaders.values()
                if leader not in byzantine]
            self.cluster_of = {node_id: cluster.index
                               for cluster in scenario.topology.clusters
                               for node_id in cluster.node_ids}
        # per-epoch state, dropped at checkpoint time
        self.epoch_batches: dict[int, dict[int, list]] = {}
        self.local_instances: dict[int, dict[int, ConsensusProtocol]] = {}
        self.global_instances: dict[int, dict[int, ConsensusProtocol]] = {}
        self._fed_clusters: dict[int, dict[int, ClusterOutcome]] = {}
        self.epoch_start_s: dict[int, float] = {}
        self.epoch_backlogs: dict[int, list] = {}
        # stream progress
        self.next_epoch = 0
        self.checkpoint_cursor = 0
        self.records: list[EpochRecord] = []
        self.ledger_digest = ""
        self.committed_transactions = 0
        self.last_decide_s = float("nan")

    # ----------------------------------------------------------- arrival pump
    def _pump(self, node_id: int) -> None:
        """Schedule node ``node_id``'s next arrival as a simulator event."""
        if self.ingress is not None:
            when, transaction, class_index, fee = \
                self.arrivals.next_arrival(node_id)
            self.deployment.sim.schedule_at(
                when,
                lambda: self._arrive_ingress(node_id, transaction,
                                             class_index, fee),
                label=f"arrival:{node_id}")
            return
        when, transaction = self.arrivals.next_arrival(node_id)
        self.deployment.sim.schedule_at(
            when, lambda: self._arrive(node_id, transaction),
            label=f"arrival:{node_id}")

    def _arrive(self, node_id: int, transaction: bytes) -> None:
        self.mempools[node_id].admit(transaction)
        self._pump(node_id)

    def _arrive_ingress(self, node_id: int, transaction: bytes,
                        class_index: int, fee: float) -> None:
        self.gateways[node_id].submit(self.deployment.sim.now, transaction,
                                      class_index, fee)
        self._pump(node_id)

    # ------------------------------------------------------------ epoch starts
    def _crash_epoch_victims(self, epoch: int) -> None:
        """Fire the ``epoch-crash`` fault: victims go silent at epoch k."""
        byzantine = self.scenario.byzantine
        if byzantine.crash_at_epoch != epoch:
            return
        for node_id in byzantine.nodes_with("epoch-crash"):
            node = self.deployment.nodes.get(node_id)
            if node is not None and not node.crashed:
                node.crash()

    def _membership_boundary(self, epoch: int) -> CommitteeRecord:
        """Apply pending churn at the boundary entering ``epoch``.

        Runs while the stream is quiescent (membership forces depth 0, so
        every earlier epoch is checkpointed).  Departed nodes' pooled
        transactions are round-robined into the survivors' mempools in FIFO
        order (admission dedups and counts as usual), then the controller
        re-deals and rebinds the committee with every checkpointed epoch's
        tag pre-released.
        """
        controller = self.membership
        outcome = controller.advance(self.deployment.sim.now)
        if outcome.changed:
            removed = outcome.departed + outcome.crashed
            survivors = controller.members
            moved: list = []
            for node_id in removed:
                moved.extend(self.mempools[node_id].drain())
            for index, transaction in enumerate(moved):
                if self.mempools[survivors[index % len(survivors)]].admit(
                        transaction):
                    controller.redistributed += 1
            from repro.testbed.membership import rebind_leader_schedules

            rebind_leader_schedules(self.deployment, removed, epoch=epoch)
            controller.reconfigure(released_roots=tuple(
                ("epoch", done) for done in range(self.checkpoint_cursor)))
        return CommitteeRecord(
            epoch=epoch, members=controller.members, joined=outcome.joined,
            departed=outcome.departed, crashed=outcome.crashed,
            reconfigured=outcome.changed)

    def _start_epoch(self, epoch: int) -> None:
        deployment = self.deployment
        self._crash_epoch_victims(epoch)
        if self.membership is not None:
            self.committees.append(self._membership_boundary(epoch))
            byzantine = self.scenario.byzantine.byzantine_ids
            proposers = [node_id for node_id in sorted(deployment.runtimes)
                         if node_id not in byzantine]
        else:
            proposers = self.honest
        self.epoch_start_s[epoch] = deployment.sim.now
        honest_backlogs = [self.mempools[node_id].backlog
                           for node_id in proposers]
        self.epoch_backlogs[epoch] = honest_backlogs
        config = replace(self.base_config, epoch=epoch)
        instances = install_epoch_protocols(deployment, self.protocol,
                                            deployment.runtimes, config)
        self.local_instances[epoch] = instances
        if self.scenario.is_multi_hop:
            domain_of: Callable[[int], Any] = lambda node_id: (
                "epoch", epoch, "cluster", self.cluster_of[node_id])
            self.global_instances[epoch] = install_epoch_protocols(
                deployment, self.protocol, deployment.global_runtimes,
                global_consensus_config(config))
            self._fed_clusters[epoch] = {}
        else:
            domain_of = lambda _node_id: ("epoch", epoch)
        batches: dict[int, list] = {}
        self.epoch_batches[epoch] = batches

        def drain(node_id: int, _runtime) -> list:
            batch = self.mempools[node_id].take(self.spec.batch_size)
            batches[node_id] = batch
            return batch

        propose_epoch(
            deployment, deployment.runtimes, self.workload,
            observer=self.observer, domain_of=domain_of,
            batch_for=drain, equivocation_epoch=("equiv", epoch))
        self.next_epoch = epoch + 1

    # -------------------------------------------------------------- lifecycle
    def _epoch_ready(self, epoch: int) -> bool:
        """Whether epoch ``epoch`` allows the next epoch to start (depth > 0).

        Single-hop: every honest node's instance reports ``pipeline_ready``
        -- its decided content is frozen (for HoneyBadger/BEAT, the common
        subset is locked; only content-deterministic decryption remains), so
        the next epoch's dissemination can no longer change epoch ``epoch``'s
        block.  Multi-hop conservatively requires the epoch to be complete
        (the global block depends on which local blocks get fed, so there is
        no earlier point at which its content is frozen).
        """
        if epoch < 0 or self.spec.pipeline_gate == "eager":
            return True
        if epoch < self.checkpoint_cursor:  # already checkpointed
            return True
        if self.scenario.is_multi_hop:
            return self._epoch_complete(epoch)
        instances = self.local_instances.get(epoch)
        if instances is None:  # already checkpointed
            return True
        return all(instances[node_id].pipeline_ready
                   for node_id in self.honest if node_id in instances)

    def _epoch_complete(self, epoch: int) -> bool:
        # Completion waits on honest members that can still decide: a
        # membership-crashed node is permanently silent and must not stall
        # the boundary (absent a schedule no honest node ever crashes, so
        # the filter is inert).  If churn crashes *every* eligible member
        # the epoch can never complete and the stream times out -- the
        # correct failure for churn beyond the f-bound.
        eligible = [
            instance
            for node_id, instance in self.local_instances[epoch].items()
            if node_id in self.honest
            and not self.deployment.nodes[node_id].crashed]
        if not eligible:
            return False
        locals_done = all(instance.decided for instance in eligible)
        if not self.scenario.is_multi_hop:
            return locals_done
        # Multi-hop: every honest *local* instance must decide too (not just
        # the leaders' global instances) -- checkpointing releases the whole
        # epoch, and release() is only sound once no honest instance is
        # still in flight (see ConsensusProtocol.release).
        instances = self.global_instances[epoch]
        return locals_done and all(instances[leader].decided
                                   for leader in self.honest_leaders)

    def _checkpoint(self, epoch: int) -> None:
        """Record, commit and (optionally) GC one completed epoch."""
        if self.scenario.is_multi_hop:
            deciders = {leader: self.global_instances[epoch][leader]
                        for leader in self.honest_leaders}
        else:
            # Iterate the epoch's instances (the committee that ran it, under
            # membership), not the deployment-wide honest list: standby nodes
            # have no instance, and a member crashed mid-epoch contributes
            # only if it decided before going silent.
            deciders = {node_id: instance
                        for node_id, instance
                        in self.local_instances[epoch].items()
                        if node_id in self.honest and instance.decided}
        decide_times = [instance.decide_time
                        for instance in deciders.values()
                        if instance.decide_time is not None]
        decide_s = max(decide_times)
        digest = ""
        committed: list = []
        for node_id, instance in deciders.items():
            witness = instance.witness()
            if witness.digest is None:
                continue
            if not digest:
                digest = witness.digest
                committed = self._committed_transactions(list(witness.block))
            if self.observer is not None:
                domain = ("epoch", epoch, "global") \
                    if self.scenario.is_multi_hop else ("epoch", epoch)
                self.observer.record_decision(
                    node_id, list(witness.block), witness.decide_time,
                    domain=domain, digest=witness.digest,
                    transactions=committed if self.scenario.is_multi_hop
                    else None)
        if self.observer is not None and self.scenario.is_multi_hop:
            for node_id, instance in self.local_instances[epoch].items():
                if node_id not in self.honest:
                    continue
                witness = instance.witness()
                if witness.block is None:
                    continue
                self.observer.record_decision(
                    node_id, list(witness.block), witness.decide_time,
                    domain=("epoch", epoch, "cluster",
                            self.cluster_of[node_id]),
                    digest=witness.digest)
        committed_set = set(committed)
        for mempool in self.mempools.values():
            mempool.commit(committed)
        # Proposed-but-uncommitted batches (proposer excluded from the common
        # subset) go back to the front of their mempool for a later epoch.
        for node_id, batch in self.epoch_batches.pop(epoch, {}).items():
            leftovers = [transaction for transaction in batch
                         if transaction not in committed_set]
            if leftovers:
                self.mempools[node_id].requeue(leftovers)
        backlogs = self.epoch_backlogs.pop(epoch)
        start_s = self.epoch_start_s.pop(epoch)
        self.records.append(EpochRecord(
            epoch=epoch, start_s=start_s, decide_s=decide_s,
            latency_s=decide_s - start_s,
            committed_transactions=len(committed),
            block_digest=digest,
            backlog_max=max(backlogs) if backlogs else 0,
            backlog_mean=statistics.fmean(backlogs) if backlogs else 0.0))
        self.ledger_digest = _chain_digest(self.ledger_digest, digest)
        self.committed_transactions += len(committed)
        self.last_decide_s = decide_s
        if self.ingress is not None:
            # Client-observed latency: submit (original arrival, even when
            # the gate deferred it) -> the epoch's decide instant.
            for transaction in committed:
                meta = self.tx_meta.pop(transaction, None)
                if meta is not None:
                    class_index, submit_s = meta
                    self.class_latencies[class_index].append(
                        decide_s - submit_s)
                    self.class_committed[class_index] += 1
            # Backlogs just settled (commits + requeues landed): give every
            # gateway's defer queue a chance to re-offer parked load.
            now = self.deployment.sim.now
            for node_id in sorted(self.gateways):
                self.gateways[node_id].release_deferred(now)
        if self.spec.gc:
            self._release_epoch(epoch)
        self.local_instances.pop(epoch, None)
        self.global_instances.pop(epoch, None)
        self._fed_clusters.pop(epoch, None)
        self.checkpoint_cursor = epoch + 1

    def _committed_transactions(self, block: list) -> list:
        if not self.scenario.is_multi_hop:
            return block
        from repro.testbed.harness import _decode_contribution_txs

        return [transaction for item in block
                for transaction in _decode_contribution_txs(item)]

    def _release_epoch(self, epoch: int) -> None:
        for instance in self.local_instances[epoch].values():
            instance.release()
        for instance in self.global_instances.get(epoch, {}).values():
            instance.release()

    # ------------------------------------------------------------------- run
    def _poll(self) -> bool:
        """Advance the stream: checkpoint completed epochs, feed global
        instances, start eligible epochs.  True once every epoch is
        checkpointed.

        Checkpointing runs *before* starts within one pass so that, when an
        epoch completes and its successor becomes eligible at the same
        simulated instant, commits and requeues land in the mempools before
        the successor drains them -- regardless of pipeline depth (part of
        the depth-0-vs-depth-1 identity contract).
        """
        window = 1 + self.spec.pipeline_depth
        progressed = True
        while progressed:
            progressed = False
            while (self.checkpoint_cursor < self.next_epoch
                   and self._epoch_complete(self.checkpoint_cursor)):
                self._checkpoint(self.checkpoint_cursor)
                progressed = True
            if self.scenario.is_multi_hop:
                for epoch in list(self.global_instances):
                    # leaders stay pinned to the deployment's schedules
                    feed_decided_clusters(
                        self.deployment, self.deployment.epoch_leaders.items(),
                        self.local_instances[epoch],
                        self.global_instances[epoch],
                        self._fed_clusters[epoch])
            if (self.next_epoch < self.spec.epochs
                    and self.next_epoch - self.checkpoint_cursor < window
                    and self._epoch_ready(self.next_epoch - 1)):
                self._start_epoch(self.next_epoch)
                progressed = True
        return self.checkpoint_cursor >= self.spec.epochs

    def run(self) -> StreamingRunResult:
        """Execute the stream to completion (or the scenario timeout)."""
        deployment = self.deployment
        if self.membership is not None:
            self.membership.install()
        if self.controller is not None:
            self.controller.install()
        for node_id in sorted(self.mempools):
            # Warmup: the first `warmup` arrivals of each stream are already
            # buffered when the stream starts (clients queued offline).
            for _ in range(self.spec.warmup):
                if self.ingress is not None:
                    _when, transaction, class_index, fee = \
                        self.arrivals.next_arrival(node_id)
                    # queued while offline: they all present at t=0, so the
                    # admission gate judges them like any t=0 burst
                    self.gateways[node_id].submit(0.0, transaction,
                                                  class_index, fee)
                else:
                    _when, transaction = self.arrivals.next_arrival(node_id)
                    self.mempools[node_id].admit(transaction)
            self._pump(node_id)
        finished = deployment.sim.run_until(self._poll,
                                            timeout=self.scenario.timeout_s)
        deployment.shutdown()
        dropped_capacity = sum(m.dropped_capacity
                               for m in self.mempools.values())
        dropped_duplicate = sum(m.dropped_duplicate
                                for m in self.mempools.values())
        admitted = sum(m.admitted for m in self.mempools.values())
        return StreamingRunResult(
            protocol=self.protocol, batched=self.batched,
            num_nodes=self.scenario.num_nodes,
            epochs_target=self.spec.epochs,
            epochs_completed=self.checkpoint_cursor,
            decided=bool(finished),
            pipeline_depth=self.spec.pipeline_depth,
            offered_load_tps=self.spec.arrival.rate_tps,
            per_epoch=self.records,
            committed_transactions=self.committed_transactions,
            duration_s=self.last_decide_s if finished else float("nan"),
            ledger_digest=self.ledger_digest,
            arrivals_generated=sum(self.arrivals.generated(node_id)
                                   for node_id in range(
                                       self.scenario.num_nodes)),
            arrivals_admitted=admitted,
            arrivals_dropped_capacity=dropped_capacity,
            arrivals_dropped_duplicate=dropped_duplicate,
            channel_accesses=deployment.trace.total_channel_accesses,
            bytes_sent=deployment.trace.total_bytes_sent,
            collisions=deployment.trace.total_collisions,
            sim_events=deployment.sim.events_processed,
            seed=self.seed,
            scenario=self.pack.name if self.pack is not None else "",
            phases=self.controller.phase_records(self.records)
            if self.controller is not None else [],
            committees=self.committees,
            classes=self._class_records())

    def _class_records(self) -> list:
        if self.ingress is None:
            return []
        gateways = [self.gateways[node_id] for node_id in sorted(self.gateways)]
        records = []
        for index, spec in enumerate(self.ingress.classes):
            latencies = self.class_latencies[index]
            records.append(ClassRecord(
                name=spec.name, priority=spec.priority,
                offered=sum(g.offered[index] for g in gateways),
                admitted=sum(g.admitted[index] for g in gateways),
                shed=sum(g.shed[index] for g in gateways),
                deferred_pending=sum(g.deferred_pending(index)
                                     for g in gateways),
                duplicates=sum(g.duplicates[index] for g in gateways),
                committed=self.class_committed[index],
                p50_latency_s=percentile(latencies, 0.50),
                p90_latency_s=percentile(latencies, 0.90),
                p99_latency_s=percentile(latencies, 0.99)))
        return records


def run_streaming_consensus(protocol: str, scenario: Scenario,
                            spec: Optional[StreamingSpec] = None,
                            batched: bool = True, seed: int = 0,
                            config: Optional[ConsensusConfig] = None,
                            observer: Optional[RunObserver] = None,
                            pack: Optional[ScenarioPack] = None,
                            membership: Optional[MembershipSchedule] = None,
                            ingress: Optional[IngressSpec] = None) -> StreamingRunResult:
    """Run ``spec.epochs`` back-to-back consensus epochs under open-loop load.

    The fifth harness entry point.  Works on single-hop *and* multi-hop
    scenarios: multi-hop streams replay the two-phase construction per epoch
    with the cluster leaders pinned to the deployment's
    :class:`~repro.protocols.multihop.LeaderSchedule` state (rotating a
    leader mid-stream would re-wire the backbone; exclusions still persist
    on the deployment-owned schedules).

    Args:
        protocol: canonical protocol name (``honeybadger-sc``, ``beat``, ...).
        scenario: the deployment description; ``scenario.timeout_s`` bounds
            the **whole stream** in virtual seconds.
        spec: the :class:`StreamingSpec` (epochs, per-epoch batch size,
            pipeline depth, arrival process, GC toggle).
        batched / seed / config / observer: as in
            :func:`repro.testbed.harness.run_consensus`; the observer sees
            per-epoch domains (``("epoch", e)``, or ``("epoch", e,
            "cluster", c)`` / ``("epoch", e, "global")`` for multi-hop), so
            the campaign invariant checkers judge every epoch independently.
        pack: an optional :class:`~repro.testbed.scenario_packs.ScenarioPack`
            of time-varying network conditions, applied from simulator time
            by a :class:`~repro.testbed.scenario_packs.ScenarioController`;
            the result then carries per-phase throughput/latency/drop
            summaries in ``phases``.  The caller is responsible for a
            ``scenario.timeout_s`` that covers the pack's timeline.
        membership: an optional
            :class:`~repro.testbed.membership.MembershipSchedule` of node
            join/leave/permanent-crash events, applied at epoch boundaries
            by a :class:`~repro.testbed.membership.MembershipController`
            (single-hop, ``pipeline_depth == 0`` only); overrides the
            schedule ``scenario.membership`` would expand to.  The result
            then carries one :class:`~repro.testbed.metrics.CommitteeRecord`
            per epoch in ``committees``.
        ingress: an optional :class:`~repro.testbed.ingress.IngressSpec`
            putting a client-facing ingress in front of every node:
            class-marked aggregated arrivals, a priority mempool per
            gateway, and an admission gate (single-hop, no membership
            schedule).  The result then carries one
            :class:`~repro.testbed.metrics.ClassRecord` per transaction
            class in ``classes`` (per-class dispositions + client-observed
            submit->commit latency percentiles).  ``None`` (the default)
            keeps the plain FIFO path bit-identical to earlier releases;
            so does the degenerate
            :meth:`~repro.testbed.ingress.IngressSpec.fifo_equivalent`
            spec (pinned by ``tests/testbed/test_ingress.py``).

    Returns a :class:`~repro.testbed.metrics.StreamingRunResult`; all times
    are virtual seconds and ``throughput_tps`` is committed transactions per
    virtual second.  Deterministic in all arguments (see the module
    docstring for the contract, including the saturated depth-0-vs-depth-1
    digest identity).
    """
    if spec is None:
        spec = StreamingSpec()
    if scenario.num_nodes < 1:
        raise DeploymentError("streaming needs at least one node")
    return StreamingRun(protocol, scenario, spec, batched=batched, seed=seed,
                        config=config, observer=observer, pack=pack,
                        membership=membership, ingress=ingress).run()
