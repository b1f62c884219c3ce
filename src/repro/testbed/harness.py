"""Deployment and experiment harness.

The harness assembles a deployment from a :class:`~repro.testbed.scenarios.Scenario`
(simulator, channels, nodes, cryptography, transports, routers), instantiates
protocols or individual components on top of it, runs the simulation to
completion and extracts metrics.  It is the programmatic equivalent of the
paper's testbed: every figure-reproducing benchmark and every example program
goes through these entry points:

* :func:`run_consensus`            -- one epoch of a consensus protocol on a
  single-hop deployment (Fig. 10d, Fig. 13a);
* :func:`run_multihop_consensus`   -- the two-phase clustered construction
  (Fig. 13b);
* :func:`run_broadcast_experiment` -- N parallel broadcast-component instances
  (Fig. 11a/11b);
* :func:`run_aba_experiment`       -- parallel or serial ABA instances
  (Fig. 12a/12b);
* :func:`repro.testbed.streaming.run_streaming_consensus` -- E back-to-back
  epochs under an open-loop arrival process (sustained load).

The single-epoch machinery (:func:`install_epoch_protocols`,
:func:`propose_epoch`) is shared between the one-epoch entry points and the
streaming runner, which replays it once per epoch on one long-lived
deployment.

:func:`build_deployment` is the only deployment builder: it also builds
one shard's slice for the sharded engine (:mod:`repro.testbed.sharding`),
and :func:`bind_member` wires every member's stack, including the
committees a membership reconfiguration rebuilds.  The multi-hop epoch
(:class:`MultiHopEpoch`, :func:`multihop_result`) is likewise shared by
the classic and the sharded run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.aba_coinflip import CoinFlipAba
from repro.components.base import Component, ComponentContext, ComponentRouter
from repro.components.cbc import Cbc
from repro.components.cbc_small import CbcSmall
from repro.components.common_coin import CommonCoinManager
from repro.components.prbc import Prbc
from repro.components.rbc import BrachaRbc
from repro.components.rbc_small import RbcSmall
from repro.core.batcher import (
    BaseTransport,
    BaselineTransport,
    ConsensusBatcherTransport,
    TransportConfig,
)
from repro.crypto.group import BatchVerifySession
from repro.crypto.timing import CryptoSuite
from repro.net.adversary import AsyncAdversary, DelayModel, LinkFaultSpec
from repro.net.channel import WirelessChannel
from repro.net.csma import CsmaMac
from repro.net.node import NetworkNode
from repro.net.routing import InterClusterRouting
from repro.net.shard import ShardBackboneChannel, ShardCsmaMac
from repro.net.sim import Simulator
from repro.net.topology import Cluster
from repro.net.trace import NetworkTrace
from repro.protocols.base import ConsensusConfig, ConsensusProtocol, ProtocolName
from repro.protocols.beat import Beat
from repro.protocols.dumbo import Dumbo
from repro.protocols.honeybadger import HoneyBadger
from repro.protocols.multihop import (
    ClusterOutcome,
    LeaderSchedule,
    decode_cluster_contribution,
    encode_cluster_contribution,
)
from repro.testbed.dealer_cache import (
    ALL_SCHEMES,
    SCHEME_COIN_FLIP,
    SCHEME_KEYRING,
    SCHEME_THRESHOLD_COIN,
    SCHEME_THRESHOLD_ENC,
    SCHEME_THRESHOLD_SIG,
    CryptoDomain,
    DealerCache,
    deal_crypto_domain,
    stable_seed,
)
from repro.testbed.invariants import RunObserver
from repro.testbed.metrics import (
    ComponentRunResult,
    ConsensusRunResult,
    MultiHopRunResult,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import TransactionWorkload, WorkloadSpec

#: epoch tag used to derive the conflicting batch of an equivocating proposer
EQUIVOCATION_EPOCH = "equiv"

# CryptoDomain / deal_crypto_domain / stable_seed moved to
# repro.testbed.dealer_cache in PR 4; they stay importable from the harness.
_REEXPORTED = (CryptoDomain, deal_crypto_domain, stable_seed)


class DeploymentError(RuntimeError):
    """Raised when a deployment cannot be assembled or a run misbehaves."""


# ---------------------------------------------------------------------------
# crypto domains
# ---------------------------------------------------------------------------

def crypto_schemes_for_protocol(protocol: str,
                                config: Optional[ConsensusConfig] = None
                                ) -> tuple[str, ...]:
    """The threshold schemes one protocol actually uses (lazy dealing).

    Every domain needs the digital-signature keyring (packet signing); beyond
    that, HoneyBadger needs the coin of its ABA variant plus threshold
    encryption (when enabled), BEAT substitutes the coin-flipping scheme, and
    Dumbo needs threshold signatures (PRBC DONE / CBC FINISH) plus the
    threshold coin that derives its global permutation.  Dealing only these
    keeps large-n setup proportional to what the run can exercise.
    """
    canonical = ProtocolName.validate(protocol)
    family = ProtocolName.family(canonical)
    coin = ProtocolName.coin(canonical)
    config = config or ConsensusConfig()
    needed: set[str] = {SCHEME_KEYRING}
    if family == "dumbo":
        needed.add(SCHEME_THRESHOLD_SIG)
        needed.add(SCHEME_THRESHOLD_COIN)  # the "pi" permutation coin
    else:  # honeybadger / beat share the HoneyBadger structure
        if config.use_threshold_encryption:
            needed.add(SCHEME_THRESHOLD_ENC)
    if coin == "sc":
        needed.add(SCHEME_THRESHOLD_COIN)
    elif coin == "cp":
        needed.add(SCHEME_COIN_FLIP)
    return tuple(scheme for scheme in ALL_SCHEMES if scheme in needed)


# ---------------------------------------------------------------------------
# deployments
# ---------------------------------------------------------------------------

@dataclass
class DomainRuntime:
    """One node's per-domain runtime: context, transport and router."""

    local_id: int
    ctx: ComponentContext
    transport: BaseTransport
    router: ComponentRouter
    protocol: Optional[ConsensusProtocol] = None
    components: list[Component] = field(default_factory=list)


@dataclass
class Deployment:
    """A fully assembled single-hop or multi-hop deployment, or one shard's
    slice of a multi-hop one (see :func:`build_deployment`)."""

    scenario: Scenario
    sim: Simulator
    trace: NetworkTrace
    adversary: AsyncAdversary
    channels: dict[str, WirelessChannel]
    nodes: dict[int, NetworkNode]
    #: per global node id, the runtime of its primary (cluster) domain
    runtimes: dict[int, DomainRuntime]
    #: multi-hop only: per leader node id, the runtime of the global domain
    global_runtimes: dict[int, DomainRuntime] = field(default_factory=dict)
    #: multi-hop only: per cluster index, the leader-rotation schedule.  The
    #: deployment is the single owner of rotation state: exclusions persist
    #: here for the deployment's whole life (one epoch or a streaming run).
    leader_schedules: dict[int, LeaderSchedule] = field(default_factory=dict)
    #: multi-hop only: per cluster index, the leader wired into the global
    #: domain (the ``active_leader`` of the cluster's schedule)
    epoch_leaders: dict[int, int] = field(default_factory=dict)
    batched: bool = True

    def honest_ids(self) -> list[int]:
        """Global ids of honest nodes."""
        byzantine = self.scenario.byzantine.byzantine_ids
        return [node_id for node_id in self.nodes if node_id not in byzantine]

    def shutdown(self) -> None:
        """Stop transport timers (end of run)."""
        for runtime in list(self.runtimes.values()) + list(self.global_runtimes.values()):
            runtime.transport.shutdown()


def bind_member(deployment: Deployment, node: NetworkNode, domain: CryptoDomain,
                local_id: int, crypto_rng: random.Random,
                component_rng: random.Random,
                transport_config: TransportConfig,
                channels: Sequence[Optional[str]],
                batch_session: Optional[BatchVerifySession] = None
                ) -> DomainRuntime:
    """Wire one domain member's dealt keys into its protocol stack.

    Builds the member's :class:`CryptoSuite`, its transport (batched or
    baseline, per the deployment), the :class:`ComponentRouter` that receives
    from it and the :class:`ComponentContext` protocols run on.  The
    transport is bound on ``node`` as the stack of every channel in
    ``channels`` (``None`` binds the node's default stack).  Every stack in a
    deployment -- cluster members, backbone leaders and a reconfigured
    committee -- is built here; callers differ only in the RNG streams and
    the binding they pass.
    """
    scenario = deployment.scenario
    suite = CryptoSuite(
        node_id=local_id,
        signing_key=domain.signing_keys[local_id],
        verify_keys=domain.verify_keys,
        threshold_sig=domain.node_scheme(SCHEME_THRESHOLD_SIG, local_id),
        threshold_coin=domain.node_scheme(SCHEME_THRESHOLD_COIN, local_id),
        coin_flip=domain.node_scheme(SCHEME_COIN_FLIP, local_id),
        threshold_enc=domain.node_scheme(SCHEME_THRESHOLD_ENC, local_id),
        ec_curve=scenario.ec_curve,
        threshold_curve=scenario.threshold_curve,
        rng=crypto_rng,
        cost_sink=node.charge_cpu,
        cost_scale=scenario.crypto_cost_scale,
        batch_session=batch_session,
    )
    transport_class = ConsensusBatcherTransport if deployment.batched \
        else BaselineTransport
    transport = transport_class(node, domain.num_nodes, suite, deployment.trace,
                                transport_config, local_id=local_id)
    router = ComponentRouter()
    transport.register_receiver(router.dispatch)
    for channel in channels:
        node.bind_stack(transport, channel=channel)
    ctx = ComponentContext(
        node_id=local_id, num_nodes=domain.num_nodes, faults=domain.faults,
        transport=transport, suite=suite, sim=deployment.sim, rng=component_rng)
    return DomainRuntime(local_id=local_id, ctx=ctx, transport=transport,
                         router=router)


def _apply_byzantine_network_behaviour(deployment: Deployment) -> None:
    """Apply strategies that act at the network level (crash, delays, loss).

    Crashes act on the node object, so only where the node is built.  Slow
    and lossy links act at delivery time in the *receiving* adversary, so
    they are registered for every node of the topology: a shard slice then
    delays or drops frames from a byzantine sender that another shard hosts.
    """
    scenario = deployment.scenario
    spec = scenario.byzantine
    topology_ids = [node_id for cluster in scenario.topology.clusters
                    for node_id in cluster.node_ids]
    for node_id, strategy in spec.assignments.items():
        node = deployment.nodes.get(node_id)
        if strategy == "crash" and node is not None:
            node.crash()
        elif strategy == "late-crash" and node is not None:
            deployment.sim.schedule(spec.late_crash_at_s, node.crash,
                                    label=f"late-crash:{node_id}")
        elif node_id not in topology_ids:
            continue
        elif strategy == "slow-links":
            for other_id in topology_ids:
                if other_id != node_id:
                    deployment.adversary.target_link(node_id, other_id,
                                                     spec.slow_link_delay_s)
        elif strategy == "lossy-links":
            deployment.adversary.add_link_fault(LinkFaultSpec(
                drop_rate=spec.lossy_drop_rate,
                duplicate_rate=spec.lossy_duplicate_rate,
                reorder_jitter_s=spec.lossy_reorder_jitter_s,
                senders=frozenset({node_id})))


def build_deployment(scenario: Scenario, batched: bool = True,
                     seed: int = 0,
                     crypto_schemes: Sequence[str] = ALL_SCHEMES,
                     global_crypto_schemes: Optional[Sequence[str]] = None,
                     dealer_cache: Optional[DealerCache] = None,
                     batch_session: Optional[BatchVerifySession] = None,
                     shard: Optional[tuple[int, Sequence[int]]] = None
                     ) -> Deployment:
    """Assemble nodes, channels, crypto and transports for a scenario.

    ``crypto_schemes`` limits which threshold schemes the per-cluster domains
    deal (see :func:`crypto_schemes_for_protocol`); ``global_crypto_schemes``
    does the same for the multi-hop leader domain (defaults to
    ``crypto_schemes``).  Dealing goes through the two-tier
    :class:`~repro.testbed.dealer_cache.DealerCache`, so repeated deployments
    at the same ``(num_nodes, seed)`` share bit-identical key material
    without re-dealing.  ``batch_session`` (one per long-lived run, e.g. a
    streaming stream) is shared by every node's :class:`CryptoSuite` so
    batch-verification work repeated across simulated nodes and epochs is
    memoised -- wall clock only, never modelled cost or results.

    ``shard`` -- ``(shard_index, cluster_indices)`` of a multi-hop scenario
    -- builds one shard's slice for the sharded engine
    (:mod:`repro.testbed.sharding`): the simulator is seeded from
    ``stable_seed(seed, "shard", shard_index)``, only the listed clusters are
    built, and the backbone is a :class:`~repro.net.shard.ShardBackboneChannel`
    mirror on which only the local leaders attach (shard-aware) MACs.  Every
    other stream keeps its classic ``stable_seed`` label, so a node is wired
    identically whichever slice hosts it, and leaders, the hop table and the
    global domain are resolved for *all* clusters in every slice.
    """
    if global_crypto_schemes is None:
        global_crypto_schemes = crypto_schemes
    clusters = scenario.topology.clusters
    backbone_name = scenario.topology.global_channel_name
    multi_hop = scenario.is_multi_hop and backbone_name is not None
    if shard is None:
        sim = Simulator(seed=seed)
        local_clusters = clusters
    else:
        if not multi_hop:
            raise DeploymentError(
                "shard: a shard slice needs a multi-hop scenario (the "
                "backbone is the only coupling between shards)")
        shard_index, cluster_indices = shard
        sim = Simulator(seed=stable_seed(seed, "shard", shard_index))
        local_clusters = [clusters[index] for index in cluster_indices]
    trace = NetworkTrace()
    adversary = AsyncAdversary(
        byzantine=set(scenario.byzantine.byzantine_ids),
        delay_model=DelayModel(base_jitter_s=scenario.link_jitter_s),
        link_faults=list(scenario.link_faults),
        partitions=list(scenario.partitions))
    deployment = Deployment(scenario=scenario, sim=sim, trace=trace,
                            adversary=adversary, channels={}, nodes={},
                            runtimes={}, batched=batched)
    channels, nodes = deployment.channels, deployment.nodes

    for cluster in local_clusters:
        channels[cluster.channel_name] = WirelessChannel(
            sim, scenario.radio, trace, name=cluster.channel_name,
            adversary=adversary)
    if multi_hop:
        routing = InterClusterRouting(scenario.topology)
        channel_class = WirelessChannel if shard is None \
            else partial(ShardBackboneChannel, shard_index=shard[0])
        backbone = channel_class(
            sim, scenario.radio, trace, name=backbone_name, adversary=adversary,
            per_hop_forward_s=scenario.per_hop_forward_s)
        channels[backbone_name] = backbone

    # --- per-cluster (local) domains -------------------------------------
    for cluster in local_clusters:
        domain = deal_crypto_domain(
            cluster.size, stable_seed(seed, "cluster", cluster.index),
            schemes=crypto_schemes, cache=dealer_cache)
        channel = channels[cluster.channel_name]
        for local_id, global_id in enumerate(cluster.node_ids):
            node = NetworkNode(sim, global_id, trace, cpu=scenario.cpu,
                               dma_config=scenario.dma)
            mac = CsmaMac(sim, global_id, channel, scenario.csma, trace,
                          random.Random(stable_seed(seed, "mac", global_id)))
            node.add_interface("radio0", mac)
            nodes[global_id] = node
            # Digital signatures are per-domain here (local ids), which is
            # consistent because frames only travel inside the cluster channel.
            deployment.runtimes[global_id] = bind_member(
                deployment, node, domain, local_id,
                crypto_rng=random.Random(stable_seed(seed, "crypto", global_id)),
                component_rng=random.Random(
                    stable_seed(seed, "component", global_id)),
                transport_config=scenario.transport,
                channels=(cluster.channel_name, None),
                batch_session=batch_session)

    # --- global (leader) domain for multi-hop -----------------------------
    if multi_hop:
        crashed = lambda node_id: \
            scenario.byzantine.assignments.get(node_id) == "crash"
        for cluster in clusters:
            schedule = LeaderSchedule(cluster)
            deployment.leader_schedules[cluster.index] = schedule
            deployment.epoch_leaders[cluster.index] = schedule.active_leader(
                epoch=0, crashed=crashed,
                rotate=scenario.rotate_crashed_leaders)
        leaders = [deployment.epoch_leaders[cluster.index]
                   for cluster in clusters]
        global_domain = deal_crypto_domain(
            len(leaders), stable_seed(seed, "global"),
            schemes=global_crypto_schemes, cache=dealer_cache)
        backbone.hop_counts.update(routing.hop_table_for(leaders))
        mac_class = CsmaMac if shard is None else ShardCsmaMac
        backbone_config = replace(
            scenario.transport,
            interface=scenario.transport.interface or "backbone")
        local_indices = {cluster.index for cluster in local_clusters}
        for local_id, (cluster, leader_id) in enumerate(zip(clusters, leaders)):
            if cluster.index not in local_indices:
                continue
            node = nodes[leader_id]
            mac = mac_class(sim, leader_id, backbone, scenario.csma, trace,
                            random.Random(stable_seed(seed, "gmac", leader_id)))
            node.add_interface("backbone", mac)
            deployment.global_runtimes[leader_id] = bind_member(
                deployment, node, global_domain, local_id,
                crypto_rng=random.Random(
                    stable_seed(seed, "gcrypto", leader_id)),
                component_rng=random.Random(
                    stable_seed(seed, "gcomponent", leader_id)),
                transport_config=backbone_config,
                channels=(backbone_name,),
                batch_session=batch_session)

    _apply_byzantine_network_behaviour(deployment)
    return deployment


def _epoch_leader(scenario: Scenario, cluster: Cluster) -> int:
    """The leader a *fresh* deployment of ``scenario`` would wire for
    ``cluster`` (a stateless convenience for tests and planning code).

    The rotation discipline itself lives in
    :meth:`repro.protocols.multihop.LeaderSchedule.active_leader`; deployments
    own one schedule per cluster (``Deployment.leader_schedules``) so
    exclusions persist for the deployment's whole life -- a rotated-out
    leader is never re-selected in any later epoch (regression-tested in
    ``tests/testbed/test_leader_rotation.py``).  Callers holding a deployment
    should read ``deployment.epoch_leaders`` instead of calling this.
    """
    return LeaderSchedule(cluster).active_leader(
        epoch=0,
        crashed=lambda node_id:
            scenario.byzantine.assignments.get(node_id) == "crash",
        rotate=scenario.rotate_crashed_leaders)


# ---------------------------------------------------------------------------
# protocol factory
# ---------------------------------------------------------------------------

def make_protocol(name: str, runtime: DomainRuntime,
                  config: Optional[ConsensusConfig] = None) -> ConsensusProtocol:
    """Instantiate a consensus protocol on one node's domain runtime."""
    canonical = ProtocolName.validate(name)
    family = ProtocolName.family(canonical)
    coin = ProtocolName.coin(canonical)
    config = config or ConsensusConfig()
    if family == "honeybadger":
        return HoneyBadger(runtime.ctx, runtime.router, coin=coin, config=config)
    if family == "beat":
        return Beat(runtime.ctx, runtime.router, config=config)
    return Dumbo(runtime.ctx, runtime.router, coin=coin, config=config)


def _reject_streaming_only_strategies(scenario: Scenario) -> None:
    """Fail loudly when a one-epoch entry point gets a streaming-only fault.

    ``epoch-crash`` fires at a stream epoch index; in a single-epoch run it
    would never fire and the cell would be vacuously green -- the same
    failure mode :func:`_inject_equivocation` guards against.
    """
    if scenario.byzantine.nodes_with("epoch-crash"):
        raise DeploymentError(
            "the epoch-crash strategy fires at a stream epoch index and "
            "never triggers in a one-epoch run; use run_streaming_consensus")
    if scenario.membership is not None:
        raise DeploymentError(
            "membership churn reconfigures the committee at epoch "
            "boundaries, which a one-epoch run does not have; use "
            "run_streaming_consensus")


# ---------------------------------------------------------------------------
# consensus runs (single-hop)
# ---------------------------------------------------------------------------

def run_consensus(protocol: str, scenario: Scenario, batch_size: int = 8,
                  transaction_bytes: int = 64, batched: bool = True,
                  seed: int = 0,
                  config: Optional[ConsensusConfig] = None,
                  workload_spec: Optional[WorkloadSpec] = None,
                  observer: Optional[RunObserver] = None) -> ConsensusRunResult:
    """Run one epoch of ``protocol`` on a single-hop scenario.

    Args:
        protocol: canonical protocol name (see
            ``repro.protocols.base.PROTOCOL_NAMES``), e.g. ``honeybadger-sc``
            or ``beat``.
        scenario: a single-hop :class:`~repro.testbed.scenarios.Scenario`
            (multi-hop raises :class:`DeploymentError`).
        batch_size: transactions each node proposes per epoch.
        transaction_bytes: size of one transaction in **bytes** (>= 8).
        batched: ``True`` deploys the ConsensusBatcher transport, ``False``
            the unbatched baseline transport.
        seed: integer seed from which *all* randomness derives (crypto
            dealing, MAC backoff, adversary jitter, workload bytes).
        config: protocol tuning (epoch tag, ABA round cap, threshold
            encryption toggle).
        workload_spec: overrides the default uniform workload (flavored
            campaigns use ``task-allocation`` / ``telemetry``).
        observer: collects proposals and decisions for the conformance
            checkers in :mod:`repro.testbed.invariants`.

    Returns a :class:`~repro.testbed.metrics.ConsensusRunResult` whose
    ``latency_s`` is **simulated virtual time in seconds** (NaN on timeout)
    and ``throughput_tpm`` transactions per *minute* of virtual time.

    Determinism: the result is a pure function of
    ``(protocol, scenario, workload, batched, seed, config)`` -- no
    wall-clock or process state enters the simulation, so equal arguments
    reproduce every metric bit for bit (guarded by
    ``tests/testbed/test_seed_determinism.py``).
    """
    if scenario.is_multi_hop:
        raise DeploymentError("run_consensus expects a single-hop scenario; "
                              "use run_multihop_consensus instead")
    _reject_streaming_only_strategies(scenario)
    deployment = build_deployment(
        scenario, batched=batched, seed=seed,
        crypto_schemes=crypto_schemes_for_protocol(protocol, config))
    workload = TransactionWorkload(
        workload_spec or WorkloadSpec(batch_size=batch_size,
                                      transaction_bytes=transaction_bytes),
        seed=seed)
    protocols = install_epoch_protocols(deployment, protocol,
                                        deployment.runtimes, config)
    propose_epoch(deployment, deployment.runtimes, workload, observer=observer)

    honest = deployment.honest_ids()
    decided = deployment.sim.run_until(
        lambda: all(protocols[node_id].decided for node_id in honest
                    if node_id in protocols),
        timeout=scenario.timeout_s)
    deployment.shutdown()
    return _consensus_result(protocol, deployment, protocols, honest, decided,
                             batched, seed, observer=observer)


def install_epoch_protocols(deployment: Deployment, protocol: str,
                            runtimes: dict[int, DomainRuntime],
                            config: Optional[ConsensusConfig]) -> dict[int, ConsensusProtocol]:
    """Instantiate one protocol instance per runtime for one epoch.

    The reusable half of the single-epoch core: the one-epoch entry points
    call it once, the streaming runner once per epoch with a per-epoch
    ``config.epoch`` tag (instances of different epochs coexist on the same
    router/transport because every component message carries the tag).
    """
    protocols: dict[int, ConsensusProtocol] = {}
    for node_id, runtime in runtimes.items():
        instance = make_protocol(protocol, runtime, config)
        runtime.protocol = instance
        protocols[node_id] = instance
    return protocols


def propose_epoch(deployment: Deployment, runtimes: dict[int, DomainRuntime],
                  workload: TransactionWorkload,
                  observer: Optional[RunObserver] = None,
                  domain_of: Optional[Callable[[int], Any]] = None,
                  batch_for: Optional[Callable[[int, DomainRuntime], list]] = None,
                  equivocation_epoch: Any = EQUIVOCATION_EPOCH) -> None:
    """Submit every eligible node's proposal for one epoch.

    The other half of the single-epoch core.  Byzantine proposal strategies
    (crash / mute / garbage / equivocation) are applied here so every entry
    point -- including the streaming runner -- exercises the same fault
    surface.  ``batch_for(node_id, runtime)`` overrides where honest batches
    come from (default: ``workload.batch_for(local_id)``; the streaming
    runner drains per-node mempools instead); ``equivocation_epoch`` is the
    workload tag the conflicting batch of an equivocating proposer is derived
    from, which streaming varies per epoch so conflicting batches stay
    disjoint from every honest batch of the stream.
    """
    spec = deployment.scenario.byzantine
    proposal_rng = random.Random(deployment.sim.seed ^ 0xBAD)
    domain_of = domain_of or (lambda _node_id: 0)
    for node_id, runtime in runtimes.items():
        if not spec.proposes(node_id) and spec.is_byzantine(node_id):
            continue
        node = deployment.nodes[node_id]
        if node.crashed:
            continue
        if spec.proposal_is_garbage(node_id):
            batch = [bytes(proposal_rng.randrange(256) for _ in range(40))]
            if observer is not None:
                observer.record_proposal(node_id, batch, domain_of(node_id),
                                         kind="garbage")
            node.run_task(lambda p=runtime.protocol, b=batch: p.propose(b))
            continue
        if batch_for is not None:
            batch = batch_for(node_id, runtime)
        else:
            batch = workload.batch_for(runtime.local_id)
        if observer is not None:
            observer.record_proposal(node_id, batch, domain_of(node_id))
        node.run_task(lambda p=runtime.protocol, b=batch: p.propose(b))
        if spec.equivocates(node_id):
            conflicting = workload.batch_for(runtime.local_id,
                                             epoch=equivocation_epoch)
            if observer is not None:
                observer.record_proposal(node_id, conflicting,
                                         domain_of(node_id),
                                         kind="equivocation")
            node.run_task(lambda p=runtime.protocol, b=conflicting:
                          _inject_equivocation(p, b))


def _inject_equivocation(protocol: ConsensusProtocol,
                         conflicting: list[bytes]) -> None:
    """Launch the equivocation attack, failing loudly if unsupported.

    A protocol whose :meth:`inject_conflicting_proposal` returns False would
    otherwise make an ``equivocate`` campaign cell vacuously green -- decided
    without any attack launched, while the observer testifies one happened.
    """
    if not protocol.inject_conflicting_proposal(conflicting):
        raise DeploymentError(
            f"protocol {protocol.name!r} does not implement the equivocation "
            f"attack; the equivocating-proposer strategy cannot be exercised")


def _consensus_result(protocol: str, deployment: Deployment,
                      protocols: dict[int, ConsensusProtocol],
                      honest: list[int], decided: bool, batched: bool,
                      seed: int,
                      observer: Optional[RunObserver] = None) -> ConsensusRunResult:
    per_node_latency = {
        node_id: protocols[node_id].decide_time
        for node_id in honest
        if node_id in protocols and protocols[node_id].decide_time is not None}
    latency = max(per_node_latency.values()) if per_node_latency else float("nan")
    committed = 0
    digest = ""
    per_node_digest: dict[int, str] = {}
    for node_id in honest:
        instance = protocols.get(node_id)
        if instance is None:
            continue
        witness = instance.witness()
        if witness.digest is None:
            continue
        per_node_digest[node_id] = witness.digest
        if not digest:
            committed = len(witness.block)
            digest = witness.digest
        if observer is not None:
            observer.record_decision(node_id, list(witness.block),
                                     witness.decide_time,
                                     digest=witness.digest)
    crypto_seconds = sum(runtime.ctx.suite.ledger.total_seconds
                         for runtime in deployment.runtimes.values())
    return ConsensusRunResult(
        protocol=protocol, batched=batched,
        num_nodes=deployment.scenario.num_nodes,
        decided=decided, latency_s=latency,
        per_node_latency_s=per_node_latency,
        committed_transactions=committed, block_digest=digest,
        per_node_digest=per_node_digest,
        channel_accesses=deployment.trace.total_channel_accesses,
        frames_sent=deployment.trace.total_frames_sent,
        bytes_sent=deployment.trace.total_bytes_sent,
        collisions=deployment.trace.total_collisions,
        crypto_seconds=crypto_seconds,
        sim_events=deployment.sim.events_processed,
        seed=seed)


# ---------------------------------------------------------------------------
# multi-hop consensus
# ---------------------------------------------------------------------------

def global_consensus_config(config: Optional[ConsensusConfig]) -> ConsensusConfig:
    """The leaders' global-domain config for one epoch of local ``config``.

    The global instance is tagged ``("global", epoch)`` so it never collides
    with a leader's local instance, orders already-decided cluster blocks
    without threshold encryption, and keeps the local ABA round cap.
    """
    config = config or ConsensusConfig()
    return ConsensusConfig(epoch=("global", config.epoch),
                           use_threshold_encryption=False,
                           max_aba_rounds=config.max_aba_rounds)


def feed_decided_clusters(deployment: Deployment,
                          leaders: Iterable[tuple[int, int]],
                          local_protocols: dict[int, ConsensusProtocol],
                          global_protocols: dict[int, ConsensusProtocol],
                          outcomes: dict[int, ClusterOutcome]) -> None:
    """Propose each newly decided local block into the global domain.

    For every ``(cluster index, leader)`` whose leader has decided locally
    and that has no entry in ``outcomes`` yet, records the outcome and
    schedules the leader's global instance to propose the cluster's
    contribution.  Run after every event by the one-epoch multi-hop run
    (classic and sharded) and by the multi-hop stream.
    """
    for cluster_index, leader_id in leaders:
        if cluster_index in outcomes:
            continue
        leader_protocol = local_protocols.get(leader_id)
        if leader_protocol is None or not leader_protocol.decided:
            continue
        outcome = ClusterOutcome(cluster_index=cluster_index, leader=leader_id,
                                 block=list(leader_protocol.block or []),
                                 decide_time=leader_protocol.decide_time)
        outcomes[cluster_index] = outcome
        contribution = encode_cluster_contribution(cluster_index, outcome.block)
        global_protocol = global_protocols.get(leader_id)
        if global_protocol is not None:
            deployment.nodes[leader_id].run_task(
                lambda p=global_protocol, c=contribution: p.propose([c]))


class MultiHopEpoch:
    """One two-phase epoch on a multi-hop deployment (or one shard slice).

    Construction builds the deployment (``shard`` as in
    :func:`build_deployment`), installs the local and global protocol
    instances and submits the local proposals.  :meth:`poll`, run after
    every processed event, feeds each built cluster's locally decided block
    into its leader's global instance; :meth:`done` reports whether every
    honest leader built here has decided globally.  :meth:`report` shuts
    the deployment down and returns picklable witnesses, which
    :func:`multihop_result` merges -- one report for a classic run, one per
    shard for the sharded engine.
    """

    def __init__(self, protocol: str, scenario: Scenario, batched: bool,
                 seed: int, config: Optional[ConsensusConfig],
                 workload_spec: WorkloadSpec, observer: Any = None,
                 shard: Optional[tuple[int, Sequence[int]]] = None) -> None:
        global_config = global_consensus_config(config)
        self.deployment = deployment = build_deployment(
            scenario, batched=batched, seed=seed,
            crypto_schemes=crypto_schemes_for_protocol(protocol, config),
            global_crypto_schemes=crypto_schemes_for_protocol(protocol,
                                                              global_config),
            shard=shard)
        workload = TransactionWorkload(workload_spec, seed=seed)
        self.local_protocols = install_epoch_protocols(
            deployment, protocol, deployment.runtimes, config)
        self.global_protocols = install_epoch_protocols(
            deployment, protocol, deployment.global_runtimes, global_config)
        cluster_of = {node_id: cluster.index
                      for cluster in scenario.topology.clusters
                      for node_id in cluster.node_ids}
        self.cluster_of = cluster_of
        propose_epoch(deployment, deployment.runtimes, workload,
                      observer=observer,
                      domain_of=lambda node_id: ("cluster", cluster_of[node_id]))
        self.outcomes: dict[int, ClusterOutcome] = {}
        # The deployment's schedules already resolved (and, under
        # rotate_crashed_leaders, rotated) the wired leader per cluster.
        self.watched = [(cluster_index, leader)
                        for cluster_index, leader
                        in deployment.epoch_leaders.items()
                        if leader in deployment.nodes]
        self.honest_leaders = [leader for leader in deployment.global_runtimes
                               if leader not in scenario.byzantine.byzantine_ids]

    def poll(self) -> None:
        feed_decided_clusters(self.deployment, self.watched,
                              self.local_protocols, self.global_protocols,
                              self.outcomes)

    def done(self) -> bool:
        return all(self.global_protocols[leader].decided
                   for leader in self.honest_leaders)

    def report(self) -> dict[str, Any]:
        self.deployment.shutdown()
        byzantine = self.deployment.scenario.byzantine.byzantine_ids
        local_witnesses = []
        for node_id, instance in self.local_protocols.items():
            if node_id in byzantine:
                continue
            witness = instance.witness()
            if witness.block is None:
                continue
            local_witnesses.append((node_id, self.cluster_of[node_id],
                                    list(witness.block), witness.decide_time,
                                    witness.digest))
        global_witnesses = []
        for leader in self.honest_leaders:
            witness = self.global_protocols[leader].witness()
            global_witnesses.append((leader, list(witness.block or []),
                                     witness.decide_time, witness.digest))
        return {
            "local_latencies": {
                outcome.cluster_index: outcome.decide_time
                for outcome in self.outcomes.values()
                if outcome.decide_time is not None},
            "local_witnesses": local_witnesses,
            "global_witnesses": global_witnesses,
        }


def multihop_result(protocol: str, scenario: Scenario, batched: bool,
                    seed: int, decided: bool, reports: Sequence[dict],
                    trace: NetworkTrace, sim_events: int,
                    observer: Optional[RunObserver] = None) -> MultiHopRunResult:
    """Merge :meth:`MultiHopEpoch.report` dicts into the run's result.

    ``reports`` come in cluster order (shards hold contiguous cluster
    blocks), so the observer sees every local decision, then every global
    one, in the classic order.  ``latency_s`` is the time the slowest
    honest leader decides globally.
    """
    local_latencies: dict[int, float] = {}
    for report in reports:
        local_latencies.update(report["local_latencies"])
    if observer is not None:
        for report in reports:
            for node_id, cluster_index, block, decide_time, digest \
                    in report["local_witnesses"]:
                observer.record_decision(node_id, block, decide_time,
                                         domain=("cluster", cluster_index),
                                         digest=digest)
    global_witnesses = [witness for report in reports
                        for witness in report["global_witnesses"]]
    global_decide_times = [decide_time
                           for _leader, _block, decide_time, _digest
                           in global_witnesses
                           if decide_time is not None]
    latency = max(global_decide_times) if global_decide_times else float("nan")
    committed = 0
    digest = ""
    per_leader_digest: dict[int, str] = {}
    for leader, block, decide_time, leader_digest in global_witnesses:
        if not block:
            continue
        per_leader_digest[leader] = leader_digest
        transactions = [transaction for item in block
                        for transaction in _decode_contribution_txs(item)]
        if not digest:
            committed = len(transactions)
            digest = leader_digest
        if observer is not None:
            observer.record_decision(leader, list(block), decide_time,
                                     domain="global",
                                     transactions=transactions,
                                     digest=leader_digest)
    return MultiHopRunResult(
        protocol=protocol, batched=batched,
        num_clusters=scenario.topology.num_clusters,
        nodes_per_cluster=scenario.topology.clusters[0].size,
        decided=decided, latency_s=latency,
        local_latencies_s=local_latencies,
        committed_transactions=committed,
        block_digest=digest,
        per_leader_digest=per_leader_digest,
        channel_accesses=trace.total_channel_accesses,
        bytes_sent=trace.total_bytes_sent,
        collisions=trace.total_collisions,
        sim_events=sim_events,
        seed=seed)


def run_multihop_consensus(protocol: str, scenario: Scenario,
                           batch_size: int = 8, transaction_bytes: int = 64,
                           batched: bool = True, seed: int = 0,
                           config: Optional[ConsensusConfig] = None,
                           workload_spec: Optional[WorkloadSpec] = None,
                           observer: Optional[RunObserver] = None,
                           shards: Optional[int] = None,
                           shard_workers: int = 1) -> MultiHopRunResult:
    """Run the two-phase local + global consensus on a multi-hop scenario.

    Phase one runs ``protocol`` inside every cluster on the cluster's own
    channel; when a cluster's epoch-0 leader decides locally, it proposes
    the decided block into a global instance of the same protocol that the
    leaders run over the routed backbone channel (phase two).  Arguments,
    units and the determinism guarantee match :func:`run_consensus`; the
    scenario must be multi-hop.  The returned
    :class:`~repro.testbed.metrics.MultiHopRunResult` adds per-cluster local
    latencies (``local_latencies_s``, virtual seconds) and per-leader block
    digests; ``latency_s`` is the time the *slowest honest leader* decides
    globally.

    ``shards`` (``None`` = the classic single-heap path, bit-for-bit
    unchanged) partitions the clusters into that many contiguous groups,
    each with its own event heap and RNG streams, synchronized
    conservatively at barrier windows (see :mod:`repro.net.shard`).  A
    sharded result is a pure function of ``(protocol, scenario, workload,
    batched, seed, shards)``; ``shard_workers`` only picks how many worker
    processes execute the identical barrier schedule, so every worker count
    reproduces every metric bit for bit (property-tested in
    ``tests/testbed/test_shard_identity.py``).  ``shard_workers`` other than
    1 without ``shards`` raises :class:`DeploymentError`.
    """
    if not scenario.is_multi_hop:
        raise DeploymentError("run_multihop_consensus expects a multi-hop scenario")
    _reject_streaming_only_strategies(scenario)
    workload_spec = workload_spec or WorkloadSpec(
        batch_size=batch_size, transaction_bytes=transaction_bytes)
    if shards is not None:
        from repro.testbed.sharding import run_sharded_multihop_consensus
        return run_sharded_multihop_consensus(
            protocol, scenario, shards=shards, shard_workers=shard_workers,
            batched=batched, seed=seed, config=config,
            workload_spec=workload_spec, observer=observer)
    if shard_workers != 1:
        raise DeploymentError(
            f"shard_workers={shard_workers} needs shards: the classic "
            f"single-heap path runs in one process")
    epoch = MultiHopEpoch(protocol, scenario, batched, seed, config,
                          workload_spec, observer)
    deployment = epoch.deployment

    def poll() -> bool:
        epoch.poll()
        return epoch.done()

    decided = deployment.sim.run_until(poll, timeout=scenario.timeout_s)
    return multihop_result(protocol, scenario, batched, seed, decided,
                           [epoch.report()], deployment.trace,
                           deployment.sim.events_processed, observer=observer)


def _decode_contribution_txs(item: bytes) -> list[bytes]:
    try:
        _cluster, transactions = decode_cluster_contribution(item)
        return transactions
    except ValueError:
        return []


# ---------------------------------------------------------------------------
# component experiments (broadcast protocols, Fig. 11)
# ---------------------------------------------------------------------------

_BROADCAST_FACTORIES: dict[str, Callable[..., Component]] = {
    "rbc": BrachaRbc,
    "rbc-small": RbcSmall,
    "prbc": Prbc,
    "cbc": Cbc,
    "cbc-small": CbcSmall,
}


def run_broadcast_experiment(component: str, parallelism: int = 1,
                             proposal_packets: int = 1, num_nodes: int = 4,
                             batched: bool = True, seed: int = 0,
                             scenario: Optional[Scenario] = None) -> ComponentRunResult:
    """Run ``parallelism`` parallel broadcast-component instances to completion.

    Args:
        component: ``rbc`` | ``rbc-small`` | ``cbc`` | ``cbc-small`` |
            ``prbc`` (:class:`DeploymentError` otherwise).
        parallelism: number of simultaneous instances; proposers rotate
            round-robin over the nodes.
        proposal_packets: proposal size in units of **maximum-size radio
            frames** (the x-axis of Fig. 11b); small variants broadcast
            one-byte values regardless.
        num_nodes: deployment size when ``scenario`` is not given.
        batched / seed / scenario: as in :func:`run_consensus`.

    Returns a :class:`~repro.testbed.metrics.ComponentRunResult`;
    ``latency_s`` is the virtual time at which the *last* honest node
    completed its *last* instance (NaN on timeout).  Deterministic in
    ``(component, parallelism, proposal_packets, scenario, batched, seed)``.
    """
    if component not in _BROADCAST_FACTORIES:
        raise DeploymentError(
            f"unknown broadcast component {component!r}; "
            f"known: {sorted(_BROADCAST_FACTORIES)}")
    scenario = scenario or Scenario.single_hop(num_nodes)
    schemes = (SCHEME_KEYRING, SCHEME_THRESHOLD_SIG) \
        if component in ("prbc", "cbc", "cbc-small") else (SCHEME_KEYRING,)
    deployment = build_deployment(scenario, batched=batched, seed=seed,
                                  crypto_schemes=schemes)
    factory = _BROADCAST_FACTORIES[component]
    tag = ("bcast", component)
    completions: dict[int, set[int]] = {node_id: set() for node_id in deployment.nodes}

    proposal_bytes = max(16, proposal_packets * scenario.radio.max_payload_bytes - 60)
    proposal_rng = random.Random(seed ^ 0xFACE)

    for node_id, runtime in deployment.runtimes.items():
        for instance in range(parallelism):
            proposer = instance % runtime.ctx.num_nodes
            comp = factory(runtime.ctx, instance, tag=tag, proposer=proposer)
            comp.on_output = (lambda nid: lambda inst, _out: completions[nid].add(inst))(node_id)
            runtime.router.register(comp)
            runtime.components.append(comp)

    # proposers start their instances
    for node_id, runtime in deployment.runtimes.items():
        for instance in range(parallelism):
            if instance % runtime.ctx.num_nodes != runtime.local_id:
                continue
            comp = runtime.components[instance]
            if component in ("rbc-small", "cbc-small"):
                value = 1 if component == "rbc-small" else list(
                    range(runtime.ctx.quorum))
            else:
                value = bytes(proposal_rng.randrange(256)
                              for _ in range(proposal_bytes))
            deployment.nodes[node_id].run_task(
                lambda c=comp, v=value: c.start(v))

    honest = deployment.honest_ids()
    target = set(range(parallelism))
    finished = deployment.sim.run_until(
        lambda: all(completions[node_id] >= target for node_id in honest),
        timeout=scenario.timeout_s)
    deployment.shutdown()
    return ComponentRunResult(
        component=component, batched=batched, num_nodes=num_nodes,
        parallelism=parallelism, completed=finished,
        latency_s=deployment.sim.now if finished else float("nan"),
        proposal_packets=proposal_packets,
        channel_accesses=deployment.trace.total_channel_accesses,
        bytes_sent=deployment.trace.total_bytes_sent,
        collisions=deployment.trace.total_collisions,
        per_node_channel_accesses=deployment.trace.channel_accesses_per_node(),
        seed=seed)


# ---------------------------------------------------------------------------
# component experiments (ABA, Fig. 12)
# ---------------------------------------------------------------------------

def run_aba_experiment(kind: str, parallel_instances: int = 1,
                       serial_instances: int = 0, num_nodes: int = 4,
                       batched: bool = True, mixed_inputs: bool = True,
                       seed: int = 0,
                       scenario: Optional[Scenario] = None) -> ComponentRunResult:
    """Run parallel or serial ABA instances to completion.

    Args:
        kind: ``lc`` (Bracha, local coin), ``sc`` (shared coin via threshold
            signatures) or ``cp`` (threshold coin flipping, BEAT's choice).
        parallel_instances: simultaneous instances (Fig. 12a mode); ignored
            when ``serial_instances`` > 0.
        serial_instances: when > 0, runs that many instances back to back,
            each starting when the node's previous instance decides locally
            (Fig. 12b / Dumbo's serial pattern).
        mixed_inputs: ``True`` feeds node/instance-dependent 0/1 inputs
            (forcing coin rounds); ``False`` lets every node input 1.
        num_nodes / batched / seed / scenario: as in
            :func:`run_broadcast_experiment`.

    Returns a :class:`~repro.testbed.metrics.ComponentRunResult` with
    ``rounds_executed`` summed over all nodes and instances; ``latency_s``
    is virtual seconds (NaN on timeout).  Honest-node agreement on every
    instance is asserted before returning.  Deterministic in all arguments
    for a fixed ``seed``.
    """
    if kind not in ("lc", "sc", "cp"):
        raise DeploymentError(f"unknown ABA kind {kind!r}; expected lc, sc or cp")
    scenario = scenario or Scenario.single_hop(num_nodes)
    schemes = {"lc": (SCHEME_KEYRING,),
               "sc": (SCHEME_KEYRING, SCHEME_THRESHOLD_COIN),
               "cp": (SCHEME_KEYRING, SCHEME_COIN_FLIP)}[kind]
    deployment = build_deployment(scenario, batched=batched, seed=seed,
                                  crypto_schemes=schemes)
    tag = ("aba-exp", kind)
    serial_mode = serial_instances > 0
    total_instances = serial_instances if serial_mode else parallel_instances
    completions: dict[int, set[int]] = {node_id: set() for node_id in deployment.nodes}
    decisions: dict[int, dict[int, int]] = {node_id: {} for node_id in deployment.nodes}
    rounds: dict[int, int] = {}

    def make_aba(runtime: DomainRuntime, instance: int,
                 coin: Optional[CommonCoinManager]) -> Component:
        if kind == "lc":
            return BrachaAba(runtime.ctx, instance, tag=tag)
        aba_class = CachinAba if kind == "sc" else CoinFlipAba
        return aba_class(runtime.ctx, instance, coin=coin, tag=tag)

    per_node_abas: dict[int, list[Component]] = {}
    for node_id, runtime in deployment.runtimes.items():
        coin = None
        if kind in ("sc", "cp"):
            coin = CommonCoinManager(runtime.ctx, tag=tag,
                                     flavor="tsig" if kind == "sc" else "flip",
                                     coin_name="aba-exp")
            runtime.router.register_kind_handler("coin", tag, coin.handle)
        abas = []
        for instance in range(total_instances):
            aba = make_aba(runtime, instance, coin)

            def on_output(nid=node_id, inst=instance):
                def callback(_instance, decision):
                    completions[nid].add(inst)
                    decisions[nid][inst] = decision
                    rounds[nid] = rounds.get(nid, 0) + 1
                    if serial_mode:
                        _start_next_serial(nid, inst + 1)
                return callback

            aba.on_output = on_output()
            runtime.router.register(aba)
            abas.append(aba)
        per_node_abas[node_id] = abas
        runtime.components.extend(abas)

    def input_for(node_id: int, instance: int) -> int:
        if not mixed_inputs:
            return 1
        return (node_id + instance) % 2

    def _start_next_serial(node_id: int, instance: int) -> None:
        if instance >= total_instances:
            return
        node = deployment.nodes[node_id]
        aba = per_node_abas[node_id][instance]
        node.run_task(lambda: aba.start(input_for(node_id, instance)))

    for node_id in deployment.runtimes:
        node = deployment.nodes[node_id]
        if serial_mode:
            aba = per_node_abas[node_id][0]
            node.run_task(lambda a=aba, n=node_id: a.start(input_for(n, 0)))
        else:
            for instance in range(total_instances):
                aba = per_node_abas[node_id][instance]
                node.run_task(lambda a=aba, n=node_id, i=instance:
                              a.start(input_for(n, i)))

    honest = deployment.honest_ids()
    target = set(range(total_instances))
    finished = deployment.sim.run_until(
        lambda: all(completions[node_id] >= target for node_id in honest),
        timeout=scenario.timeout_s)
    deployment.shutdown()

    # agreement check across honest nodes
    for instance in range(total_instances):
        values = {decisions[node_id].get(instance) for node_id in honest
                  if instance in decisions[node_id]}
        if len(values) > 1:
            raise DeploymentError(
                f"ABA agreement violated for instance {instance}: {values}")

    total_rounds = sum(
        getattr(aba, "rounds_executed", 0)
        for abas in per_node_abas.values() for aba in abas)
    return ComponentRunResult(
        component=f"aba-{kind}", batched=batched, num_nodes=num_nodes,
        parallelism=parallel_instances if not serial_mode else 1,
        completed=finished,
        latency_s=deployment.sim.now if finished else float("nan"),
        serial_instances=serial_instances,
        channel_accesses=deployment.trace.total_channel_accesses,
        bytes_sent=deployment.trace.total_bytes_sent,
        collisions=deployment.trace.total_collisions,
        rounds_executed=total_rounds,
        per_node_channel_accesses=deployment.trace.channel_accesses_per_node(),
        seed=seed)
