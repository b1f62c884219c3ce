"""Multi-hop (clustered) consensus: local consensus + leader-level global consensus.

Section V-B: the network is divided into clusters, each a single-hop network.
A two-phase approach -- akin to blockchain sharding -- runs local consensus in
parallel inside every cluster; once a cluster decides, a (changeable) cluster
leader carries the cluster's decided block into a *global* consensus among the
cluster leaders, which orders all clusters' proposals.  Local consensus keeps
safety and liveness as long as fewer than one third of each cluster is
Byzantine; a faulty leader can be detected and replaced by its cluster because
every cluster member knows the locally decided block.

The networking (per-cluster channels + a routed backbone channel for the
leaders) is assembled by the testbed harness; this module holds the
protocol-level pieces: leader selection, encoding of a cluster's contribution
to the global consensus and the per-cluster outcome record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.topology import Cluster
from repro.protocols.base import block_digest, decode_batch, encode_batch


def select_leader(cluster: Cluster, epoch: int, excluded: frozenset[int] = frozenset()) -> int:
    """Deterministically select a cluster leader for ``epoch``.

    The paper randomly selects a changeable leader; determinism (seeded by the
    epoch) keeps simulation runs reproducible while preserving the property
    that a misbehaving leader can be rotated out (pass its id in ``excluded``).

    ``excluded`` is per-call only -- a caller that rotates leaders across
    epochs must persist the exclusions itself or a rotated-out Byzantine
    leader would be re-eligible next epoch.  Use :class:`LeaderSchedule` for
    that stateful discipline.
    """
    candidates = [node_id for node_id in cluster.node_ids if node_id not in excluded]
    if not candidates:
        raise ValueError(f"cluster {cluster.index} has no eligible leader")
    seed = int.from_bytes(
        hashlib.sha256(f"leader|{cluster.index}|{epoch}".encode()).digest(), "big")
    return candidates[seed % len(candidates)]


class LeaderSchedule:
    """Leader rotation for one cluster with exclusions that persist.

    :func:`select_leader` takes the excluded set per call, which makes it
    easy for a driver to forget rotated-out leaders between epochs (the bug
    this class fixes): once a Byzantine leader is excluded, it must never be
    re-selected for any later epoch.  The schedule accumulates exclusions and
    threads them into every selection.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._excluded: set[int] = set()

    @property
    def excluded(self) -> frozenset[int]:
        """The nodes rotated out so far (persists across epochs)."""
        return frozenset(self._excluded)

    def exclude(self, node_id: int) -> None:
        """Permanently rotate ``node_id`` out of the leader candidacy."""
        if node_id not in self.cluster.node_ids:
            raise ValueError(
                f"node {node_id} is not in cluster {self.cluster.index}")
        self._excluded.add(node_id)

    def leader(self, epoch: int) -> int:
        """The epoch's leader, never one of the excluded nodes."""
        return select_leader(self.cluster, epoch,
                             excluded=frozenset(self._excluded))

    def active_leader(self, epoch: int = 0,
                      crashed: Callable[[int], bool] = lambda _node: False,
                      rotate: bool = True) -> int:
        """The leader actually wired into the global domain for ``epoch``.

        This is the *single owner* of the detect-and-replace discipline: when
        ``rotate`` is set and the selected leader is a known fail-stop node
        (``crashed(leader)`` is true), it is permanently excluded and the
        selection advances to the next epoch's candidate, repeating until an
        eligible leader is found.  Exclusions persist on the schedule, so a
        rotated-out leader is never re-selected by any later epoch of the
        same schedule -- the harness and the streaming runner both consult
        one schedule per cluster (held on the deployment) instead of
        re-deriving leaders ad hoc.

        With ``rotate`` unset the raw ``epoch`` selection is returned even if
        crashed (fault models like quorum-loss deliberately crash the
        epoch-0 leaders to prove the global domain stalls).
        """
        leader = self.leader(epoch)
        if not rotate:
            return leader
        while crashed(leader):
            self.exclude(leader)
            epoch += 1
            leader = self.leader(epoch)
        return leader


def encode_cluster_contribution(cluster_index: int, block: list[bytes]) -> bytes:
    """Serialise a cluster's locally decided block for the global consensus."""
    header = cluster_index.to_bytes(4, "big")
    return header + encode_batch(block)


def decode_cluster_contribution(payload: bytes) -> tuple[int, list[bytes]]:
    """Inverse of :func:`encode_cluster_contribution`."""
    if len(payload) < 4:
        raise ValueError("truncated cluster contribution")
    cluster_index = int.from_bytes(payload[:4], "big")
    return cluster_index, decode_batch(payload[4:])


@dataclass
class ClusterOutcome:
    """Result of one cluster's local consensus."""

    cluster_index: int
    leader: int
    block: list[bytes] = field(default_factory=list)
    decide_time: Optional[float] = None

    @property
    def decided(self) -> bool:
        """True once the cluster's local consensus has decided."""
        return self.decide_time is not None

    @property
    def digest(self) -> str:
        """Canonical digest of the cluster's block."""
        return block_digest(self.block)
