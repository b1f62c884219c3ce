"""Asynchronous BFT consensus protocols (the paper's consensus layer, Fig. 9a).

Five protocols are built from the component layer, matching the paper's
testbed:

* ``honeybadger-sc`` -- HoneyBadgerBFT with shared-coin ABA (ABA-SC);
* ``honeybadger-lc`` -- HoneyBadgerBFT with local-coin ABA (ABA-LC);
* ``beat``           -- BEAT0: HoneyBadgerBFT structure with threshold
  coin-flipping ABA (ABA-CP);
* ``dumbo-sc``       -- Dumbo2 (PRBC + CBC_value + CBC_commit + serial ABA)
  with shared-coin ABA;
* ``dumbo-lc``       -- Dumbo2 with local-coin ABA.

Each runs either on the ConsensusBatcher transport or on the unbatched
baseline transport; the protocol logic is identical (Section III-A.2), so
the comparison isolates the effect of batching.  The multi-hop construction
of Section V-B (per-cluster local consensus + leader-level global consensus)
is provided by :mod:`repro.protocols.multihop`.
"""

from repro.protocols.base import (
    ConsensusConfig,
    ConsensusProtocol,
    ProtocolName,
    encode_batch,
    decode_batch,
    PROTOCOL_NAMES,
)
from repro.protocols.acs import CommonSubset
from repro.protocols.honeybadger import HoneyBadger
from repro.protocols.beat import Beat
from repro.protocols.dumbo import Dumbo

__all__ = [
    "ConsensusConfig",
    "ConsensusProtocol",
    "ProtocolName",
    "PROTOCOL_NAMES",
    "encode_batch",
    "decode_batch",
    "CommonSubset",
    "HoneyBadger",
    "Beat",
    "Dumbo",
]
