"""Tests for the three ABA variants: ABA-LC, ABA-SC and ABA-CP.

Properties exercised (on the in-memory fabric, so deterministic):

* validity  -- unanimous inputs decide that input;
* agreement -- all honest nodes decide the same bit, also with mixed inputs,
  crashed nodes and shared round coins;
* termination helpers -- laggards decide via DECIDED notices.
"""

import random

import pytest

from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.aba_coinflip import CoinFlipAba
from repro.components.common_coin import CommonCoinManager

from tests.helpers import InMemoryNetwork, make_message


def install_abas(network, kind, instance=0, tag="aba-test", shared_coin=None):
    """Create one ABA instance (and coin manager where needed) per node."""
    decisions = {}
    abas = []
    for node in network.nodes:
        if kind == "lc":
            aba = BrachaAba(node.ctx, instance, tag=tag)
        else:
            if shared_coin is None:
                coin = CommonCoinManager(node.ctx, tag=(tag, "coin", instance),
                                         flavor="tsig" if kind == "sc" else "flip")
                node.router.register_kind_handler("coin", (tag, "coin", instance),
                                                  coin.handle)
            else:
                coin = shared_coin[node.node_id]
            aba_class = CachinAba if kind == "sc" else CoinFlipAba
            aba = aba_class(node.ctx, instance, coin=coin, tag=tag)
        aba.on_output = (
            lambda nid: lambda _inst, decision: decisions.setdefault(nid, decision)
        )(node.node_id)
        node.router.register(aba)
        abas.append(aba)
    return abas, decisions


@pytest.mark.parametrize("kind", ["lc", "sc", "cp"])
class TestAbaCommonProperties:
    def test_unanimous_one_decides_one(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(1)
        assert decisions == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unanimous_zero_decides_zero(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(0)
        assert decisions == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_mixed_inputs_reach_agreement(self, kind):
        network = InMemoryNetwork(4, seed=11)
        abas, decisions = install_abas(network, kind)
        inputs = [0, 1, 0, 1]
        for aba, value in zip(abas, inputs):
            aba.start(value)
        assert set(decisions) == {0, 1, 2, 3}
        assert len(set(decisions.values())) == 1
        assert list(decisions.values())[0] in (0, 1)

    def test_agreement_with_crashed_node(self, kind):
        network = InMemoryNetwork(4, seed=5)
        abas, decisions = install_abas(network, kind)
        network.drop(3)
        for aba in abas[:3]:
            aba.start(1)
        honest_ids = {0, 1, 2}
        assert honest_ids.issubset(decisions)
        assert len({decisions[nid] for nid in honest_ids}) == 1

    def test_invalid_input_rejected(self, kind):
        network = InMemoryNetwork(4)
        abas, _decisions = install_abas(network, kind)
        with pytest.raises(ValueError):
            abas[0].start(2)

    def test_double_start_is_idempotent(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(1)
        before = dict(decisions)
        abas[0].start(0)  # ignored: already started
        assert decisions == before


class TestSharedCoinAcrossInstances:
    def test_parallel_instances_share_round_coins(self):
        # The wireless design lets all parallel ABA instances of an epoch use
        # the same round coin (paper challenge III).
        network = InMemoryNetwork(4, seed=3)
        coins = []
        for node in network.nodes:
            coin = CommonCoinManager(node.ctx, tag=("epoch", "coin"), flavor="tsig")
            node.router.register_kind_handler("coin", ("epoch", "coin"), coin.handle)
            coins.append(coin)
        all_decisions = []
        for instance in range(3):
            abas, decisions = install_abas(network, "sc", instance=instance,
                                           tag="epoch", shared_coin=coins)
            for node_id, aba in enumerate(abas):
                aba.start((node_id + instance) % 2)
            all_decisions.append(decisions)
        for decisions in all_decisions:
            assert len(set(decisions.values())) == 1

    def test_coin_share_traffic_is_per_round_not_per_instance(self):
        network = InMemoryNetwork(4, seed=3)
        coins = []
        for node in network.nodes:
            coin = CommonCoinManager(node.ctx, tag=("epoch2", "coin"), flavor="tsig")
            node.router.register_kind_handler("coin", ("epoch2", "coin"), coin.handle)
            coins.append(coin)
        for instance in range(3):
            abas, _ = install_abas(network, "sc", instance=instance,
                                   tag="epoch2", shared_coin=coins)
            for aba in abas:
                aba.start(1)
        # Unanimous inputs decide without the coin in round 0 of the standard
        # protocol only if values match the coin; at most a handful of rounds
        # run, and the number of coin shares node 0 sent equals the number of
        # distinct rounds requested, not 3x (one per instance).
        share_messages = [m for m in network.nodes[0].transport.sent
                          if m.kind == "coin"]
        rounds = {m.round for m in share_messages}
        assert len(share_messages) == len(rounds)


class TestBrachaAbaInternals:
    def test_rounds_counted(self):
        network = InMemoryNetwork(4, seed=7)
        abas, decisions = install_abas(network, "lc")
        for aba in abas:
            aba.start(1)
        # at least one node finishes a full round; laggards may decide via the
        # DECIDED-notice shortcut without completing a round themselves
        assert any(aba.rounds_executed >= 1 for aba in abas)
        assert decisions[0] == 1

    def test_decided_notice_lets_laggard_decide(self):
        from tests.helpers import make_message

        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, "lc")
        target = abas[0]
        for sender in (1, 2):
            target.handle(make_message("aba_lc", 0, "decided", sender=sender,
                                       payload={"value": 1}, tag="aba-test"))
        assert decisions.get(0) == 1


class TestCachinAbaInternals:
    def test_bval_relay_at_f_plus_1(self):
        from tests.helpers import make_message

        network = InMemoryNetwork(4)
        abas, _decisions = install_abas(network, "sc")
        target = abas[0]
        target.start(0)
        network.nodes[0].transport.sent.clear()
        # two BVAL(1) messages (f+1 = 2) force node 0 to relay BVAL(1)
        for sender in (1, 2):
            target.handle(make_message("aba_sc", 0, "bval", sender=sender,
                                       payload={"value": 1}, tag="aba-test"))
        relayed = [m for m in network.nodes[0].transport.sent
                   if m.phase == "bval" and m.payload["value"] == 1]
        assert len(relayed) == 1

    def test_coin_flavor_attribute(self):
        network = InMemoryNetwork(4)
        abas_sc, _ = install_abas(network, "sc", instance=1)
        abas_cp, _ = install_abas(network, "cp", instance=2)
        assert abas_sc[0].kind == "aba_sc"
        assert abas_cp[0].kind == "aba_cp"
        assert abas_cp[0].coin_flavor == "flip"


class TestBrachaAbaEdgeCases:
    """Hand-driven Bracha edge cases at N = 8 (f = 2: quorum 5, f + 1 = 3,
    N - f = 6).  Only node 0 runs an ABA; the crafted readies below make its
    mini-RBCs accept exactly the votes each test names."""

    TAG = "aba-edge"

    def setup_method(self):
        self.build(deliver_to_self=True)

    def build(self, deliver_to_self):
        self.network = InMemoryNetwork(8, seed=9,
                                       deliver_to_self=deliver_to_self)
        # readies from 1-3 reach f + 1, so node 0 sends its own; with 4's
        # that is the quorum of 5.  A node that never hears itself needs 5's.
        self.ready_senders = (1, 2, 3, 4) if deliver_to_self else (1, 2, 3, 4, 5)
        self.decisions = {}
        self.aba = BrachaAba(self.network.nodes[0].ctx, 0, tag=self.TAG,
                             on_output=lambda _i, d: self.decisions.setdefault(0, d))
        self.network.nodes[0].router.register(self.aba)
        self.sent = self.network.nodes[0].transport.sent

    def inject(self, phase, sender, payload, round_number=0):
        self.network.inject(0, make_message(
            "aba_lc", 0, phase, sender=sender, payload=payload, tag=self.TAG,
            round_number=round_number))

    def accept(self, phase, voter, value, round_number=0):
        for sender in self.ready_senders:
            self.inject(f"p{phase}_ready", sender,
                        {"voter": voter, "value": value}, round_number)

    def sent_votes(self, phase, kind="initial", round_number=0):
        return [m.payload["value"] for m in self.sent
                if m.phase == f"p{phase}_{kind}" and m.round == round_number]

    def run_undetermined_round(self):
        """Round 0 with a 3-3 phase 2: phase 3 is all-undetermined."""
        self.aba.start(1)
        for voter in range(1, 7):
            self.accept(1, voter, 1)
        for voter, value in zip(range(1, 7), (0, 0, 0, 1, 1, 1)):
            self.accept(2, voter, value)
        for voter in range(1, 7):
            self.accept(3, voter, "?")

    def test_phase_one_tie_breaks_by_mini_creation_order(self):
        self.aba.start(1)  # creates node 0's own phase-1 mini first, value 1
        for voter in (1, 2, 3):
            self.accept(1, voter, 0)  # value 0 is accepted first ...
        for voter in (4, 5):
            self.accept(1, voter, 1)
        assert self.sent_votes(2) == []  # five accepted votes: not N - f yet
        self.accept(1, 0, 1)  # ... but the 3-3 tie goes to the first mini
        assert self.sent_votes(2) == [1]

    def test_undetermined_phase_two_flips_local_coin(self):
        self.run_undetermined_round()
        assert self.sent_votes(2) == [1]
        assert self.sent_votes(3) == ["?"]
        assert self.aba.rounds_executed == 1
        assert self.aba.round == 1
        assert self.decisions == {}
        # the round-1 estimate is the node's first local-coin flip
        assert self.aba.estimate == random_coin()
        assert self.sent_votes(1, round_number=1) == [random_coin()]

    def test_votes_before_round_entry_are_rechecked(self):
        # Without local delivery, node 0's own round-1 vote cannot trigger
        # the phase-1 check: only the recheck on round entry can.
        self.build(deliver_to_self=False)
        for voter in range(1, 7):
            self.accept(1, voter, 1 - random_coin(), round_number=1)
        assert self.sent_votes(2, round_number=1) == []
        self.run_undetermined_round()
        assert self.aba.round == 1
        # phase 1 of round 1 completed on entry, from the early votes alone
        assert self.sent_votes(2, round_number=1) == [1 - random_coin()]

    def test_duplicate_echoes_and_readies_are_not_double_counted(self):
        self.aba.start(0)
        for _ in range(5):
            self.inject("p1_echo", 1, {"voter": 1, "value": 0})
            self.inject("p1_ready", 2, {"voter": 2, "value": 0})
        assert self.sent_votes(1, "ready") == []
        for sender in (2, 3, 4, 5):
            self.inject("p1_echo", sender, {"voter": 1, "value": 0})
        assert self.sent_votes(1, "ready") == [0]  # five distinct echoers
        state = self.aba._rounds[0]
        assert not state.mini[(1, 2)].accepted
        for sender in (3, 4):
            self.inject("p1_ready", sender, {"voter": 2, "value": 0})
        assert self.sent_votes(1, "ready") == [0, 0]  # f + 1 distinct readies
        assert not state.mini[(1, 2)].accepted  # 4 distinct: 2, 3, 4, self
        self.inject("p1_ready", 4, {"voter": 2, "value": 0})
        assert not state.mini[(1, 2)].accepted
        self.inject("p1_ready", 5, {"voter": 2, "value": 0})
        assert state.mini[(1, 2)].accepted

    def test_laggard_decides_from_decided_notices(self):
        for sender in (1, 2, 2, 1):
            self.inject("decided", sender, {"value": 0})
        assert self.decisions == {}  # two distinct notices, f + 1 = 3
        self.inject("decided", 3, {"value": 0})
        assert self.decisions == {0: 0}
        assert [m.payload["value"] for m in self.sent
                if m.phase == "decided"] == [0]
        assert not self.aba._halted  # 4 notices including its own, quorum 5
        self.inject("decided", 4, {"value": 0})
        assert self.aba._halted


def random_coin():
    """Node 0's first local-coin flip in TestBrachaAbaEdgeCases."""
    return random.Random(9 * 77 + 0).randrange(2)
