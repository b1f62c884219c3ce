"""Tests for per-node digital signatures (micro-ecc stand-in)."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend
from repro.crypto.digital_sig import (
    Signature,
    SigningKey,
    VerifyKey,
    _verify_schnorr_cached,
    generate_keypair,
    generate_keyring,
)
from repro.crypto.group import DEFAULT_GROUP


def seed_verify_schnorr(group, public_element, message, signature):
    """The seed verifier: an exact membership test on the commitment and
    three full ``pow()`` calls, with no cache and no fast path."""
    commitment = signature.commitment
    if not group.is_member_reference(commitment):
        return False
    challenge = group.hash_to_scalar(
        b"schnorr",
        group.element_to_bytes(commitment),
        group.element_to_bytes(public_element),
        message,
    )
    lhs = pow(group.g, signature.response % group.q, group.p)
    rhs = commitment * pow(public_element, challenge % group.q, group.p) \
        % group.p
    return lhs == rhs


def sign_for_negated_key(signing_key, message, rng):
    """A signature under the non-member key ``p - pk`` with commitment
    ``p - R``: ``(-R) * (-pk)^c == R * pk^c == g^z`` whenever the challenge
    ``c`` is odd, so it passes the bare verification equation.

    Returns ``(negated key, signature, challenge)``.
    """
    group = signing_key.group
    key = group.p - group.power_of_g(signing_key.secret)
    nonce = group.random_scalar(rng)
    commitment = group.p - group.power_of_g(nonce)
    challenge = group.hash_to_scalar(
        b"schnorr", group.element_to_bytes(commitment),
        group.element_to_bytes(key), message)
    response = (nonce + challenge * signing_key.secret) % group.q
    return key, Signature(commitment=commitment, response=response), challenge


TAMPERS = ("valid", "message", "key", "z+1", "z+q", "R=0", "R+p", "p-R",
           "negated-key")


def tampered_transcript(seed, tamper):
    """``(public element, message, signature)`` for one tamper kind."""
    rng = random.Random(seed)
    group = DEFAULT_GROUP
    signing_key, verify_key = generate_keypair(rng, group=group)
    message = b"frame-%d" % seed
    key = verify_key.public_element
    if tamper == "negated-key":
        key, signature, _ = sign_for_negated_key(signing_key, message, rng)
        return key, message, signature
    signature = signing_key.sign(message, rng)
    commitment, response = signature.commitment, signature.response
    if tamper == "message":
        message += b"!"
    elif tamper == "key":
        key = generate_keypair(rng, group=group)[1].public_element
    elif tamper == "z+1":
        response += 1
    elif tamper == "z+q":
        response += group.q
    elif tamper == "R=0":
        commitment = 0
    elif tamper == "R+p":
        commitment += group.p
    elif tamper == "p-R":
        commitment = group.p - commitment
    return key, message, Signature(commitment=commitment, response=response)


class TestDigitalSignatures:
    def test_sign_verify_roundtrip(self):
        rng = random.Random(1)
        sk, vk = generate_keypair(rng, owner=3)
        signature = sk.sign(b"packet contents", rng)
        assert vk.verify(b"packet contents", signature)

    def test_wrong_message_rejected(self):
        rng = random.Random(2)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"original", rng)
        assert not vk.verify(b"tampered", signature)

    def test_wrong_key_rejected(self):
        rng = random.Random(3)
        sk1, _vk1 = generate_keypair(rng)
        _sk2, vk2 = generate_keypair(rng)
        signature = sk1.sign(b"message", rng)
        assert not vk2.verify(b"message", signature)

    def test_tampered_signature_rejected(self):
        rng = random.Random(4)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"message", rng)
        forged = Signature(commitment=signature.commitment,
                           response=(signature.response + 1))
        assert not vk.verify(b"message", forged)

    def test_non_member_commitment_rejected(self):
        rng = random.Random(5)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"message", rng)
        group = vk.group
        # 0 fails the range check; p - R is in range but a non-residue, so
        # only a membership argument can reject it.
        in_range_non_member = group.p - signature.commitment
        assert 1 <= in_range_non_member < group.p
        assert not group.is_member_reference(in_range_non_member)
        for commitment in (0, in_range_non_member):
            forged = Signature(commitment=commitment,
                               response=signature.response)
            assert not vk.verify(b"message", forged)

    def test_verify_key_derivation_consistent(self):
        rng = random.Random(6)
        sk, vk = generate_keypair(rng, owner=2)
        assert sk.verify_key().public_element == vk.public_element
        assert vk.owner == 2

    def test_signature_size(self):
        rng = random.Random(7)
        sk, _vk = generate_keypair(rng)
        assert sk.sign(b"m", rng).size_bytes() == 64

    def test_keyring_generation(self):
        rng = random.Random(8)
        signing, verifying = generate_keyring(5, rng)
        assert len(signing) == len(verifying) == 5
        for node_id, (sk, vk) in enumerate(zip(signing, verifying)):
            assert sk.owner == node_id
            assert vk.owner == node_id
            sig = sk.sign(b"hello", rng)
            assert vk.verify(b"hello", sig)
            other = verifying[(node_id + 1) % 5]
            assert not other.verify(b"hello", sig)

    def test_signatures_are_randomised(self):
        rng = random.Random(9)
        sk, vk = generate_keypair(rng)
        sig1 = sk.sign(b"same message", rng)
        sig2 = sk.sign(b"same message", rng)
        assert sig1 != sig2
        assert vk.verify(b"same message", sig1)
        assert vk.verify(b"same message", sig2)

    def test_signatures_byte_identical_under_seeded_rng(self):
        # The public-key bytes hashed into each challenge are derived once
        # per key; the signatures must not change because of it.  Recorded
        # when every signature still recomputed g^sk.
        rng = random.Random(2024)
        signing, _verifying = generate_keyring(3, rng)
        transcript = hashlib.sha256()
        for sk in signing:
            for message in (b"", b"packet", b"packet"):
                sig = sk.sign(message, rng)
                transcript.update(sk.group.element_to_bytes(sig.commitment))
                transcript.update(sk.group.scalar_to_bytes(sig.response))
        assert transcript.hexdigest() == (
            "99c8df18db02d1d3a23cecce11652191d38239f950018c854553327dbaa4b889")

    def test_derived_public_bytes_stay_out_of_equality(self):
        rng = random.Random(10)
        sk, vk = generate_keypair(rng)
        fresh = SigningKey(group=sk.group, secret=sk.secret, owner=sk.owner)
        assert vk.verify(b"m", sk.sign(b"m", rng))  # caches sk's key bytes
        assert sk == fresh and hash(sk) == hash(fresh)


class TestSchnorrVerdictIdentity:
    """The verifier's fast path (comb table for the key, range check on the
    commitment) must return the seed verifier's verdict on every input."""

    @given(seed=st.integers(min_value=0, max_value=2**32),
           tamper=st.sampled_from(TAMPERS))
    @settings(max_examples=90, deadline=None)
    def test_matches_seed_verifier(self, seed, tamper):
        group = DEFAULT_GROUP
        key, message, signature = tampered_transcript(seed, tamper)
        expected = seed_verify_schnorr(group, key, message, signature)
        if tamper in ("valid", "z+q"):
            assert expected
        elif tamper != "negated-key":
            assert not expected
        verify_key = VerifyKey(group=group, public_element=key)
        assert verify_key.verify(message, signature) == expected
        # the memoised entry point answers from its cache on a repeat, so
        # both tiers are driven through the uncached body as well
        for mode in ("pure", "auto"):
            with backend.use(mode):
                assert _verify_schnorr_cached.__wrapped__(
                    group.p, group.q, group.g, key, message,
                    signature.commitment, signature.response) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_negated_key_rejected_when_bare_equation_holds(self, seed):
        # Pins why the range-check fast path is gated on key membership:
        # for a non-member key, a non-member commitment can satisfy
        # g^z == R * pk^c, and only the exact membership test on R
        # rejects the pair.
        group = DEFAULT_GROUP
        rng = random.Random(seed)
        signing_key, _ = generate_keypair(rng, group=group)
        while True:
            key, signature, challenge = sign_for_negated_key(
                signing_key, b"frame", rng)
            if challenge % 2:
                break
        assert not group.is_member_reference(key)
        assert group.power_of_g(signature.response) == \
            signature.commitment * pow(key, challenge, group.p) % group.p
        assert not seed_verify_schnorr(group, key, b"frame", signature)
        for mode in ("pure", "auto"):
            with backend.use(mode):
                assert not VerifyKey(group=group, public_element=key).verify(
                    b"frame", signature)
                assert not _verify_schnorr_cached.__wrapped__(
                    group.p, group.q, group.g, key, b"frame",
                    signature.commitment, signature.response)
