"""Tests for per-node digital signatures (micro-ecc stand-in)."""

import hashlib
import random

from repro.crypto.digital_sig import (
    Signature,
    SigningKey,
    generate_keypair,
    generate_keyring,
)


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
        forged = Signature(commitment=0, response=signature.response)
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
