"""Shared fast-path primitives for the pure-Python crypto layer.

Every experiment funnels its cryptography through a handful of modular
exponentiations over a 256-bit safe-prime group, so this module collects the
classic software optimisations that real BFT implementations (HoneyBadgerBFT,
BEAT) rely on, implemented so that the *outputs* are bit-identical to the
naive code they replace:

* :class:`FixedBaseTable` -- fixed-base windowed precomputation: one table of
  ``base^(j * 2^(8*i))`` built per (base, modulus) turns a 256-bit
  exponentiation into ~32 table lookups and modular multiplications, which in
  CPython beats ``pow(base, e, p)`` by roughly 6x.
* :class:`CombTable` -- an eight-tooth Lim-Lee comb: a 256-entry table
  (~18 KB) that is cheap enough to keep one per long-lived public key and
  still beats ``pow(key, e, p)`` by roughly 4x.
* :func:`jacobi` -- a binary Jacobi symbol.  For a safe prime ``P = 2q + 1``
  the order-``q`` subgroup is exactly the set of quadratic residues, so
  subgroup membership reduces to ``jacobi(a, P) == 1`` -- ~5x cheaper than
  the defining test ``a^q == 1 mod P`` and exactly equivalent.
* :func:`multi_exp` -- interleaved windowed multi-exponentiation
  ``prod base_i^{e_i} mod p`` sharing one squaring chain across all terms.
* :func:`batch_verify_dlog_equality` -- small-exponent random-linear-
  combination batching (Bellare-Garay-Rabin style) of Chaum-Pedersen
  discrete-log-equality proofs that all share the same secondary base, so a
  combiner checks ``t+1`` shares with two fixed-base exponentiations and one
  multi-exponentiation instead of ``4(t+1)`` full ``pow()`` calls.

The randomizers for batching are derived deterministically from the proof
transcripts (Fiat-Shamir style), which keeps every simulation run
reproducible: the same shares always batch-verify through the identical
sequence of group operations.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

# Soundness parameter for small-exponent batch verification: a batch that
# contains an invalid proof passes with probability at most 2^-_RANDOMIZER_BITS.
_RANDOMIZER_BITS = 64


# --------------------------------------------------------------------- tables
class FixedBaseTable:
    """Fixed-base windowed exponentiation table for one ``(base, modulus)``.

    The exponent is split into ``ceil(bits / 8)`` 8-bit digits; row ``i``
    stores ``base^(j * 2^(8*i))`` for every digit value ``j``.  An
    exponentiation is then one multiplication per non-zero digit.  A table
    costs ~``32 * 255`` multiplications to build for a 256-bit order (a few
    milliseconds, amortised over every later call) and ~32 multiplications
    per exponentiation.  At ~550 KB it is kept once per group, for ``g``;
    per-key tables use the far smaller :class:`CombTable`.
    """

    __slots__ = ("base", "modulus", "order", "_rows")

    def __init__(self, base: int, modulus: int, order: int) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        num_windows = (max(order.bit_length(), 1) + 7) // 8
        rows = []
        row_base = self.base
        for _ in range(num_windows):
            row = [1] * 256
            acc = 1
            for digit in range(1, 256):
                acc = (acc * row_base) % modulus
                row[digit] = acc
            rows.append(row)
            # acc == row_base^255, so one more multiply advances the row.
            row_base = acc * row_base % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (exponent reduced mod order)."""
        exponent %= self.order
        acc = 1
        modulus = self.modulus
        for row in self._rows:
            digit = exponent & 0xFF
            if digit:
                acc = acc * row[digit] % modulus
            exponent >>= 8
            if not exponent:
                break
        return acc


# Byte ``b`` with its bit ``j`` moved to bit ``8 * j``: one lookup spreads an
# exponent byte across eight comb columns (see ``CombTable.pow``).
_SPREAD_BITS = tuple(sum(((byte >> bit) & 1) << (8 * bit) for bit in range(8))
                     for byte in range(256))


class CombTable:
    """Eight-tooth Lim-Lee comb for one long-lived ``(base, modulus)``.

    The reduced exponent is read as an 8-row bit matrix with ``d`` columns:
    row ``i`` holds exponent bits ``i*d .. i*d + d - 1``.  Entry ``j`` of the
    256-entry table is the product of ``base^(2^(i*d))`` over the set bits
    ``i`` of ``j``, so the eight bits of one column name one entry and an
    exponentiation is a square-and-multiply over the columns: ``d``
    squarings and at most ``d`` multiplications (32 + 32 for a 256-bit
    order).  ``d`` is rounded up to a multiple of 8 so that all column
    indices come out of one ``int.to_bytes``.

    Against :class:`FixedBaseTable` the comb spends twice the
    multiplications per call but keeps 256 entries instead of
    ``ceil(bits / w) * 2^w`` (~18 KB against ~180 KB at ``w = 6`` and
    ~550 KB at ``w = 8``), and builds in ~0.3 ms: sized for one table per
    public key rather than one per group.
    """

    TEETH = 8

    __slots__ = ("base", "modulus", "order", "_columns", "_shifts", "_table")

    def __init__(self, base: int, modulus: int, order: int) -> None:
        teeth = self.TEETH
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        row_bits = -(-max(order.bit_length(), 1) // teeth)
        columns = -(-row_bits // 8) * 8
        self._columns = columns
        # Exponent byte k sits in row k // row_bytes at columns
        # 8 * (k % row_bytes) .. + 7; its spread lands there shifted by the
        # row number, which becomes that row's bit in each column index.
        row_bytes = columns // 8
        self._shifts = tuple(k // row_bytes + 64 * (k % row_bytes)
                             for k in range(teeth * row_bytes))
        table = [1] * (1 << teeth)
        tooth_base = self.base
        for tooth in range(teeth):
            low = 1 << tooth
            for index in range(low):
                table[low + index] = table[index] * tooth_base % modulus
            for _ in range(columns):
                tooth_base = tooth_base * tooth_base % modulus
        self._table = table

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (exponent reduced mod order)."""
        exponent %= self.order
        spread = _SPREAD_BITS
        indices = 0
        for byte, shift in zip(exponent.to_bytes(len(self._shifts), "little"),
                               self._shifts):
            if byte:
                indices |= spread[byte] << shift
        modulus = self.modulus
        table = self._table
        acc = 1
        for index in indices.to_bytes(self._columns, "big"):
            acc = acc * acc % modulus
            if index:
                acc = acc * table[index] % modulus
        return acc


# ------------------------------------------------------------------ membership
def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a | n)`` for odd ``n > 0`` (binary algorithm).

    Trailing zeros are stripped in bulk (``a & -a`` isolates the lowest set
    bit) rather than one shift per loop iteration, which roughly halves the
    Python-level iteration count on 256-bit inputs.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        if twos:
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# -------------------------------------------------------------------- multi-exp
def multi_exp(pairs: Sequence[tuple[int, int]], modulus: int,
              window: int = 4) -> int:
    """Compute ``prod base^exponent mod modulus`` with shared squarings.

    ``pairs`` is a sequence of ``(base, exponent)`` with non-negative
    exponents.  The interleaved windowed method performs one squaring chain
    over the longest exponent and one table multiplication per non-zero
    digit of each exponent, which beats independent ``pow()`` calls once the
    product has a handful of terms.
    """
    if not pairs:
        return 1 % modulus
    mask = (1 << window) - 1
    # factors_at[p] collects the table entries to multiply in at digit
    # position p, so the main loop touches only non-zero digits instead of
    # probing every (term, position) pair.
    factors_at: list[list[int]] = []
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("multi_exp requires non-negative exponents")
        base %= modulus
        # Per-term table of base^0 .. base^(2^w - 1).
        table = [1] * (1 << window)
        acc = 1
        for digit in range(1, 1 << window):
            acc = (acc * base) % modulus
            table[digit] = acc
        position = 0
        while exponent:
            digit = exponent & mask
            if digit:
                while len(factors_at) <= position:
                    factors_at.append([])
                factors_at[position].append(table[digit])
            exponent >>= window
            position += 1
    result = 1
    for factors in reversed(factors_at):
        if result != 1:
            for _ in range(window):
                result = result * result % modulus
        for factor in factors:
            result = result * factor % modulus
    return result


# ------------------------------------------------------------- batch verification
def batch_randomizer_seed(seed_parts: Sequence[bytes]) -> bytes:
    """The Fiat-Shamir seed digest over a batch's proof transcripts.

    Exposed separately from :func:`expand_batch_randomizers` so that a
    :class:`repro.crypto.group.BatchVerifySession` can use the digest both
    as its memo key and as the randomizer seed without hashing twice.
    """
    return hashlib.sha512(b"\x00".join(seed_parts)).digest()


def expand_batch_randomizers(seed: bytes, count: int,
                             bits: int = _RANDOMIZER_BITS) -> list[int]:
    """Expand a seed digest into ``count`` non-zero batching randomizers."""
    randomizers: list[int] = []
    counter = 0
    while len(randomizers) < count:
        digest = hashlib.sha512(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
        for offset in range(0, len(digest) - bits // 8 + 1, bits // 8):
            value = int.from_bytes(digest[offset:offset + bits // 8], "big")
            randomizers.append(value | 1)  # force non-zero (and odd)
            if len(randomizers) == count:
                break
    return randomizers


def derive_batch_randomizers(seed_parts: Sequence[bytes], count: int,
                             bits: int = _RANDOMIZER_BITS) -> list[int]:
    """Deterministic non-zero randomizers for small-exponent batching.

    Derived Fiat-Shamir style from the proof transcripts so batch
    verification stays reproducible run-to-run (no ambient RNG draws).
    Equivalent to expanding :func:`batch_randomizer_seed` bit-for-bit.
    """
    return expand_batch_randomizers(batch_randomizer_seed(seed_parts),
                                    count, bits)
