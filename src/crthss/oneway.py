"""Public one-way function family used to mask per-level reconstruction values.

h maps (level, x) to a value modulo the caller's share modulus, so one share
can be lifted to a different residue at every level. It SHA-256-expands a
length-prefixed encoding of (tag, level, x) to at least twice the modulus bit
length and reduces, which keeps the modular bias below 2^-bitlen(modulus).
Reconstruction needs only determinism and public computability; the audit is
exact only because h is one-way. Nothing here is keyed.
"""

import hashlib

from .errors import LevelOutOfRange


def _uint_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def _encode(tag: bytes, level: int, x: int) -> bytes:
    lb = _uint_bytes(level)
    xb = _uint_bytes(x)
    return tag + len(lb).to_bytes(4, "big") + lb + len(xb).to_bytes(4, "big") + xb


def eval_owf(family_tag: bytes, level: int, x: int, modulus: int) -> int:
    """Evaluate h_level(x) into [0, modulus) in the family ``family_tag``
    names, a domain-separation label mixed into every SHA-256 block.

    Deterministic in all arguments. ``x`` at or above the modulus is accepted
    and hashed as-is. Raises LevelOutOfRange for level < 1.
    """
    if level < 1:
        raise LevelOutOfRange(f"level must be >= 1, got {level}")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if x < 0:
        # x is a share's private value, so only the range is named
        raise ValueError("x must be >= 0")
    message = _encode(family_tag, level, x)
    need = (2 * modulus.bit_length() + 7) // 8
    out = b""
    counter = 0
    while len(out) < need:
        out += hashlib.sha256(message + counter.to_bytes(4, "big")).digest()
        counter += 1
    return int.from_bytes(out[:need], "big") % modulus
