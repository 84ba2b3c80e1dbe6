"""Public one-way functions used to mask per-level reconstruction values.

A family maps (level, x) to a value modulo the caller's share modulus, so one
share can be lifted to a different residue at every level. Two kinds exist:

* ``hash_based`` — digest-expand a length-prefixed encoding of (tag, level, x)
  and reduce; producing at least twice the modulus bit length before reduction
  keeps the modular bias below 2^-bitlen(modulus).
* ``test_affine`` — (3*x + level) mod modulus, for in-memory, hand-checked
  vectors. Not one-way: its offsets link the level lifts, which the audit
  does not model, so no parameter file or bundle carries it.

Reconstruction needs only determinism and public computability; the audit is
exact only for a one-way family. Nothing here is keyed.
"""

import hashlib
from dataclasses import dataclass

from .errors import LevelOutOfRange

KINDS = ("hash_based", "test_affine")


@dataclass(frozen=True)
class OwfFamily:
    """Identifier of a one-way-function family.

    family_tag is a domain-separation label mixed into every digest;
    digest_name picks the hash algorithm and only matters for hash_based.
    """

    kind: str = "hash_based"
    family_tag: bytes = b""
    digest_name: str = "sha256"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown OWF kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "hash_based" and _digest_size(self.digest_name) < 1:
            raise ValueError(
                f"digest {self.digest_name!r} is not a fixed-size hashlib digest"
            )


def _digest_size(name) -> int:
    """Output size of the hashlib digest called name; 0 when hashlib cannot
    build it, and for the variable-length shake_* digests."""
    try:
        return hashlib.new(name).digest_size
    except (TypeError, ValueError):
        return 0


def _uint_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def _encode(tag: bytes, level: int, x: int) -> bytes:
    lb = _uint_bytes(level)
    xb = _uint_bytes(x)
    return tag + len(lb).to_bytes(4, "big") + lb + len(xb).to_bytes(4, "big") + xb


def eval_owf(family: OwfFamily, level: int, x: int, modulus: int) -> int:
    """Evaluate h_level(x) into [0, modulus).

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
    if family.kind == "test_affine":
        return (3 * x + level) % modulus
    message = _encode(family.family_tag, level, x)
    need = (2 * modulus.bit_length() + 7) // 8
    out = b""
    counter = 0
    while len(out) < need:
        h = hashlib.new(family.digest_name)
        h.update(message + counter.to_bytes(4, "big"))
        out += h.digest()
        counter += 1
    return int.from_bytes(out[:need], "big") % modulus
