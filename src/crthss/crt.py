"""Exact integer congruence solving.

All arithmetic is arbitrary precision; nothing here ever touches floats or
fixed-width types. The solver folds the congruences in one at a time
(Garner's incremental form): with x the solution modulo M, the product of
the moduli folded so far, the next congruence x' = r (mod m) gives

    x' = x + M * ((r - x) * M^-1 mod m),    M' = M * m.

The step inverse M^-1 mod m exists exactly when m is coprime to every
modulus already folded in, so the fold checks pairwise coprimality as it
solves; only a failing system is scanned for the offending pair. x is
reduced mod m before the product, so each step multiplies numbers of m's
size rather than x's, which grows to the size of M.
"""

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import EmptySystem, ModuliNotPairwiseCoprime, NotCoprime


@dataclass(frozen=True)
class Congruence:
    """One constraint ``x = residue (mod modulus)``.

    Residues must already be normalized into [0, modulus); negative residues
    are rejected so that callers keep normalization explicit.
    """

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            # the residue may be a share value, so only the range is named
            raise ValueError(f"residue not in [0, {self.modulus})")


@dataclass(frozen=True)
class CrtSolution:
    """The unique solution in [0, combined_modulus) of a congruence system."""

    value: int
    combined_modulus: int


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``, in [0, m).

    Raises NotCoprime when gcd(a, m) != 1; the message names a mod m, since
    ``a`` may be a product too large to print.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprime(
            f"gcd({a % m}, {m}) = {gcd(a, m)}, inverse does not exist"
        ) from None


def crt_solve(system: Sequence[Congruence]) -> CrtSolution:
    """Solve a system of congruences with pairwise-coprime moduli.

    Returns the unique x in [0, M) with x = residue_i (mod modulus_i) for
    every congruence, where M is the product of the moduli.

    Raises EmptySystem for an empty input and ModuliNotPairwiseCoprime when
    two moduli share a factor (the offending pair is named).
    """
    if not system:
        raise EmptySystem("need at least one congruence")
    value, combined = 0, 1
    for i, c in enumerate(system):
        try:
            step = mod_inverse(combined, c.modulus)
        except NotCoprime:
            earlier = next(
                e.modulus for e in system[:i] if gcd(e.modulus, c.modulus) != 1
            )
            raise ModuliNotPairwiseCoprime(
                f"moduli {earlier} and {c.modulus} share factor "
                f"{gcd(earlier, c.modulus)}"
            ) from None
        value += combined * ((c.residue - value % c.modulus) * step % c.modulus)
        combined *= c.modulus
    return CrtSolution(value=value, combined_modulus=combined)
