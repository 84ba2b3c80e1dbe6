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

The product tree of a list of values (Bernstein, "Fast multiplication and
its applications", 2008) serves the many-moduli work around the solve: its
rows multiply neighbouring pairs, so n values of b bits cost products of
balanced sizes instead of a running product that grows to n*b bits at every
step. ``remainders`` walks it down to reduce one value by every modulus, and
parameter validation checks pairwise coprimality with one gcd per internal
node: the values are pairwise coprime exactly when, at every node, the
products below its two children are coprime.
"""

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .errors import EmptySystem, ModuliNotPairwiseCoprime, NotCoprime


def _check_modulus(m: int) -> None:
    """Every modulus here is at least 2."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")


@dataclass(frozen=True)
class Congruence:
    """One constraint ``x = residue (mod modulus)``.

    Residues must already be normalized into [0, modulus); negative residues
    are rejected so that callers keep normalization explicit.
    """

    residue: int
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)
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
    _check_modulus(m)
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


def product_tree(values: Sequence[int], cap: Optional[int] = None) -> list[list[int]]:
    """Rows of the product tree of ``values``, leaves first: each row holds
    the products of neighbouring pairs of the row below, an odd last value
    carried up unchanged, so value k of row r is the product of the leaves
    from k*2^r below (k+1)*2^r that exist. The rows stop below the root, at
    the first row of at most two values or, when ``cap`` is given, of a
    first value above it: no caller needs a product that large. An empty
    input gives [[]]."""
    rows = [list(values)]
    while len(rows[-1]) > 2 and (cap is None or rows[-1][0] <= cap):
        row = rows[-1]
        up = [a * b for a, b in zip(row[::2], row[1::2])]
        if len(row) % 2:
            up.append(row[-1])
        rows.append(up)
    return rows


def remainders(x: int, moduli: Sequence[int]) -> list[int]:
    """[x % m for m in moduli], walking down their product tree:
    x is reduced by the nodes of the top row, then every node's remainder by
    its children, so each step divides a number of about twice a node's
    size instead of x itself. The tree stops at nodes above x, which would
    leave it unchanged. Moduli below 2 are refused, as a Congruence refuses
    them."""
    if moduli:
        _check_modulus(min(moduli))
    rows = product_tree(moduli, x)
    rems = [x % m for m in rows[-1]]
    for row in reversed(rows[:-1]):
        rems = [rems[k // 2] % m for k, m in enumerate(row)]
    return rems
