"""Exact integer congruence solving.

All arithmetic is arbitrary precision; nothing here ever touches floats or
fixed-width types. ``crt_solve(residues, moduli)`` takes a system as two
lists of plain integers and returns its solution as one: the x in
[0, prod(moduli)), the product being the caller's to take when it needs it.
The empty system gives 0, its answer mod 1. The solver folds the
congruences in one at a time (Garner's incremental form): with x the
solution modulo M, the product of the moduli folded so far, the next
congruence x' = r (mod m) gives

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

from math import gcd
from typing import Optional, Sequence

from .errors import ModuliNotPairwiseCoprime, NotCoprime


def _check_modulus(m: int) -> None:
    """Every modulus here is at least 2."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")


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


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The unique x in [0, prod(moduli)) with x = residues[i] (mod moduli[i])
    for every i, the moduli pairwise coprime. Residues are any integers; the
    fold reduces them. The empty system's answer is 0, its solution mod 1.

    Raises ValueError when the two lists differ in length or a modulus is
    below 2, and ModuliNotPairwiseCoprime when two moduli share a factor
    (the offending pair is named).
    """
    value, combined = 0, 1
    for i, (r, m) in enumerate(zip(residues, moduli, strict=True)):
        try:
            step = mod_inverse(combined, m)
        except NotCoprime:
            earlier = next(e for e in moduli[:i] if gcd(e, m) != 1)
            raise ModuliNotPairwiseCoprime(
                f"moduli {earlier} and {m} share factor {gcd(earlier, m)}"
            ) from None
        value += combined * ((r - value % m) * step % m)
        combined *= m
    return value


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
    leave it unchanged. Moduli below 2 are refused, as ``mod_inverse``
    refuses them."""
    if moduli:
        _check_modulus(min(moduli))
    rows = product_tree(moduli, x)
    rems = [x % m for m in rows[-1]]
    for row in reversed(rows[:-1]):
        rems = [rems[k // 2] % m for k, m in enumerate(row)]
    return rems
