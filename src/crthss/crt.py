"""Exact integer congruence solving.

All arithmetic is arbitrary precision; nothing here ever touches floats or
fixed-width types. ``crt_solve(residues, moduli)`` takes a system as two
lists of plain integers and returns its solution as one: the x in
[0, prod(moduli)), the product being the caller's to take when it needs it.
The empty system gives 0, its answer mod 1. The solver folds the
congruences in one at a time (Garner's incremental form, Garner, "The
residue number system", 1959): with x the solution modulo M, the product of
the moduli folded so far, the next congruence x' = r (mod m) gives

    x' = x + M * ((r - x) * M^-1 mod m),    M' = M * m.

The step inverse M^-1 mod m exists exactly when m is coprime to every
modulus already folded in, so the fold checks pairwise coprimality as it
solves; only a failing system is scanned for the offending pair.

``GarnerFold`` takes the moduli in blocks of ``_BLOCK``. x and M are reduced
once per block, by the block's product P, and the block's steps work on
those residues, of P's size, instead of on x and M, which grow to the size
of the whole product; the block's digits, gathered as one number below P,
enter x by one product with M. One fold serves every system on a prefix of
its moduli: the block products, the running products and the step inverses
are worked out once, by the first system that reaches them, and
``crt_solve`` is the one-system case.

The product tree of a list of values (Bernstein, "Fast multiplication and
its applications", 2008) serves the many-moduli work around the solve: its
rows multiply neighbouring pairs, so n values of b bits cost products of
balanced sizes instead of a running product that grows to n*b bits at every
step. ``remainders`` walks it down to reduce one value by every modulus
(``tree_remainders`` walks a tree its caller already holds), and parameter
validation checks pairwise coprimality with one gcd per internal node: the
values are pairwise coprime exactly when, at every node, the products below
its two children are coprime.
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


# moduli per block of a GarnerFold: x and M are reduced once per block, by
# its product (blocks of 16 measured slower at 256 bits and 100 moduli)
_BLOCK = 4


class GarnerFold:
    """Garner's fold over ``moduli``, shared by systems on their prefixes.

    The moduli are taken in blocks of ``_BLOCK``. A block is the tuple
    (moduli, before, product, after, radixes, offsets, steps): its moduli;
    the products of the fold's moduli ahead of it, of its own, and of both;
    per modulus m, the product of the block's moduli ahead of m and the
    offset before * radix, reduced by the block's product; and the step
    inverses offset^-1 mod m, as far as a system has needed them. A block is
    built the first time a system reaches it and kept for the fold's later
    systems; the fold lasts as long as its caller keeps it (one
    reconstruct)."""

    __slots__ = ("moduli", "_blocks")

    def __init__(self, moduli: Sequence[int]):
        self.moduli = moduli
        self._blocks: list[tuple] = []

    def _block(self, index: int) -> tuple:
        blocks = self._blocks
        if index == len(blocks):
            moduli = self.moduli[index * _BLOCK:(index + 1) * _BLOCK]
            before = blocks[-1][3] if index else 1
            product, radixes = 1, []
            for m in moduli:
                radixes.append(product)
                product *= m
            if before == 1:  # the first block, whose offsets are its radixes
                offsets = radixes
            elif product:
                base = before % product
                offsets = [base * radix % product for radix in radixes]
            else:  # a zero modulus, which fails its own step
                offsets = [before * radix for radix in radixes]
            blocks.append((moduli, before, product, before * product,
                           radixes, offsets, []))
        return blocks[index]

    def prefix_reaching(self, bound: int, limit: int) -> int:
        """The length of the shortest prefix of the moduli whose product is at
        least ``bound``, or ``limit`` (at most their number) when none of at
        most ``limit`` moduli is. The block products show the block where
        the prefix ends."""
        index = 0
        while self._block(index)[3] < bound:  # the product up to its end
            index += 1
            if index * _BLOCK >= limit:
                return limit
        _, before, _, _, radixes, _, _ = self._block(index)
        for j, radix in enumerate(radixes):
            if index * _BLOCK + j >= limit or before * radix >= bound:
                return index * _BLOCK + j
        return index * _BLOCK + len(radixes)

    def solve(self, residues: Sequence[int]) -> int:
        """The x in [0, M) with x = residues[i] (mod moduli[i]) for every i
        below len(residues), at most the number of moduli, and M the product
        of those moduli. Residues are any integers; the fold reduces them."""
        value = 0
        for index, start in enumerate(range(0, len(residues), _BLOCK)):
            chunk = residues[start:start + _BLOCK]
            moduli, before, product, _, radixes, offsets, steps = self._block(index)
            # step inverses in order, from the first one not yet known
            for j in range(len(steps), len(chunk)):
                m = moduli[j]
                try:
                    steps.append(mod_inverse(offsets[j], m))
                except NotCoprime:
                    earlier = next(e for e in self.moduli[:start + j] if gcd(e, m) != 1)
                    raise ModuliNotPairwiseCoprime(
                        f"moduli {earlier} and {m} share factor {gcd(earlier, m)}"
                    ) from None
            v = value % product if value and product else value
            digits = 0
            for r, m, step, offset, radix in zip(chunk, moduli, steps, offsets, radixes):
                digit = (r - v) * step % m
                v += offset * digit
                digits += radix * digit
            value += before * digits
        return value


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The unique x in [0, prod(moduli)) with x = residues[i] (mod moduli[i])
    for every i, the moduli pairwise coprime. Residues are any integers; the
    fold reduces them. The empty system's answer is 0, its solution mod 1.

    Raises ValueError when the two lists differ in length or a modulus is
    below 2, and ModuliNotPairwiseCoprime when two moduli share a factor
    (the offending pair is named), each at the first modulus where the fold
    meets it.
    """
    value = GarnerFold(moduli).solve(residues[:len(moduli)])
    if len(residues) != len(moduli):
        # zip's own ValueError, once the congruences both lists hold are folded
        for _ in zip(residues, moduli, strict=True):
            pass
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
    """[x % m for m in moduli], walking down their product tree, built only
    as far as ``tree_remainders`` descends it. Moduli below 2 are refused,
    as ``mod_inverse`` refuses them."""
    if moduli:
        _check_modulus(min(moduli))
    return tree_remainders(x, product_tree(moduli, x))


def tree_remainders(x: int, rows: list[list[int]]) -> list[int]:
    """[x % m for m in rows[0]], given ``rows``, the product tree of those
    moduli as ``product_tree`` builds it with any cap or none: x is reduced
    by the nodes of the first row whose first value is above x (or of the
    top row), then every node's remainder by its children, so each step
    divides a number of about twice a node's size instead of x itself.
    Higher rows are left alone: their nodes would leave x unchanged."""
    top = 0
    while top < len(rows) - 1 and rows[top][0] <= x:
        top += 1
    rems = [x % m for m in rows[top]]
    for row in reversed(rows[:top]):
        rems = [rems[k // 2] % m for k, m in enumerate(row)]
    return rems
