"""Flat (t, n) threshold reconstruction over a coprime modulus ladder.

A flat deal is the single-level case of the hierarchical dealing core:
``dhss_deal`` with one level of n participants and threshold t lifts the
secret s to y = s + alpha*m0 below the product of the first t moduli and hands
participant i the residue y mod m_i. Any t shares pin y by congruence solving;
t - 1 leave roughly prod/(m0 * prod_B) candidates per secret.

This module keeps the flat reconstruction, which takes bare (participant,
value) pairs and rejects a solution beyond the dealer's range bound. y = 0 is
allowed (secret 0 with alpha 0); the range is [0, prod) throughout.
"""

from typing import Iterable, Sequence

from .crt import Congruence
from .dhss import _solve_level
from .errors import InconsistentShares, TooFewShares
from .params import CompactSequence


def _collect(shares: Iterable[tuple[int, int]], seq: CompactSequence) -> dict[int, int]:
    by_index: dict[int, int] = {}
    for i, value in shares:
        if not 1 <= i <= seq.n:
            raise ValueError(f"participant {i} not in [1, {seq.n}]")
        if i in by_index and by_index[i] != value:
            raise InconsistentShares(
                f"participant {i} appears with conflicting values"
            )
        by_index[i] = value
    return by_index


def ab_reconstruct(
    shares: Sequence[tuple[int, int]], t: int, seq: CompactSequence
) -> int:
    """Recover the secret from at least t (participant, value) pairs.

    All supplied shares enter the congruence system; extras tighten the
    combined modulus and never change a consistent answer. A solution at or
    above prod(m_1..m_t) cannot come from one deal and is rejected
    (best-effort inconsistency detection).
    """
    by_index = _collect(shares, seq)
    if len(by_index) < t:
        raise TooFewShares(f"got {len(by_index)} distinct shares, need {t}")
    system = [
        Congruence(residue=value, modulus=seq.modulus_of(i))
        for i, value in sorted(by_index.items())
    ]
    return _solve_level(system, 1, t, seq) % seq.m0
