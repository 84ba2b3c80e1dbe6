"""Flat (t, n) threshold reconstruction: the single-level entry point.

A flat deal is the single-level case of the hierarchical dealing core:
``dhss_deal`` with one level of n participants and threshold t lifts the
secret s to y = s + alpha*m0 below the product of the first t moduli and hands
participant i the residue y mod m_i. Any t shares pin y by congruence solving;
t - 1 leave roughly prod/(m0 * prod_B) candidates per secret.

``ab_reconstruct`` takes bare (participant, value) pairs and recovers through
the shared recovery core, as level 1 of a single-level bundle with no
published offsets. y = 0 is allowed (secret 0 with alpha 0); the range is
[0, prod) throughout.
"""

from typing import Sequence

from .dhss import PublicBundle, Share, _recover
from .errors import NotAuthorized, TooFewShares
from .params import CompactSequence, Hierarchy, SchemeParams


def ab_reconstruct(
    shares: Sequence[tuple[int, int]], t: int, seq: CompactSequence
) -> int:
    """Recover the secret from at least t (participant, value) pairs.

    All supplied shares enter the congruence system; extras tighten the
    combined modulus and never change a consistent answer. A solution at or
    above prod(m_1..m_t) cannot come from one deal and is rejected
    (best-effort inconsistency detection).
    """
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((seq.n,), (t,)))
    flat = [Share(i, 1, seq.modulus_of(i), value) for i, value in shares]
    try:
        return _recover(flat, PublicBundle(params=params, w={}), conjunctive=False)
    except NotAuthorized:
        got = len({s.participant for s in flat})
        raise TooFewShares(f"got {got} distinct shares, need {t}") from None
