"""Flat (t, n) threshold reconstruction: the single-level entry point.

A flat deal is the single-level case of the hierarchical dealing core:
``dhss_deal`` with one level of n participants and threshold t lifts the
secret s to y = s + alpha*m0 below the product of the first t moduli and hands
participant i the residue y mod m_i. Any t shares pin y by congruence solving;
t - 1 leave roughly prod/(m0 * prod_B) candidates per secret.

``ab_reconstruct`` takes the deal's shares and its single-level public bundle,
as the other entry points do, and recovers through the shared recovery core
as level 1. y = 0 is allowed (secret 0 with alpha 0); the range is [0, prod)
throughout.
"""

from typing import Sequence

from .dhss import PublicBundle, Share, _recover
from .errors import NotAuthorized, TooFewShares


def ab_reconstruct(shares: Sequence[Share], public: PublicBundle) -> int:
    """Recover the secret from at least t shares of a single-level bundle.

    All supplied shares enter the congruence system; extras tighten the
    combined modulus and never change a consistent answer. A solution at or
    above prod(m_1..m_t) cannot come from one deal and is rejected
    (best-effort inconsistency detection). A bundle with more than one level
    raises ValueError: its shares are not flat shares.
    """
    hier = public.params.hierarchy
    if hier.m != 1:
        raise ValueError(f"flat reconstruction needs one level, got {hier.m}")
    try:
        return _recover(shares, public, conjunctive=False)
    except NotAuthorized:
        got, t = len({s.participant for s in shares}), hier.thresholds[0]
        raise TooFewShares(f"got {got} distinct shares, need {t}") from None
