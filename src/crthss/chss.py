"""Conjunctive hierarchical dealing and reconstruction.

Authorization requires EVERY level's cumulative threshold to be met. The
secret is split additively: delta_1..delta_{m-1} are uniform in Z_m0 and
delta_m closes the sum to the secret mod m0. Each delta_l is then lifted and
shared by the disjunctive dealing core, exactly like a disjunctive level:
random holdings plus published offsets below the top level, raw y_m residues
at the top. Only the residues differ: the disjunctive scheme lifts the secret
itself at every level. Reconstruction is the shared recovery core, solving
and summing every level; this module is its conjunctive entry point.

Without a seed every draw, the deltas included, comes from the system CSPRNG.
Draw order per explicit seed: delta_1..delta_{m-1}, then alpha_1..alpha_m by
level, then c_i by participant index, so seeded deals replay byte-for-byte.
"""

from typing import Optional, Sequence

from .dhss import (
    DealResult,
    PublicBundle,
    Share,
    _check_dealable,
    _deal,
    _dealer_rng,
    _recover,
)
from .params import SchemeParams


def chss_is_authorized(
    members: frozenset | set | Sequence[int], params: SchemeParams
) -> bool:
    """True iff every level's cumulative threshold is met."""
    return not params.hierarchy.failing_levels(members)


def chss_deal(
    secret: int,
    params: SchemeParams,
    rng_seed: Optional[int] = None,
    keep_dealer_secrets: bool = False,
) -> DealResult:
    """Deal ``secret`` conjunctively. Draws from the system CSPRNG when
    ``rng_seed`` is None; deterministic for a given seed.

    With a single level the random prefix is empty, delta_1 equals the secret,
    and the deal coincides with the flat scheme under the same seed.
    """
    _check_dealable(secret, params)
    m0 = params.sequence.m0
    rng = _dealer_rng(rng_seed)
    deltas = [rng.randrange(m0) for _ in range(params.hierarchy.m - 1)]
    deltas.append((secret - sum(deltas)) % m0)
    shares, public, lifts = _deal(deltas, params, rng)
    secrets_out = {"delta": tuple(deltas), **lifts} if keep_dealer_secrets else None
    return DealResult(shares, public, secrets_out)


def chss_reconstruct(shares: Sequence[Share], public: PublicBundle) -> int:
    """Recover the secret as the sum of every level's lift mod m0, each level
    solved from the shares inside its first N_l participants."""
    return _recover(shares, public, conjunctive=True)
