"""Disjunctive hierarchical dealing and reconstruction.

A set is authorized when SOME level l has at least t_l of its members inside
the first N_l participants. Every level gets its own lift y_l = s + alpha_l*m0
below prod(m_1..m_{t_l}); participants outside the top level hold a random
value c_i and the published offset w[i, l] = (y_l - h_l(c_i)) mod m_i converts
it into a level-l residue. Top-level participants hold y_m mod m_i directly
and have no published offsets.

Without a seed every dealer draw comes from the operating system's CSPRNG.
An explicit seed makes a deal reproducible: the dealer draws alpha_1..alpha_m
(by level), then c_1..c_{N_{m-1}} (by participant index), from a Mersenne
Twister seeded with it.

The dealing core lifts and shares any per-level residues: the disjunctive
scheme passes the secret at every level, the conjunctive scheme passes the
additive parts of it, and a single-level hierarchy is the flat Asmuth-Bloom
scheme. Recovery mirrors it: every reconstruct entry point (``dhss``, ``chss``
and flat ``ab``) takes (shares, public), passes ``dedupe_shares``, the one
share gate, once, and solves its levels below their dealer bounds in one core.
"""

import random
import secrets
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .crt import Congruence, crt_solve
from .errors import (
    InconsistentShares,
    InvalidParams,
    MissingPublicValue,
    NotAuthorized,
    SecretOutOfRange,
)
from .oneway import eval_owf
from .params import SchemeParams, validate_dealable


@dataclass(frozen=True)
class Share:
    """One participant's private value together with its public coordinates."""

    participant: int
    level: int
    modulus: int
    value: int


@dataclass(frozen=True)
class PublicBundle:
    """Published masked values, keyed by (participant, level), plus params.

    Key set: every participant below the top level has one entry per level
    from its own up to the top. Treated as immutable after dealing.
    """

    params: SchemeParams
    w: Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class DealResult:
    shares: tuple[Share, ...]
    public: PublicBundle
    dealer_secrets: Optional[dict] = None


def _check_dealable(secret: int, params: SchemeParams) -> None:
    report = validate_dealable(params)
    if not report.ok:
        raise InvalidParams(str(report))
    if not 0 <= secret < params.sequence.m0:
        raise SecretOutOfRange(
            f"secret {secret} not in [0, {params.sequence.m0})"
        )


def _dealer_rng(rng_seed: Optional[int]) -> random.Random:
    """The seeded Mersenne Twister for an explicit seed (reproducible deals);
    otherwise the system CSPRNG, so no seed exists that decides the deal."""
    if rng_seed is None:
        return secrets.SystemRandom()
    return random.Random(rng_seed)


def _deal(
    residues: Sequence[int], params: SchemeParams, rng: random.Random
) -> tuple[tuple[Share, ...], PublicBundle, dict]:
    """Lift residues[l-1] to y_l below prod(m_1..m_{t_l}) and share every
    level. Draws alpha_1..alpha_m by level, then c_1..c_{N_{m-1}} by
    participant index. Returns the shares, the public bundle and the
    dealer-side lifts {"alpha", "y"}."""
    seq, hier = params.sequence, params.hierarchy
    alphas, ys = [], []
    for residue, t in zip(residues, hier.thresholds):
        bound = seq.prefix_product(t)
        alphas.append(rng.randrange((bound - 1 - residue) // seq.m0 + 1))
        ys.append(residue + alphas[-1] * seq.m0)
    n_masked = hier.n_masked
    shares, w = [], {}
    for i in range(1, hier.n + 1):
        m_i, level = seq.modulus_of(i), hier.level_of(i)
        value = rng.randrange(m_i) if i <= n_masked else ys[-1] % m_i
        shares.append(Share(participant=i, level=level, modulus=m_i, value=value))
        if i <= n_masked:
            for lvl in range(level, hier.m + 1):
                mask = eval_owf(params.owf, lvl, value, m_i)
                w[(i, lvl)] = (ys[lvl - 1] - mask) % m_i
    lifts = {"alpha": tuple(alphas), "y": tuple(ys)}
    return tuple(shares), PublicBundle(params=params, w=w), lifts


def dhss_deal(
    secret: int,
    params: SchemeParams,
    rng_seed: Optional[int] = None,
    keep_dealer_secrets: bool = False,
) -> DealResult:
    """Deal ``secret`` disjunctively: every level lifts the secret itself.
    Draws from the system CSPRNG when ``rng_seed`` is None; deterministic for
    a given seed. With a single level this is the flat Asmuth-Bloom deal.

    dealer_secrets (y_l and alpha_l per level) is populated only when
    keep_dealer_secrets is set; it must never leave a test or audit context.
    """
    _check_dealable(secret, params)
    shares, public, lifts = _deal(
        [secret] * params.hierarchy.m, params, _dealer_rng(rng_seed)
    )
    return DealResult(shares, public, lifts if keep_dealer_secrets else None)


def dhss_authorized_level(
    members: frozenset | set | Sequence[int], params: SchemeParams
) -> Optional[int]:
    """Smallest level whose cumulative threshold the set meets, else None."""
    failing = params.hierarchy.failing_levels(members)
    levels = range(1, params.hierarchy.m + 1)
    return next((level for level in levels if level not in failing), None)


def lift_share(
    share: Share, level: int, public: PublicBundle
) -> int:
    """Level-l residue of one share: masked via the published offset for
    participants below the top level, the raw value for top-level holders."""
    if share.participant > public.params.hierarchy.n_masked:
        return share.value % share.modulus
    key = (share.participant, level)
    if key not in public.w:
        raise MissingPublicValue(
            f"no published value for participant {share.participant} "
            f"at level {level}"
        )
    mask = eval_owf(public.params.owf, level, share.value, share.modulus)
    return (mask + public.w[key]) % share.modulus


def _level_congruences(
    shares: Sequence[Share], level: int, public: PublicBundle
) -> list[Congruence]:
    """z_l = lifted share (mod m_i) for every share inside the first N_l."""
    upper = public.params.hierarchy.cumulative[level - 1]
    return [
        Congruence(residue=lift_share(s, level, public), modulus=s.modulus)
        for s in shares
        if s.participant <= upper
    ]


def dedupe_shares(shares: Sequence[Share], params: SchemeParams) -> list[Share]:
    """The share gate: one share per participant, each checked against the
    parameter set (participant range, modulus, level, value in [0, m_i)).
    Messages name the participant, never a value."""
    seq, hier = params.sequence, params.hierarchy
    seen: dict[int, Share] = {}
    for s in shares:
        i = s.participant
        modulus = seq.modulus_of(i)
        if s.modulus != modulus:
            raise ValueError(f"share for participant {i} carries the wrong modulus")
        if s.level != hier.level_of(i):
            raise ValueError(f"share for participant {i} carries the wrong level")
        if not 0 <= s.value < modulus:
            raise ValueError(f"share value of participant {i} is not in [0, m_{i})")
        if i in seen and seen[i].value != s.value:
            raise InconsistentShares(f"conflicting shares for participant {i}")
        seen[i] = s
    return [seen[i] for i in sorted(seen)]


def _recover(shares: Sequence[Share], public: PublicBundle, conjunctive: bool) -> int:
    """The recovery core behind every reconstruct entry point.

    Gates the shares, then solves the smallest qualifying level (disjunctive)
    or every level (conjunctive) from all shares inside it, and sums the lifts
    mod m0. A level solution at or above prod(m_1..m_{t_l}) cannot come from
    one deal, so redundant shares that disagree raise InconsistentShares
    naming the level, never a value.
    """
    seq, hier = public.params.sequence, public.params.hierarchy
    unique = dedupe_shares(shares, public.params)
    members = {s.participant for s in unique}
    failing = hier.failing_levels(members)
    levels = [lvl for lvl in range(1, hier.m + 1) if lvl not in failing]
    if not levels or (conjunctive and failing):
        raise NotAuthorized(
            f"level(s) {list(failing)} below threshold for participants "
            f"{sorted(members)}",
            failing_levels=failing,
        )
    total = 0
    for level in levels if conjunctive else levels[:1]:
        y = crt_solve(_level_congruences(unique, level, public)).value
        if y >= seq.prefix_product(hier.thresholds[level - 1]):
            raise InconsistentShares(
                f"level {level} shares disagree: their solution exceeds the "
                f"dealer bound"
            )
        total += y
    return total % seq.m0


def dhss_reconstruct(shares: Sequence[Share], public: PublicBundle) -> int:
    """Recover the secret from the smallest qualifying level, using every
    available share inside it; the extras tighten the congruence system."""
    return _recover(shares, public, conjunctive=False)
