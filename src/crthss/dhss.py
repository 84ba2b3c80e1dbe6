"""Hierarchical dealing and reconstruction for every scheme.

One ``deal`` and one ``reconstruct`` serve the three schemes the parameters
name (``SchemeParams.scheme``). Disjunctive ``dhss``: a set is authorized
when SOME level l has at least t_l of its members inside the first N_l
participants. Conjunctive ``chss``: EVERY level's threshold must be met.
Flat ``ab`` (Asmuth-Bloom): one level of n participants and threshold t.

Every level gets its own lift y_l = r_l + alpha_l*m0 below prod(m_1..m_{t_l}),
where r_l is the secret itself (dhss, ab) or its l-th additive part (chss);
participants outside the top level hold a random value c_i and the published
offset w[i, l] = (y_l - h_l(c_i)) mod m_i converts it into a level-l residue.
Top-level participants hold y_m mod m_i directly and have no published
offsets. With one level every participant is a top-level one, and the deal
of each scheme is the flat deal.

Without a seed every dealer draw comes from the operating system's CSPRNG.
An explicit seed makes a deal reproducible: the dealer draws
delta_1..delta_{m-1} (chss only), then alpha_1..alpha_m (by level), then
c_1..c_{N_{m-1}} (by participant index), from a Mersenne Twister seeded
with it.

``reconstruct`` takes (shares, public), passes ``dedupe_shares``, the one
share gate, once, and recovers its levels below their dealer bounds. A level
is solved by congruence from its first t_l shares alone (or fewer, where
their moduli already reach the bound), which fix the lift below the bound
(Asmuth-Bloom); each share beyond those is checked by its residue instead of
entering the solve.
"""

import random
import secrets
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .crt import GarnerFold, remainders, tree_remainders
from .errors import (
    InconsistentShares,
    InvalidParams,
    MissingPublicValue,
    NotAuthorized,
    SecretOutOfRange,
    TooFewShares,
)
from .oneway import eval_owf
from .params import SchemeParams, scheme_violations


@dataclass(frozen=True)
class Share:
    """One participant's private value together with its public coordinates.

    A deal and a reconstruct build one per participant, passing the fields
    by position, which costs less than by keyword."""

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


def _dealer_rng(rng_seed: Optional[int]) -> random.Random:
    """The seeded Mersenne Twister for an explicit seed (reproducible deals);
    otherwise the system CSPRNG, so no seed exists that decides the deal."""
    if rng_seed is None:
        return secrets.SystemRandom()
    return random.Random(rng_seed)


def deal(
    secret: int,
    params: SchemeParams,
    rng_seed: Optional[int] = None,
    keep_dealer_secrets: bool = False,
) -> DealResult:
    """Deal ``secret`` under ``params.scheme``. Draws from the system CSPRNG
    when ``rng_seed`` is None; deterministic for a given seed.

    Every level l lifts a residue r_l to y_l = r_l + alpha_l*m0 below
    prod(m_1..m_{t_l}): the secret itself for dhss and ab, and for chss the
    additive parts delta_1..delta_m, the first m - 1 uniform in Z_m0 and
    delta_m closing the sum to the secret mod m0. Draws delta_1..delta_{m-1}
    (chss only), then alpha_1..alpha_m by level, then c_1..c_{N_{m-1}} by
    participant index. y_l mod m_i for every participant of the first N_l,
    which the top-level shares and the published offsets w[i, l] take, comes
    from one remainder-tree walk per level; the top level's covers every
    modulus and descends the sequence's own product tree (``seq.tree``),
    which the deal verdict built for its coprimality check. Participants are
    walked level by level, over each level's slice of the moduli.

    dealer_secrets (y_l and alpha_l per level, and chss's delta_l) is
    populated only when keep_dealer_secrets is set; it must never leave a
    test or audit context.
    """
    seq, hier = params.sequence, params.hierarchy
    if params.violations:
        raise InvalidParams("; ".join(params.violations))
    if not 0 <= secret < seq.m0:
        # the secret itself is never named: only the public range is
        raise SecretOutOfRange(f"secret not in [0, {seq.m0})")
    rng = _dealer_rng(rng_seed)
    kept = {}
    if params.scheme == "chss":
        deltas = [rng.randrange(seq.m0) for _ in range(hier.m - 1)]
        deltas.append((secret - sum(deltas)) % seq.m0)
        residues = kept["delta"] = tuple(deltas)
    else:
        residues = (secret,) * hier.m
    alphas, ys = [], []
    for residue, t in zip(residues, hier.thresholds):
        bound = seq.prefix_product(t)
        alphas.append(rng.randrange((bound - 1 - residue) // seq.m0 + 1))
        ys.append(residue + alphas[-1] * seq.m0)
    moduli, cumulative = seq.moduli, hier.cumulative
    lifted = [remainders(y, moduli[:upper]) for y, upper in zip(ys[:-1], cumulative)]
    lifted.append(tree_remainders(ys[-1], seq.tree))
    tag, top, n_masked = params.family_tag, hier.m, hier.n_masked
    shares, w = [], {}
    # the levels below the top, whose participants are masked: (N_(l-1), N_l)
    masked_levels = zip((0,) + cumulative, cumulative[:-1])
    for level, (lower, upper) in enumerate(masked_levels, start=1):
        for i, m_i in zip(range(lower + 1, upper + 1), moduli[lower:upper]):
            value = rng.randrange(m_i)
            shares.append(Share(i, level, m_i, value))
            for lvl in range(level, top + 1):
                mask = eval_owf(tag, lvl, value, m_i)
                w[(i, lvl)] = (lifted[lvl - 1][i - 1] - mask) % m_i
    shares += [
        Share(i, top, m_i, value)
        for i, m_i, value in zip(range(n_masked + 1, hier.n + 1),
                                 moduli[n_masked:], lifted[-1][n_masked:])
    ]
    kept.update(alpha=tuple(alphas), y=tuple(ys))
    return DealResult(tuple(shares), PublicBundle(params=params, w=w),
                      kept if keep_dealer_secrets else None)


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
    mask = eval_owf(public.params.family_tag, level, share.value, share.modulus)
    return (mask + public.w[key]) % share.modulus


def _level_lifts(
    shares: Sequence[Share], level: int, public: PublicBundle
) -> tuple[list[int], list[int]]:
    """The level-l system z_l = lift (mod m_i) of the shares inside the
    first N_l, in their order: their lifts and their moduli."""
    upper = public.params.hierarchy.cumulative[level - 1]
    inside = [s for s in shares if s.participant <= upper]
    return [lift_share(s, level, public) for s in inside], [s.modulus for s in inside]


def dedupe_shares(shares: Sequence[Share], params: SchemeParams) -> list[Share]:
    """The share gate: one share per participant, each checked against the
    parameter set (participant range, modulus, level, value in [0, m_i)),
    in the order given, and the distinct shares in participant order.
    Messages name the participant, never a value. A participant in range is
    looked up directly; one outside it is refused by ``modulus_of`` or
    ``level_of``, in their words."""
    seq, hier = params.sequence, params.hierarchy
    moduli, cumulative = seq.moduli, hier.cumulative
    n_moduli, n = len(moduli), hier.n
    seen: dict[int, Share] = {}
    for s in shares:
        i = s.participant
        modulus = moduli[i - 1] if 1 <= i <= n_moduli else seq.modulus_of(i)
        if s.modulus != modulus:
            raise ValueError(f"share for participant {i} carries the wrong modulus")
        level = bisect_left(cumulative, i) + 1 if 1 <= i <= n else hier.level_of(i)
        if s.level != level:
            raise ValueError(f"share for participant {i} carries the wrong level")
        if not 0 <= s.value < modulus:
            raise ValueError(f"share value of participant {i} is not in [0, m_{i})")
        if i in seen and seen[i].value != s.value:
            raise InconsistentShares(f"conflicting shares for participant {i}")
        seen[i] = s
    return [seen[i] for i in sorted(seen)]


def reconstruct(shares: Sequence[Share], public: PublicBundle) -> int:
    """Recover the secret under ``public.params.scheme``.

    Gates the shares, then recovers the lift y_l of the smallest qualifying
    level (dhss and ab) or of every level (chss), and sums the lifts mod m0.
    A level's congruences, in participant order, are split at the
    shortest prefix whose moduli multiply to at least the dealer bound
    B_l = prod(m_1..m_{t_l}): at most its first t_l when the moduli increase,
    as ``deal`` requires, since the j-th of them is then at least m_j. Only
    that prefix is solved, to y; every later share is checked by its residue,
    y mod m_i, all of them from one remainder-tree walk over their moduli.
    The full system's solution x is y plus a multiple of the
    prefix product M >= B_l, so x is below B_l exactly when y is and every
    later residue matches: the full solve's verdict, from at most t_l fold
    steps. Shares with no lift below B_l cannot come from one deal and raise
    InconsistentShares naming the level, never a value. Each level's system
    is a prefix of the gated shares' moduli, so one ``GarnerFold`` over them
    serves every level: its block products find each level's prefix, and
    its step inverses are worked out once, as far as the longest prefix.

    A set that fails raises NotAuthorized naming the failing levels; for a
    flat bundle it is TooFewShares, naming how many distinct shares came and
    how many are needed. A bundle whose scheme ``scheme_violations``
    refuses raises ValueError in the rule's words: no deal gives its shares.
    """
    params = public.params
    seq, hier = params.sequence, params.hierarchy
    if refused := scheme_violations(params.scheme, hier):
        raise ValueError("; ".join(refused))
    flat, conjunctive = params.scheme == "ab", params.scheme == "chss"
    unique = dedupe_shares(shares, params)
    members = [s.participant for s in unique]
    failing = hier.failing_levels(members)
    levels = [lvl for lvl in range(1, hier.m + 1) if lvl not in failing]
    if flat and failing:
        raise TooFewShares(
            f"got {len(members)} distinct shares, need {hier.thresholds[0]}",
            failing_levels=(1,),
        )
    if not levels or (conjunctive and failing):
        raise NotAuthorized(
            f"not authorized; failing level(s): {list(failing)}",
            failing_levels=failing,
        )
    fold = GarnerFold([s.modulus for s in unique])
    total = 0
    for level in levels if conjunctive else levels[:1]:
        bound = seq.prefix_product(hier.thresholds[level - 1])
        lifts, moduli = _level_lifts(unique, level, public)
        solved = fold.prefix_reaching(bound, len(moduli))
        y = fold.solve(lifts[:solved])
        residues = remainders(y, moduli[solved:])
        if y >= bound or residues != lifts[solved:]:
            raise InconsistentShares(
                f"level {level} shares disagree: no value below the dealer "
                f"bound fits them all"
            )
        total += y
    return total % seq.m0
