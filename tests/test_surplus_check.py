"""Each level is solved from its first t_l shares and every further share is
checked by residue; solving the level's full congruence system is the oracle.

Seeded dhss and chss deals of (2,3)/(2,3) and (10,40,150)/(5,20,60), and a
flat (200)/(100) deal, all at m0 = 2^40 + 15. Two kinds of input: every
single-share corruption (value + 1 mod m_i), in the solved prefix and in the
surplus, and shares mixed from two deals of the same parameters.
Reconstruction must refuse exactly when the full system of a level it solves
has its solution at or above that level's dealer bound, and must return the
oracle's secret otherwise (a wrong one, where a corrupt share meets no
redundancy).

A seeded 256-bit chss deal of (10,40,150)/(5,20,60) checks that one fold
serves its three levels: each level's solution is that of its own system,
the step inverses are worked out once, and a corrupt share is refused in
the name of the level that sees it.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import crthss.crt
import crthss.dhss
from crthss import (
    CompactSequence,
    Hierarchy,
    PublicBundle,
    SchemeParams,
    Share,
    crt_solve,
    deal,
    generate_compact_sequence,
    reconstruct,
)
from crthss.dhss import lift_share
from crthss.errors import InconsistentShares

M0 = 2**40 + 15  # the least prime above 2^40

# name -> (level sizes, thresholds, schemes dealt on it)
SHAPES = {
    "2-level": ((2, 3), (2, 3), ("dhss", "chss")),
    "3-level": ((10, 40, 150), (5, 20, 60), ("dhss", "chss")),
    "flat": ((200,), (100,), ("ab",)),
}
CASES = [(shape, scheme) for shape, (_, _, schemes) in SHAPES.items()
         for scheme in schemes]


def params_of(shape, scheme):
    sizes, thresholds, _ = SHAPES[shape]
    hierarchy = Hierarchy(sizes, thresholds)
    sequence = generate_compact_sequence(M0, hierarchy.n, 1, Fraction(1, 2), 3)
    return SchemeParams(sequence=sequence, hierarchy=hierarchy, scheme=scheme)


def oracle(shares, public, conjunctive):
    """The secret the full system of every solved level gives, or None when
    one of those solutions reaches its dealer bound."""
    seq, hier = public.params.sequence, public.params.hierarchy
    failing = hier.failing_levels({s.participant for s in shares})
    levels = [lvl for lvl in range(1, hier.m + 1) if lvl not in failing]
    assert levels and not (conjunctive and failing)
    total = 0
    for level in levels if conjunctive else levels[:1]:
        upper = hier.cumulative[level - 1]
        inside = [s for s in shares if s.participant <= upper]
        x = crt_solve([lift_share(s, level, public) for s in inside],
                      [s.modulus for s in inside])
        if x >= seq.prefix_product(hier.thresholds[level - 1]):
            return None
        total += x
    return total % seq.m0


def outcome(shares, public):
    try:
        return reconstruct(shares, public)
    except InconsistentShares as exc:
        assert str(exc).startswith("level ")
        return None


def share_sets(shares, scheme, params):
    """All shares; for dhss also two sets that miss level 1 by one share, so
    level 2 is the one solved: every share from there on, and only the first
    t_2 of them. The moduli of the last set multiply past the dealer bound,
    so only the bound can refuse it."""
    hier = params.hierarchy
    sets = [list(shares)]
    if scheme == "dhss":
        first = hier.cumulative[0] - hier.thresholds[0] + 2
        sets.append([s for s in shares if s.participant >= first])
        sets.append(sets[-1][:hier.thresholds[1]])
    return sets


@pytest.mark.parametrize("shape, scheme", CASES)
def test_single_share_corruptions_match_the_full_solve(shape, scheme):
    params = params_of(shape, scheme)
    conjunctive = scheme == "chss"
    result = deal(123456789, params, 7)
    verdicts = []
    for shares in share_sets(result.shares, scheme, params):
        assert outcome(shares, result.public) == 123456789
        for position, share in enumerate(shares):
            bad = list(shares)
            bad[position] = replace(share, value=(share.value + 1) % share.modulus)
            expected = oracle(bad, result.public, conjunctive)
            assert outcome(bad, result.public) == expected
            verdicts.append(expected is None)
    # a dhss level that holds exactly t_l shares cannot see a corrupt one;
    # every other set here has a surplus share in each solved level
    assert set(verdicts) == ({True, False} if scheme == "dhss" else {True})


@pytest.mark.parametrize("shape, scheme", CASES)
def test_shares_mixed_from_two_deals_match_the_full_solve(shape, scheme):
    params = params_of(shape, scheme)
    conjunctive = scheme == "chss"
    first, second = deal(123456789, params, 1), deal(987654321, params, 2)
    hier = params.hierarchy
    # participants from the split point on hold the second deal's shares
    splits = {*range(1, hier.n, max(1, hier.n // 20)),
              *(t + d for t in hier.thresholds for d in (-1, 0, 1, 2))}
    masks = [[i >= k for i in range(1, hier.n + 1)]
             for k in sorted(splits) if 1 < k <= hier.n]
    rng = random.Random(f"{shape} {scheme}")
    masks += [[rng.random() < 0.5 for _ in range(hier.n)] for _ in range(10)]
    verdicts = []
    for a, b in zip(share_sets(first.shares, scheme, params),
                    share_sets(second.shares, scheme, params)):
        for mask in masks:
            mixed = [y if mask[x.participant - 1] else x for x, y in zip(a, b)]
            for public in (first.public, second.public):
                expected = oracle(mixed, public, conjunctive)
                assert outcome(mixed, public) == expected
                verdicts.append(expected is None)
    assert True in verdicts


def test_a_lift_at_the_bound_is_refused_without_surplus():
    # t flat shares, but not the first t: their moduli multiply past the
    # dealer bound, so a lift at or above the bound solves them consistently
    # and only the bound refuses it
    params = params_of("flat", "ab")
    public = deal(1, params, 7).public
    seq, t = params.sequence, params.hierarchy.thresholds[0]
    bound = seq.prefix_product(t)
    moduli = seq.moduli[1:t + 1]
    for y in (bound - 1, bound, bound * moduli[-1] // seq.moduli[0] - 1):
        shares = [Share(i, 1, m, y % m) for i, m in enumerate(moduli, start=2)]
        expected = None if y >= bound else y % seq.m0
        assert oracle(shares, public, False) == expected
        assert outcome(shares, public) == expected


@pytest.mark.parametrize("moduli", [(1, 11, 13), (11, 13, 1)],
                         ids=["solved", "surplus"])
def test_a_bundle_modulus_of_1_is_refused(moduli):
    # a bundle's parameters are not validated again, so a modulus of 1 can
    # reach recovery; its share is refused whether solved or checked by residue
    params = SchemeParams(CompactSequence(m0=7, moduli=moduli),
                          Hierarchy((3,), (2,)), scheme="ab")
    public = PublicBundle(params=params, w={})
    shares = [Share(i, 1, m, 38 % m) for i, m in enumerate(moduli, start=1)]
    with pytest.raises(ValueError, match=r"^modulus must be >= 2, got 1$"):
        reconstruct(shares, public)


# -- one fold for every level ------------------------------------------------

M0_256 = 2**256 - 189  # the largest 256-bit prime


@pytest.fixture(scope="module")
def chss_256():
    """A seeded 256-bit chss deal of (10,40,150)/(5,20,60), its dealer
    secrets kept."""
    hierarchy = Hierarchy((10, 40, 150), (5, 20, 60))
    sequence = generate_compact_sequence(M0_256, hierarchy.n, 1, Fraction(1, 2), 5)
    params = SchemeParams(sequence=sequence, hierarchy=hierarchy, scheme="chss")
    return deal(3**150 % M0_256, params, 6, keep_dealer_secrets=True)


def test_one_fold_solves_every_level_as_its_own_system(chss_256, monkeypatch):
    solved = []

    class SpyFold(crthss.dhss.GarnerFold):
        def solve(self, residues):
            solved.append((list(residues), self.moduli[:len(residues)]))
            return super().solve(residues)

    inverses = []
    inverse = crthss.crt.mod_inverse
    monkeypatch.setattr(crthss.dhss, "GarnerFold", SpyFold)
    monkeypatch.setattr(crthss.crt, "mod_inverse",
                        lambda a, m: inverses.append(m) or inverse(a, m))
    result = chss_256
    assert reconstruct(result.shares, result.public) == 3**150 % M0_256
    # one step inverse per modulus of level 3's prefix, shared by levels 1, 2
    assert inverses == list(result.public.params.sequence.moduli[:60])
    # each level's solved prefix is its first t_l shares, and its solution
    # is the dealer's lift, as a separate solve of that system gives it
    assert [len(residues) for residues, _ in solved] == [5, 20, 60]
    for (residues, moduli), y in zip(solved, result.dealer_secrets["y"]):
        assert crt_solve(residues, moduli) == y


@pytest.mark.parametrize("participant, level", [(3, 1), (100, 3)],
                         ids=["level-1-solved-prefix", "level-3-surplus"])
def test_one_fold_names_the_level_of_a_corrupt_share(chss_256, participant, level):
    shares = list(chss_256.shares)
    bad = shares[participant - 1]
    shares[participant - 1] = replace(bad, value=(bad.value + 1) % bad.modulus)
    with pytest.raises(InconsistentShares, match=f"^level {level} shares disagree"):
        reconstruct(shares, chss_256.public)
