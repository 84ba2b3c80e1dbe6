"""Property test of the share gate behind every reconstruct entry point.

One seeded deal per scheme on the 61-bit ladder. Hypothesis draws a subset of
its shares and, half the time, one corruption of a member: a participant out
of range, a wrong level, a wrong modulus, a value outside [0, m_i), or a
conflicting duplicate. A corrupted set is refused with ValueError or
InconsistentShares whether or not it is authorized, so the gate runs before
authorization is checked; an intact set returns the secret exactly when it is
authorized.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEQ_61
from crthss import (
    Hierarchy,
    SchemeParams,
    ab_reconstruct,
    chss_deal,
    chss_is_authorized,
    chss_reconstruct,
    dhss_authorized_level,
    dhss_deal,
    dhss_reconstruct,
)
from crthss.errors import InconsistentShares, NotAuthorized

SECRET = 1234567890123456789
TIERED = SchemeParams(SEQ_61, Hierarchy((2, 3), (2, 3)))
FLAT = SchemeParams(SEQ_61, Hierarchy((5,), (3,)))

# scheme -> (deal, reconstruct entry point, authorization predicate)
SCHEMES = {
    "dhss": (dhss_deal(SECRET, TIERED, 5), dhss_reconstruct,
             lambda members: dhss_authorized_level(members, TIERED) is not None),
    "chss": (chss_deal(SECRET, TIERED, 5), chss_reconstruct,
             lambda members: chss_is_authorized(members, TIERED)),
    "ab": (dhss_deal(SECRET, FLAT, 5), ab_reconstruct,
           lambda members: len(members) >= 3),
}
N = SEQ_61.n


@st.composite
def corruptions(draw, share):
    """One malformed variant of ``share``, or a conflicting twin of it."""
    kind = draw(st.sampled_from(
        ["participant", "level", "modulus", "value", "duplicate"]))
    if kind == "participant":
        return [replace(share, participant=draw(st.sampled_from([0, -1, N + 1, 99])))]
    if kind == "level":
        level = draw(st.integers(-1, 9).filter(lambda lvl: lvl != share.level))
        return [replace(share, level=level)]
    if kind == "modulus":
        modulus = draw(st.sampled_from(
            [*SEQ_61.moduli, share.modulus * 7, share.modulus + 1, 1, 0]
        ).filter(lambda m: m != share.modulus))
        return [replace(share, modulus=modulus)]
    if kind == "value":
        value = draw(st.one_of(
            st.integers(-share.modulus, -1),
            st.integers(share.modulus, 3 * share.modulus),
        ))
        return [replace(share, value=value)]
    shift = draw(st.integers(1, share.modulus - 1))
    return [share, replace(share, value=(share.value + shift) % share.modulus)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_gate_runs_before_authorization(data):
    scheme = data.draw(st.sampled_from(sorted(SCHEMES)), label="scheme")
    deal, reconstruct, authorized = SCHEMES[scheme]
    subset = data.draw(
        st.lists(st.sampled_from(deal.shares), min_size=1, unique=True),
        label="subset",
    )
    members = {s.participant for s in subset}
    if data.draw(st.booleans(), label="corrupt"):
        position = data.draw(st.integers(0, len(subset) - 1), label="position")
        bad = data.draw(corruptions(subset[position]), label="corruption")
        supplied = subset[:position] + bad + subset[position + 1:]
        with pytest.raises((ValueError, InconsistentShares)):
            reconstruct(supplied, deal.public)
    elif authorized(members):
        assert reconstruct(subset, deal.public) == SECRET
    else:
        with pytest.raises(NotAuthorized):
            reconstruct(subset, deal.public)
