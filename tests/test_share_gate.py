"""Property test of the share gate behind every reconstruct entry point.

One seeded deal per scheme on the 61-bit ladder. Hypothesis draws a subset of
its shares and, half the time, one corruption of a member: a participant out
of range, a wrong level, a wrong modulus, a value outside [0, m_i), or a
conflicting duplicate. A corrupted set is refused with ValueError or
InconsistentShares whether or not it is authorized, so the gate runs before
authorization is checked; an intact set returns the secret exactly when it is
authorized.

Each refusal's message is pinned too, for every scheme: as the library
raises it, and as the whole stderr of ``crthss reconstruct`` for the
refusals a share file can carry.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEQ_61
from crthss import Hierarchy, SchemeParams, deal, reconstruct
from crthss.cli import main
from crthss.errors import InconsistentShares, NotAuthorized
from crthss.fileformat import canonical_dumps, param_file_obj

SECRET = 1234567890123456789
TIERED = SchemeParams(SEQ_61, Hierarchy((2, 3), (2, 3)))
FLAT = SchemeParams(SEQ_61, Hierarchy((5,), (3,)), scheme="ab")

# scheme -> (deal, authorization predicate)
SCHEMES = {
    "dhss": (deal(SECRET, TIERED, 5),
             lambda members: len(TIERED.hierarchy.failing_levels(members)) < 2),
    "chss": (deal(SECRET, replace(TIERED, scheme="chss"), 5),
             lambda members: not TIERED.hierarchy.failing_levels(members)),
    "ab": (deal(SECRET, FLAT, 5), lambda members: len(members) >= 3),
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
    dealt, authorized = SCHEMES[scheme]
    subset = data.draw(
        st.lists(st.sampled_from(dealt.shares), min_size=1, unique=True),
        label="subset",
    )
    members = {s.participant for s in subset}
    if data.draw(st.booleans(), label="corrupt"):
        position = data.draw(st.integers(0, len(subset) - 1), label="position")
        bad = data.draw(corruptions(subset[position]), label="corruption")
        supplied = subset[:position] + bad + subset[position + 1:]
        with pytest.raises((ValueError, InconsistentShares)):
            reconstruct(supplied, dealt.public)
    elif authorized(members):
        assert reconstruct(subset, dealt.public) == SECRET
    else:
        with pytest.raises(NotAuthorized):
            reconstruct(subset, dealt.public)


# participant 2's share, changed by each function, and what the gate says;
# the messages were recorded before the gate indexed the moduli directly
GATE_REFUSALS = [
    pytest.param(lambda s: [replace(s, participant=N + 1)], ValueError,
                 f"participant {N + 1} not in [1, {N}]", id="participant above n"),
    pytest.param(lambda s: [replace(s, participant=0)], ValueError,
                 f"participant 0 not in [1, {N}]", id="participant 0"),
    pytest.param(lambda s: [replace(s, modulus=s.modulus + 1)], ValueError,
                 "share for participant 2 carries the wrong modulus",
                 id="wrong modulus"),
    pytest.param(lambda s: [replace(s, level=s.level + 1)], ValueError,
                 "share for participant 2 carries the wrong level", id="wrong level"),
    pytest.param(lambda s: [replace(s, value=s.modulus)], ValueError,
                 "share value of participant 2 is not in [0, m_2)", id="value at m_i"),
    pytest.param(lambda s: [replace(s, value=-1)], ValueError,
                 "share value of participant 2 is not in [0, m_2)",
                 id="negative value"),
    pytest.param(lambda s: [s, replace(s, value=(s.value + 1) % s.modulus)],
                 InconsistentShares, "conflicting shares for participant 2",
                 id="conflicting duplicate"),
    # two faults in one share: the modulus is checked first, then the level
    pytest.param(lambda s: [replace(s, modulus=s.modulus + 1, level=s.level + 1)],
                 ValueError, "share for participant 2 carries the wrong modulus",
                 id="wrong modulus and level"),
    pytest.param(lambda s: [replace(s, level=s.level + 1, value=s.modulus)],
                 ValueError, "share for participant 2 carries the wrong level",
                 id="wrong level and value"),
]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("corrupt, error, message", GATE_REFUSALS)
def test_gate_refusal_message_is_pinned(scheme, corrupt, error, message):
    dealt, _ = SCHEMES[scheme]
    shares = list(dealt.shares)
    supplied = shares[:1] + corrupt(shares[1]) + shares[2:]
    with pytest.raises(error) as exc:
        reconstruct(supplied, dealt.public)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_gate_range_messages_of_unvalidated_parameters():
    # a bundle's parameters are not validated again: with more moduli than
    # participants, or fewer, the shorter of the two sets the range named
    dealt = SCHEMES["ab"][0]
    for moduli, sizes in ((SEQ_61.moduli, (4,)), (SEQ_61.moduli[:4], (5,))):
        params = SchemeParams(replace(SEQ_61, moduli=moduli), Hierarchy(sizes, (3,)),
                              scheme="ab")
        public = replace(dealt.public, params=params)
        with pytest.raises(ValueError) as exc:
            reconstruct(list(dealt.shares), public)
        assert str(exc.value) == "participant 5 not in [1, 4]"


# the refusals a share file can carry to the gate: field -> the new value of
# participant 2's field, from its file object, and the whole stderr
FILE_REFUSALS = [
    ("participant", lambda o: N + 1, f"error: participant {N + 1} not in [1, {N}]\n"),
    ("participant", lambda o: 0, f"error: participant 0 not in [1, {N}]\n"),
    ("modulus", lambda o: str(int(o["modulus"]) + 1),
     "error: share for participant 2 carries the wrong modulus\n"),
    ("level", lambda o: o["level"] + 1,
     "error: share for participant 2 carries the wrong level\n"),
]


def _reconstruct(out_dir, shares, capsys):
    capsys.readouterr()
    code = main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                 "--shares", *map(str, shares)])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_reconstruct_gate_refusal_stderr_is_pinned(tmp_path, capsys, scheme):
    # the seeded deal of SCHEMES[scheme], written by crthss deal
    param_path, out_dir = tmp_path / "params.json", tmp_path / "deal"
    param_path.write_text(canonical_dumps(
        param_file_obj(scheme, FLAT if scheme == "ab" else TIERED)))
    assert main(["deal", "--params", str(param_path), "--secret", str(SECRET),
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    paths = [out_dir / f"share_{i:03d}.json" for i in range(1, N + 1)]
    original = paths[1].read_text()
    assert _reconstruct(out_dir, paths, capsys) == (0, f"{SECRET}\n", "")
    for field, value, stderr in FILE_REFUSALS:
        obj = json.loads(original)
        obj[field] = value(obj)
        paths[1].write_text(json.dumps(obj))
        assert _reconstruct(out_dir, paths, capsys) == (2, "", stderr), field
    # a value outside [0, m_i) is refused by the reader, before the gate
    obj = json.loads(original)
    obj["value"] = obj["modulus"]
    paths[1].write_text(json.dumps(obj))
    assert _reconstruct(out_dir, paths, capsys) == (
        2, "", f"error: cannot read share {paths[1]}: share file: value of "
        "participant 2 is not an integer in [0, modulus)\n")
    # a second file for participant 2 with another value
    paths[1].write_text(original)
    obj = json.loads(original)
    obj["value"] = str((int(obj["value"]) + 1) % int(obj["modulus"]))
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(obj))
    assert _reconstruct(out_dir, paths + [twin], capsys) == (
        2, "", "error: conflicting shares for participant 2\n")
