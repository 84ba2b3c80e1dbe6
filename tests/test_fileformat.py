"""Canonical serialization: byte-identical round trips and digest binding."""

import hashlib
import json
import math
import random
import re
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DHSS_SEED
from crthss import (
    CompactSequence,
    Share,
    deal,
    generate_compact_sequence,
)
from crthss.cli import _audit_one
from crthss.fileformat import (
    audit_report_text,
    bundle_file_text,
    canonical_dumps,
    param_file_obj,
    param_file_text,
    params_digest,
    parse_bundle_file,
    parse_param_file,
    parse_share_file,
    share_file_text,
)
from crthss.dhss import PublicBundle
from crthss.params import SCHEMES, Hierarchy, SchemeParams


def _param_obj(label, params):
    """A parameter file's object labelled ``label``, field by field, for the
    stdlib to dump."""
    seq, hier = params.sequence, params.hierarchy
    return {
        "version": 1,
        "scheme": label,
        "sequence": {
            "m0": str(seq.m0),
            "moduli": [str(m) for m in seq.moduli],
            "k": seq.k,
            "theta": f"{seq.theta.numerator}/{seq.theta.denominator}",
        },
        "hierarchy": {
            "level_sizes": list(hier.level_sizes),
            "thresholds": list(hier.thresholds),
        },
        "owf": {"kind": "hash_based", "family_tag": params.family_tag.hex(),
                "digest_name": "sha256"},
    }


def _bundle_obj(public):
    """A bundle file's object, field by field, for the stdlib to dump."""
    scheme = public.params.scheme
    return {
        "version": 1,
        "scheme": scheme,
        "params": _param_obj(scheme, public.params),
        "w": [{"participant": i, "level": level, "value": str(v)}
              for (i, level), v in sorted(public.w.items())],
    }


def _stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def random_params(rng):
    m0 = rng.choice([97, 997, 1009])
    sizes = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(1, 4)))
    thresholds = []
    previous = 0
    cumulative = 0
    for size in sizes:
        cumulative += size
        lo = previous + 1
        if lo > cumulative:
            return None
        thresholds.append(rng.randrange(lo, cumulative + 1))
        previous = thresholds[-1]
    hier = Hierarchy(sizes, tuple(thresholds))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(2, 3), rng.randrange(2**32))
    tag = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 5)))
    return SchemeParams(sequence=seq, hierarchy=hier, family_tag=tag)


def test_param_round_trip(micro_params):
    obj = param_file_obj("dhss", micro_params)
    text = canonical_dumps(obj)
    parsed = parse_param_file(json.loads(text))
    assert parsed.scheme == "dhss"
    assert parsed == micro_params
    assert canonical_dumps(param_file_obj(parsed.scheme, parsed)) == text


def test_param_round_trip_many():
    rng = random.Random(70)
    done = 0
    while done < 25:
        params = random_params(rng)
        if params is None:
            continue
        scheme = rng.choice(["dhss", "chss", "ab"])
        text = canonical_dumps(param_file_obj(scheme, params))
        back = parse_param_file(json.loads(text))
        assert back == replace(params, scheme=scheme)
        assert canonical_dumps(param_file_obj(back.scheme, back)) == text
        done += 1


def test_share_and_bundle_round_trip(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    digest = params_digest(micro_params)
    for share in result.shares:
        text = share_file_text("dhss", share, digest)
        scheme, back, back_digest = parse_share_file(json.loads(text))
        assert (scheme, back, back_digest) == ("dhss", share, digest)
        assert share_file_text(scheme, back, back_digest) == text

    bundle_text = bundle_file_text(result.public)
    bundle = parse_bundle_file(json.loads(bundle_text))
    assert bundle.params == micro_params
    assert dict(bundle.w) == dict(result.public.w)
    assert bundle_file_text(bundle) == bundle_text


def test_digest_binds_parameters(micro_params):
    digest = params_digest(micro_params)
    assert digest == params_digest(micro_params)
    assert digest != params_digest(replace(micro_params, scheme="chss"))
    other = SchemeParams(
        sequence=micro_params.sequence,
        hierarchy=Hierarchy((3,), (2,)),
        family_tag=micro_params.family_tag,
    )
    assert digest != params_digest(other)
    assert digest != params_digest(replace(micro_params, family_tag=b"\x00"))


def test_integers_travel_as_strings(micro_params):
    obj = param_file_obj("dhss", micro_params)
    assert obj["sequence"]["m0"] == "7"
    assert obj["sequence"]["moduli"] == ["11", "13", "17"]
    assert obj["sequence"]["theta"] == "1/2"
    result = deal(4, micro_params, DHSS_SEED)
    share_obj = json.loads(share_file_text("dhss", result.shares[0], "x"))
    assert isinstance(share_obj["value"], str)
    assert isinstance(share_obj["modulus"], str)
    bundle_obj = json.loads(bundle_file_text(result.public))
    assert all(isinstance(e["value"], str) for e in bundle_obj["w"])


def test_parse_rejects_malformed(micro_params):
    good = param_file_obj("dhss", micro_params)
    with pytest.raises(ValueError):
        parse_param_file({**good, "extra": 1})
    missing = dict(good)
    del missing["owf"]
    with pytest.raises(ValueError):
        parse_param_file(missing)
    with pytest.raises(ValueError):
        parse_param_file({**good, "version": 99})
    with pytest.raises(ValueError):
        parse_param_file({**good, "scheme": "nope"})
    doubled = json.loads(bundle_file_text(deal(4, micro_params, DHSS_SEED).public))
    doubled["w"].append(doubled["w"][0])
    with pytest.raises(ValueError):
        parse_bundle_file(doubled)


def test_only_hash_based_has_a_file_form(micro_params):
    """An h other than the hash family, such as test_affine, whose masks
    link a participant's levels, is not read back, neither as a parameter
    file nor inside a bundle: the audit is exact only for a one-way h."""
    good = param_file_obj("dhss", micro_params)
    bundle = json.loads(bundle_file_text(deal(4, micro_params, DHSS_SEED).public))
    affine = {"kind": "test_affine", "family_tag": ""}
    for owf, message in (
        (affine, "owf: kind is not hash_based"),
        ({**affine, "digest_name": "sha256"}, "owf: kind is not hash_based"),
        ({"family_tag": "", "digest_name": "sha256"}, "owf: kind is not hash_based"),
        ({"kind": "hash_based", "family_tag": ""}, "missing fields ['digest_name']"),
        ({**good["owf"], "extra": 1}, "unexpected fields ['extra']"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_param_file({**good, "owf": owf})
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_bundle_file({**bundle, "params": {**bundle["params"], "owf": owf}})


# every code point, lone surrogates and control characters included, with
# the ASCII, control and surrogate ranges drawn more often than by chance
_TEXT = st.text(st.one_of(
    st.characters(codec=None, exclude_categories=()),
    st.characters(min_codepoint=0, max_codepoint=0x7F),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf,
                     -math.inf]),
    _TEXT,
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


class _Count(IntEnum):
    ONE = 1
    BIG = 2**100


class _Name(str):
    pass


# flat containers, up to the 200 items of an n = 200 file: exactly str or
# int, mixed with their subclasses, bool, an IntEnum, a str subclass
_FLAT_ITEMS = st.one_of(_TEXT, st.integers(), st.integers(min_value=-2**300,
                                                           max_value=2**300))
_MIXED_ITEMS = st.one_of(_FLAT_ITEMS, st.booleans(), st.sampled_from(list(_Count)),
                         _TEXT.map(_Name))
_KEYS = st.one_of(_TEXT, _TEXT.map(_Name))
_FLAT_CONTAINERS = st.one_of(
    st.lists(_FLAT_ITEMS, max_size=200),
    st.lists(_MIXED_ITEMS, max_size=200),
    st.dictionaries(_KEYS, _FLAT_ITEMS, max_size=200),
    st.dictionaries(_KEYS, _MIXED_ITEMS, max_size=200),
)
_FLAT_VALUES = st.one_of(
    _FLAT_CONTAINERS,
    # nested, so the inline items sit at a deeper indent
    st.lists(_FLAT_CONTAINERS, max_size=3),
    st.dictionaries(_TEXT, _FLAT_CONTAINERS, max_size=3),
)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(value=st.one_of(_JSON_VALUES, _FLAT_VALUES))
def test_canonical_dumps_matches_json_dumps(value):
    # the stdlib encoder is the oracle for the hand-written one
    expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert canonical_dumps(value) == expected


@pytest.fixture(scope="module")
def real_size_deal():
    """A 256-bit dhss deal at n = 200, the size the share path is tuned for."""
    m0 = 2**256 - 189
    sequence = generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 4)
    params = SchemeParams(sequence=sequence,
                          hierarchy=Hierarchy((10, 40, 150), (5, 20, 60)))
    return params, deal(3**161 % m0, params, 21)


def _share_obj(scheme, share, digest):
    """A share file's object, field by field, for the stdlib to dump."""
    return {
        "version": 1,
        "scheme": scheme,
        "participant": share.participant,
        "level": share.level,
        "modulus": str(share.modulus),
        "value": str(share.value),
        "params_digest": digest,
    }


@pytest.mark.parametrize("which", ["params", "bundle", "share"])
def test_canonical_dumps_of_real_size_files_matches_json_dumps(real_size_deal, which):
    # each file's writer and canonical_dumps of its reference object give
    # the stdlib's bytes
    params, result = real_size_deal
    digest = params_digest(params)
    obj, text = {
        "params": lambda: (_param_obj("dhss", params), param_file_text(params)),
        "bundle": lambda: (_bundle_obj(result.public), bundle_file_text(result.public)),
        "share": lambda: (_share_obj("dhss", result.shares[-1], digest),
                          share_file_text("dhss", result.shares[-1], digest)),
    }[which]()
    assert text == canonical_dumps(obj) == _stdlib(obj)


@st.composite
def _shares(draw):
    """A share of any size the format holds: a 2- to 2048-bit modulus, a
    participant up to 10^4 and a level from 1 to 9."""
    bits = draw(st.integers(2, 2048))
    modulus = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    return Share(participant=draw(st.integers(1, 10**4)),
                 level=draw(st.integers(1, 9)), modulus=modulus,
                 value=draw(st.integers(0, modulus - 1)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(scheme=st.sampled_from(SCHEMES), share=_shares(),
       digest=st.binary(max_size=64).map(bytes.hex))
def test_share_file_text_matches_json_dumps(scheme, share, digest):
    # the stdlib, on the object built field by field, is the oracle
    text = share_file_text(scheme, share, digest)
    obj = _share_obj(scheme, share, digest)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert parse_share_file(json.loads(text)) == (scheme, share, digest)


def test_share_file_text_refuses_an_unknown_scheme():
    share = Share(participant=1, level=1, modulus=11, value=3)
    with pytest.raises(ValueError, match="^unknown scheme 'x\"'$"):
        share_file_text('x"', share, "00")


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", {1: "int key"}, {None: 1}, {"a": [{(1, 2): 3}]},
    [frozenset()], {"deep": [1, 2, {"x": bytearray(2)}]}, {"a": 1, 2: "b"},
], ids=["set", "bytes", "int-key", "none-key", "tuple-key", "frozenset",
        "nested-bytearray", "mixed-keys"])
def test_canonical_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)


def test_canonical_dumps_refuses_a_cycle():
    loop: list = [1]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_dumps({"a": loop})


# a 2048-bit m0 and moduli above it; the writer does not validate them
_M0_2048 = 2**2048 - 1557


@pytest.mark.parametrize("n, tag, k, theta, m0", [
    (1, b"", 1, Fraction(1, 2), 997),
    (3, b"\x00\xab\xff", 2, Fraction(2, 3), 1009),
    (200, b"", 1, Fraction(1, 2), 2**256 - 189),
    (200, b"tag", 3, Fraction(2, 3), _M0_2048),
    (3, b"", 1, Fraction(1, 2), _M0_2048),
], ids=["n1", "n3-tag-k2-theta23", "n200-256bit", "n200-2048bit-k3", "n3-2048bit"])
def test_param_file_text_matches_canonical_dumps(n, tag, k, theta, m0):
    sizes = {1: (1,), 3: (1, 2), 200: (10, 40, 150)}[n]
    thresholds = {1: (1,), 3: (1, 2), 200: (5, 20, 60)}[n]
    sequence = CompactSequence(m0=m0, moduli=tuple(k * m0 + 1 + i for i in range(n)),
                               k=k, theta=theta)
    params = SchemeParams(sequence=sequence, hierarchy=Hierarchy(sizes, thresholds),
                          family_tag=tag)
    for scheme in SCHEMES:
        labelled = replace(params, scheme=scheme)
        obj = _param_obj(scheme, params)
        text = param_file_text(labelled)
        assert text == canonical_dumps(obj) == _stdlib(obj)
        assert param_file_obj(scheme, params) == obj
        assert params_digest(labelled) == hashlib.sha256(text.encode()).hexdigest()
        assert parse_param_file(json.loads(text)) == labelled


def test_param_file_text_of_empty_lists():
    # a bundle's parameters are digested unvalidated, empty lists included
    params = SchemeParams(sequence=CompactSequence(m0=7, moduli=()),
                          hierarchy=Hierarchy((), ()))
    obj = _param_obj("dhss", params)
    assert param_file_text(params) == canonical_dumps(obj) == _stdlib(obj)
    assert bundle_file_text(PublicBundle(params, {})) == _stdlib(_bundle_obj(
        PublicBundle(params, {})))


def test_param_file_text_refuses_an_unknown_scheme(micro_params):
    with pytest.raises(ValueError, match="^unknown scheme 'x'$"):
        param_file_text(replace(micro_params, scheme="x"))
    with pytest.raises(ValueError, match="^unknown scheme 'x'$"):
        param_file_obj("x", micro_params)
    with pytest.raises(ValueError, match="^unknown scheme 'x'$"):
        bundle_file_text(PublicBundle(replace(micro_params, scheme="x"), {}))


# the shapes of n = 1, 5 and 200: one level, whose bundle has no w entry,
# then two and three
_SHAPES = {1: ((1,), (1,)), 5: ((2, 3), (2, 3)), 200: ((10, 40, 150), (5, 20, 60))}
# a prime of 64 and of 256 bits, and a 2048-bit m0
_M0S = {64: 2**64 - 59, 256: 2**256 - 189, 2048: _M0_2048}


@pytest.mark.parametrize("tag", [b"", b"\x00tag\xff"], ids=["no-tag", "tag"])
@pytest.mark.parametrize("bits", sorted(_M0S))
@pytest.mark.parametrize("n", sorted(_SHAPES))
def test_writers_match_field_by_field_references(n, bits, tag):
    # the writers do not validate: moduli just above m0 and w values drawn
    # below them stand in for a deal at every size
    m0, rng = _M0S[bits], random.Random(n * bits)
    moduli = tuple(m0 + 1 + i for i in range(n))
    hier = Hierarchy(*_SHAPES[n])
    w = {(i, level): rng.randrange(moduli[i - 1])
         for i in range(1, hier.n_masked + 1)
         for level in range(hier.level_of(i), hier.m + 1)}
    assert (n == 1) == (w == {})
    for scheme in SCHEMES:
        params = SchemeParams(CompactSequence(m0=m0, moduli=moduli), hier,
                              family_tag=tag, scheme=scheme)
        assert param_file_text(params) == _stdlib(_param_obj(scheme, params))
        public = PublicBundle(params, w)
        assert bundle_file_text(public) == _stdlib(_bundle_obj(public))
        # the label a parameter file carries need not be the parameters' own
        for label in SCHEMES:
            assert param_file_obj(label, params) == _param_obj(label, params)


def test_bundle_file_text_of_a_one_level_deal(flat_params):
    public = deal(4, flat_params, 1).public
    assert public.w == {}
    text = bundle_file_text(public)
    assert text == _stdlib(_bundle_obj(public))
    assert json.loads(text)["w"] == []


def _reports(micro_params, flat_params):
    """Audit reports as the CLI builds them: dhss (every level worst case),
    chss (level 1 not worst case: a null ratio and value, and a null
    decomposition_ok) and ab."""
    return {
        "dhss": _audit_one(micro_params, (2,), 4, 1, 10**7),
        "chss": _audit_one(replace(micro_params, scheme="chss"), (1,), 4, 1, 10**7),
        "ab": _audit_one(flat_params, (1,), 4, 1, 10**7),
    }


def test_audit_report_text_matches_canonical_dumps(micro_params, flat_params):
    reports = _reports(micro_params, flat_params)
    chss = reports["chss"]
    assert chss["decomposition_ok"] is None
    assert chss["ratio_table"][0] == {"level": 1, "ratio": None, "value": None}
    assert reports["dhss"]["decomposition_ok"] is True
    for report in reports.values():
        assert audit_report_text(report) == canonical_dumps(report) == _stdlib(report)
    # a loss of exactly 0.0, and of -0.0
    for loss in (0.0, -0.0):
        report = dict(reports["dhss"], loss_bits=loss)
        assert audit_report_text(report) == canonical_dumps(report) == _stdlib(report)


def test_ladder_report_text_matches_canonical_dumps(micro_params, flat_params):
    # each rung carries its m0, which sorts between loss_bits and params_digest
    rungs = [dict(report, m0=str(m0)) for report, m0 in
             zip(_reports(micro_params, flat_params).values(), (7, 97, 997))]
    rungs[1]["loss_bits"] = 0.0
    deltas = [rung["loss_bits"] for rung in rungs]
    for ladder in (rungs, rungs[:1]):
        obj = {"ladder": ladder, "delta_trend": deltas[:len(ladder)],
               "strictly_decreasing": False}
        assert audit_report_text(obj) == canonical_dumps(obj) == _stdlib(obj)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(floats=st.lists(st.floats(), min_size=7, max_size=7),
       text=st.text(), adversary=st.lists(st.integers(1, 10**4), max_size=3),
       ratio=st.one_of(st.none(), st.floats()), ok=st.sampled_from([None, True, False]))
def test_audit_report_text_matches_json_dumps_on_any_value(
        floats, text, adversary, ratio, ok):
    # every float json spells (NaN and the infinities too), any string and
    # an empty adversary list: the stdlib is the oracle
    micro = SchemeParams(CompactSequence(m0=7, moduli=(11, 13, 17)),
                         Hierarchy((1, 2), (1, 2)))
    report = _audit_one(micro, (2,), 4, 1, 10**7)
    keys = ("conditional_entropy_bits", "epsilon_tolerance", "loss_bits", "rho",
            "secret_entropy_bits")
    report.update(zip(keys, floats), adversary=adversary, decomposition_ok=ok,
                  scheme=text, params_digest=text, total_candidates=text)
    report["ratio_table"][0].update(ratio=text, value=ratio)
    report["eta_table"][0]["floor"] = text
    report["groups"][0]["candidates"] = text
    assert audit_report_text(report) == _stdlib(report)
    rung = dict(report, m0=text)
    ladder = {"ladder": [rung, rung], "delta_trend": floats[5:],
              "strictly_decreasing": ok is True}
    assert audit_report_text(ladder) == _stdlib(ladder)
