"""Canonical JSON files for parameters, shares, and public bundles.

Big integers (m0, moduli, share and w values) travel as decimal strings and
small counts (participant, level, k, level sizes, thresholds) as JSON
integers; theta as "p/q", byte tags as lowercase hex; no floats anywhere.
Parsing is as strict as writing: any other JSON type is refused.
Serialization is canonical (sorted keys, two-space indent, trailing newline)
so files round-trip byte-identically and the parameter digest is well
defined: shares and bundles are bound together by the SHA-256 of the
canonical parameter document.
"""

import hashlib
import json
from fractions import Fraction
from typing import Mapping

from .dhss import PublicBundle, Share
from .oneway import KINDS, OwfFamily
from .params import CompactSequence, Hierarchy, SchemeParams

FORMAT_VERSION = 1
SCHEMES = ("dhss", "chss", "ab")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _digits(text):
    """The integer a JSON string of ASCII digits spells, else None.
    bytes.isdigit accepts ASCII digits only, and is a table lookup per
    character where str.isdigit consults the Unicode database."""
    if isinstance(text, str) and text.isascii() and text.encode().isdigit():
        try:
            return int(text)
        except ValueError:  # beyond the interpreter's integer-string digit limit
            pass
    return None


def _residue(text, modulus: int):
    """_digits(text) when it lies in [0, modulus), else None. Callers word
    their own error, which never quotes the text: it may be a share value."""
    value = _digits(text)
    return value if value is not None and value < modulus else None


# Readers of one field: each returns its value or raises a ValueError that
# names the field, never the value.

def _decimal(text, name: str) -> int:
    value = _digits(text)
    _require(value is not None, f"{name} is not a decimal string")
    return value


def _decimals(texts, name: str) -> tuple[int, ...]:
    """A list of decimal strings, n of them for the moduli: one check of
    their join covers every character, and all(texts) rules out ""."""
    _require(isinstance(texts, list) and all(type(t) is str for t in texts),
             f"{name} is not a list of strings")
    joined = "".join(texts)
    _require(not texts or (all(texts) and joined.isascii()
                           and joined.encode().isdigit()),
             f"{name} holds a string that is not a decimal")
    return tuple(map(int, texts))


def _json_int(value, name: str) -> int:
    _require(type(value) is int, f"{name} is not a JSON integer")
    return value


def _json_ints(values, name: str) -> tuple[int, ...]:
    _require(isinstance(values, list) and all(type(v) is int for v in values),
             f"{name} is not a list of JSON integers")
    return tuple(values)


def _exact_keys(obj: Mapping, keys: set, what: str) -> None:
    _require(isinstance(obj, dict), f"{what} must be an object")
    extra = obj.keys() - keys
    missing = keys - obj.keys()
    _require(not extra, f"{what}: unexpected fields {sorted(extra)}")
    _require(not missing, f"{what}: missing fields {sorted(missing)}")


def _check_version_scheme(obj: Mapping, what: str) -> str:
    _require(obj["version"] == FORMAT_VERSION,
             f"{what}: unsupported version {obj['version']!r}")
    _require(obj["scheme"] in SCHEMES,
             f"{what}: unknown scheme {obj['scheme']!r}")
    return obj["scheme"]


# -- parameter files ---------------------------------------------------------

def param_file_obj(scheme: str, params: SchemeParams) -> dict:
    _require(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    seq, hier, owf = params.sequence, params.hierarchy, params.owf
    owf_obj = {"kind": owf.kind, "family_tag": owf.family_tag.hex()}
    if owf.kind == "hash_based":
        owf_obj["digest_name"] = owf.digest_name
    return {
        "version": FORMAT_VERSION,
        "scheme": scheme,
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
        "owf": owf_obj,
    }


def parse_param_file(obj: Mapping) -> tuple[str, SchemeParams]:
    _exact_keys(obj, {"version", "scheme", "sequence", "hierarchy", "owf"},
                "parameter file")
    scheme = _check_version_scheme(obj, "parameter file")
    seq_obj = obj["sequence"]
    _exact_keys(seq_obj, {"m0", "moduli", "k", "theta"}, "sequence")
    _require(isinstance(seq_obj["theta"], str),
             'sequence: theta is not a "p/q" string')
    m0 = _decimal(seq_obj["m0"], "sequence: m0")
    moduli = _decimals(seq_obj["moduli"], "sequence: moduli")
    # the ranges gen-params draws from, which the interval width needs
    k = _json_int(seq_obj["k"], "sequence: k")
    _require(k >= 1, "sequence: k is below 1")
    theta = Fraction(seq_obj["theta"])
    _require(0 < theta < 1, "sequence: theta is not in (0, 1)")
    sequence = CompactSequence(m0=m0, moduli=moduli, k=k, theta=theta)
    hier_obj = obj["hierarchy"]
    _exact_keys(hier_obj, {"level_sizes", "thresholds"}, "hierarchy")
    hierarchy = Hierarchy(
        level_sizes=_json_ints(hier_obj["level_sizes"], "hierarchy: level_sizes"),
        thresholds=_json_ints(hier_obj["thresholds"], "hierarchy: thresholds"),
    )
    owf_obj = obj["owf"]
    _require(isinstance(owf_obj, dict) and owf_obj.get("kind") in KINDS,
             "owf: unknown or missing kind")
    expected = {"kind", "family_tag"}
    if owf_obj["kind"] == "hash_based":
        expected.add("digest_name")
    _exact_keys(owf_obj, expected, "owf")
    owf = OwfFamily(
        kind=owf_obj["kind"],
        family_tag=bytes.fromhex(owf_obj["family_tag"]),
        digest_name=owf_obj.get("digest_name", "sha256"),
    )
    return scheme, SchemeParams(sequence=sequence, hierarchy=hierarchy, owf=owf)


def params_digest(scheme: str, params: SchemeParams) -> str:
    data = canonical_dumps(param_file_obj(scheme, params)).encode()
    return hashlib.sha256(data).hexdigest()


# -- share files -------------------------------------------------------------

def share_file_obj(scheme: str, share: Share, digest: str) -> dict:
    return {
        "version": FORMAT_VERSION,
        "scheme": scheme,
        "participant": share.participant,
        "level": share.level,
        "modulus": str(share.modulus),
        "value": str(share.value),
        "params_digest": digest,
    }


def parse_share_file(obj: Mapping) -> tuple[str, Share, str]:
    _exact_keys(
        obj,
        {"version", "scheme", "participant", "level", "modulus", "value",
         "params_digest"},
        "share file",
    )
    scheme = _check_version_scheme(obj, "share file")
    participant = _json_int(obj["participant"], "share file: participant")
    level = _json_int(obj["level"], "share file: level")
    modulus = _decimal(obj["modulus"], "share file: modulus")
    # errors name the participant, never the value
    value = _residue(obj["value"], modulus)
    _require(value is not None,
             f"share file: value of participant {participant} is not an "
             f"integer in [0, modulus)")
    share = Share(participant=participant, level=level, modulus=modulus, value=value)
    return scheme, share, obj["params_digest"]


# -- public bundle files -----------------------------------------------------

def bundle_file_obj(scheme: str, public: PublicBundle) -> dict:
    entries = [
        {"participant": i, "level": level, "value": str(v)}
        for (i, level), v in sorted(public.w.items())
    ]
    return {
        "version": FORMAT_VERSION,
        "scheme": scheme,
        "params": param_file_obj(scheme, public.params),
        "w": entries,
    }


def parse_bundle_file(obj: Mapping) -> tuple[str, PublicBundle]:
    _exact_keys(obj, {"version", "scheme", "params", "w"}, "bundle file")
    scheme = _check_version_scheme(obj, "bundle file")
    params_scheme, params = parse_param_file(obj["params"])
    _require(params_scheme == scheme,
             "bundle file: scheme differs from embedded parameters")
    # each key (i, l) has i below the top level and l from i's own level up;
    # errors name the key, never the value
    hier, moduli = params.hierarchy, params.sequence.moduli
    n_masked, m = hier.n_masked, hier.m
    w: dict[tuple[int, int], int] = {}
    for entry in obj["w"]:
        _exact_keys(entry, {"participant", "level", "value"}, "w entry")
        key = i, level = entry["participant"], entry["level"]
        _require(type(i) is int and type(level) is int,
                 "bundle file: a w entry's participant or level is not a JSON "
                 "integer")
        if not (1 <= i <= n_masked and hier.level_of(i) <= level <= m):
            raise ValueError(f"bundle file: unexpected w entry {key}")
        if key in w:
            raise ValueError(f"bundle file: duplicate w entry {key}")
        w[key] = _residue(entry["value"], moduli[i - 1])
        if w[key] is None:
            raise ValueError(f"bundle file: w entry {key} is not an integer "
                             f"in [0, m_{i})")
    return scheme, PublicBundle(params=params, w=w)
