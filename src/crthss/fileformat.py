"""Canonical JSON files for parameters, shares, and public bundles.

All big integers travel as decimal strings, theta as "p/q", byte tags as
lowercase hex; no floats anywhere. Serialization is canonical (sorted keys,
two-space indent, trailing newline) so files round-trip byte-identically and
the parameter digest is well defined: shares and bundles are bound together
by the SHA-256 of the canonical parameter document.
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
    sequence = CompactSequence(
        m0=int(seq_obj["m0"]),
        moduli=tuple(int(m) for m in seq_obj["moduli"]),
        k=int(seq_obj["k"]),
        theta=Fraction(seq_obj["theta"]),
    )
    hier_obj = obj["hierarchy"]
    _exact_keys(hier_obj, {"level_sizes", "thresholds"}, "hierarchy")
    hierarchy = Hierarchy(
        level_sizes=tuple(hier_obj["level_sizes"]),
        thresholds=tuple(hier_obj["thresholds"]),
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
    participant, modulus = int(obj["participant"]), int(obj["modulus"])
    # errors name the participant, never the value
    try:
        value = int(obj["value"])
    except (TypeError, ValueError):
        value = None
    _require(value is not None and 0 <= value < modulus,
             f"share file: value of participant {participant} is not an "
             f"integer in [0, modulus)")
    share = Share(
        participant=participant,
        level=int(obj["level"]),
        modulus=modulus,
        value=value,
    )
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
    w: dict[tuple[int, int], int] = {}
    for entry in obj["w"]:
        _exact_keys(entry, {"participant", "level", "value"}, "w entry")
        key = (int(entry["participant"]), int(entry["level"]))
        _require(key not in w, f"bundle file: duplicate w entry {key}")
        w[key] = int(entry["value"])
    return scheme, PublicBundle(params=params, w=w)
