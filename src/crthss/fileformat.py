"""Canonical JSON files for parameters, shares, and public bundles.

Big integers (m0, moduli, share and w values) travel as decimal strings and
small counts (participant, level, k, level sizes, thresholds) as JSON
integers; theta as "p/q", byte tags as lowercase hex; no floats anywhere.
Parsing is as strict as writing: any other JSON type is refused, a version
of true or 1.0 included. An object with the right fields passes their check
with one key-set comparison. Serialization is canonical (sorted keys,
two-space indent, trailing newline) so files round-trip byte-identically
and the parameter digest is well defined: shares and bundles are bound
together by the SHA-256 of the canonical parameter document.

The documents of a fixed shape are written from ``%`` format strings: a
share file (``share_file_text``, n of them per deal), the parameter file
(``param_file_text``, also hashed by every ``params_digest``), the bundle
(``bundle_file_text``: the parameter file's own text, indented by one
replace, and one row per w entry) and the audit report, single or ladder
(``audit_report_text``). Their keys are spelled in sorted order in
the format, and the strings that could need escaping go through json's own
quoting. Each document has that one spelling: ``param_file_obj`` is
``json.loads`` of the parameter text. Dealer secrets and whatever
``inspect`` echoes go through ``canonical_dumps``, which writes the bytes
``json.dumps(obj, sort_keys=True, indent=2)`` gives plus a newline for any
object: with an indent set the stdlib leaves its C encoder for a
generator-based pure-Python one that costs about twice as much per file.
The CLI reads files with ``os.read`` and parses them with ``json.loads``.

Every file carries its scheme label. The parameters hold it
(``SchemeParams.scheme``), so the parameter and bundle writers read it from
them and their parsers return it inside them; a ``Share`` holds none, so the
share file writer takes the label and its parser returns it beside the
share.

A bundle's parameters are read here but not validated again by
``reconstruct``: the checks that refuse shares no deal could give are the
share gate (``dhss.dedupe_shares``), the CRT solve's coprimality check, the
dealer bound and the residues of the surplus shares.
"""

import hashlib
import json
import re
from bisect import bisect_left
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from typing import AbstractSet, Mapping, Optional

from .dhss import PublicBundle, Share
from .params import SCHEMES, CompactSequence, Hierarchy, SchemeParams, check_compactness

FORMAT_VERSION = 1


def _float_text(value: float) -> str:
    """json's spelling of a float, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def _leaf_text(value) -> str | None:
    """json's text for any value but a non-empty container, which gives
    None; a type json cannot write raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (dict, list, tuple)):
        if value:
            return None
        return "{}" if isinstance(value, dict) else "[]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for str-keyed dicts, lists, tuples, str, int, float, bool and None; any
    other key or value raises TypeError.

    Containers are walked with an explicit stack, not by recursion, so any
    nesting ``json.loads`` accepts can be written back, and a container that
    holds itself raises ValueError as in json. A stack frame is one open
    container: (the container, an iterator over its items or sorted keys,
    whether it is a dict, its closing text, the separator between its
    items). One loop writes a frame's items until it meets a non-empty
    container, which becomes the next frame; the rest of the frame waits
    on the stack. So a container of scalars costs one frame, not one stack
    step per item.
    """
    text = _leaf_text(obj)
    if text is not None:
        return text + "\n"
    parts: list[str] = []
    append = parts.append
    stack: list[tuple] = []
    open_ids: set[int] = set()
    container, before, outer = obj, "", "\n"
    while True:
        # open a non-empty container, written after the text `before`
        if id(container) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(container))
        inner = outer + "  "
        if isinstance(container, dict):
            stack.append((container, iter(sorted(container)), True,
                          outer + "}", "," + inner))
            sep = before + "{" + inner
        else:
            stack.append((container, iter(container), False,
                          outer + "]", "," + inner))
            sep = before + "[" + inner
        # write the innermost frame's items up to the next non-empty
        # container, closing every frame that runs out of items on the way;
        # sep is None when a frame resumes after a container it held
        while stack:
            frame, items, keyed, close, comma = stack[-1]
            if sep is None:
                sep = comma
            for item in items:
                if keyed:
                    if not isinstance(item, str):
                        raise TypeError(f"keys must be str, not {type(item).__name__}")
                    before, value = sep + _quote(item) + ": ", frame[item]
                else:
                    before, value = sep, item
                sep = comma
                if (text := _leaf_text(value)) is None:
                    break
                append(before + text)
            else:
                stack.pop()
                open_ids.remove(id(frame))
                append(close)
                sep = None
                continue
            container, outer = value, comma[1:]
            break
        else:
            append("\n")
            return "".join(parts)


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
    message = f"{name} holds a string that is not a decimal"
    _require(not texts or (all(texts) and joined.isascii()
                           and joined.encode().isdigit()), message)
    try:
        return tuple(map(int, texts))
    except ValueError:  # beyond the interpreter's integer-string digit limit
        raise ValueError(message) from None


# "p/q" or "p" in ASCII digits; Fraction(str) would also read "0.5", " 1/2",
# "1_0/20" and non-ASCII digits
_THETA = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_THETA_ERROR = 'sequence: theta is not a "p/q" string'


def _theta(text) -> Fraction:
    match = _THETA.fullmatch(text) if isinstance(text, str) else None
    _require(match is not None, _THETA_ERROR)
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError):  # q = 0, or past the digit limit
        raise ValueError(_THETA_ERROR) from None


def _json_int(value, name: str) -> int:
    _require(type(value) is int, f"{name} is not a JSON integer")
    return value


def _json_ints(values, name: str) -> tuple[int, ...]:
    _require(isinstance(values, list) and all(type(v) is int for v in values),
             f"{name} is not a list of JSON integers")
    return tuple(values)


def _exact_keys(obj: Mapping, keys: AbstractSet[str], what: str) -> None:
    """Refuse anything but a dict with exactly ``keys``. A dict that has
    them, as every file this tool writes does, costs one set comparison;
    only a mismatch works out the extra and the missing fields, and names
    the extra ones first."""
    if type(obj) is dict and obj.keys() == keys:
        return
    _require(isinstance(obj, dict), f"{what} must be an object")
    extra = obj.keys() - keys
    missing = keys - obj.keys()
    _require(not extra, f"{what}: unexpected fields {sorted(extra)}")
    _require(not missing, f"{what}: missing fields {sorted(missing)}")


def _check_version_scheme(obj: Mapping, what: str) -> str:
    # a JSON integer: true and 1.0 are equal to 1 but are not the format's 1
    version, scheme = obj["version"], obj["scheme"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{what}: unsupported version {version!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"{what}: unknown scheme {scheme!r}")
    return scheme


# -- parameter files ---------------------------------------------------------

def lowercase_hex(text) -> bytes | None:
    """The bytes text spells in the one hex form ``bytes.hex`` writes, else
    None: fromhex alone also takes upper case and spaces."""
    try:
        value = bytes.fromhex(text)
    except (TypeError, ValueError):
        return None
    return value if value.hex() == text else None


def _list_text(items: list[str], indent: str) -> str:
    """A JSON list of item texts whose opening bracket sits after a key at
    ``indent``: one item per line, two spaces deeper."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# a parameter file's canonical bytes, its keys in sorted order; no string
# needs escaping: the scheme is one of SCHEMES, the tag hex, the rest digits
_PARAM_FILE = (
    '{\n  "hierarchy": {\n    "level_sizes": %s,\n    "thresholds": %s\n  },\n'
    '  "owf": {\n    "digest_name": "sha256",\n    "family_tag": "%s",\n'
    '    "kind": "hash_based"\n  },\n  "scheme": "%s",\n  "sequence": {\n'
    '    "k": %d,\n    "m0": "%d",\n    "moduli": %s,\n    "theta": "%d/%d"\n'
    '  },\n  "version": %d\n}\n'
)


def _param_text(scheme: str, params: SchemeParams) -> str:
    """The parameter document of ``params`` labelled ``scheme``."""
    _require(scheme in SCHEMES, f"unknown scheme {scheme!r}")
    seq, hier = params.sequence, params.hierarchy
    return _PARAM_FILE % (
        _list_text(list(map(int.__repr__, hier.level_sizes)), "    "),
        _list_text(list(map(int.__repr__, hier.thresholds)), "    "),
        params.family_tag.hex(), scheme, seq.k, seq.m0,
        _list_text(['"%d"' % m for m in seq.moduli], "    "),
        seq.theta.numerator, seq.theta.denominator, FORMAT_VERSION,
    )


def param_file_text(params: SchemeParams) -> str:
    """The parameter file of ``params``, labelled with its own scheme."""
    return _param_text(params.scheme, params)


def param_file_obj(scheme: str, params: SchemeParams) -> dict:
    """The parameter document of ``params`` labelled ``scheme``, which may
    differ from ``params.scheme``: it is the label the file carries."""
    return json.loads(_param_text(scheme, params))


def parse_param_file(obj: Mapping) -> SchemeParams:
    """Read a parameter file, or a bundle's parameters, with the scheme it
    names. The owf is exactly {kind, family_tag, digest_name}, kind
    hash_based and digest_name sha256, the one family there is: the audit is
    exact only for a one-way h. family_tag is read by ``lowercase_hex``, so
    the digest of a canonical file is the SHA-256 of its bytes."""
    _exact_keys(obj, {"version", "scheme", "sequence", "hierarchy", "owf"},
                "parameter file")
    scheme = _check_version_scheme(obj, "parameter file")
    seq_obj = obj["sequence"]
    _exact_keys(seq_obj, {"m0", "moduli", "k", "theta"}, "sequence")
    theta = _theta(seq_obj["theta"])
    m0 = _decimal(seq_obj["m0"], "sequence: m0")
    moduli = _decimals(seq_obj["moduli"], "sequence: moduli")
    # the ranges gen-params draws from, which the interval width needs
    k = _json_int(seq_obj["k"], "sequence: k")
    check_compactness(k, theta)
    sequence = CompactSequence(m0=m0, moduli=moduli, k=k, theta=theta)
    hier_obj = obj["hierarchy"]
    _exact_keys(hier_obj, {"level_sizes", "thresholds"}, "hierarchy")
    hierarchy = Hierarchy(
        level_sizes=_json_ints(hier_obj["level_sizes"], "hierarchy: level_sizes"),
        thresholds=_json_ints(hier_obj["thresholds"], "hierarchy: thresholds"),
    )
    owf_obj = obj["owf"]
    _require(isinstance(owf_obj, dict) and owf_obj.get("kind") == "hash_based",
             "owf: kind is not hash_based")
    _exact_keys(owf_obj, {"kind", "family_tag", "digest_name"}, "owf")
    family_tag = lowercase_hex(owf_obj["family_tag"])
    _require(family_tag is not None, "owf: family_tag is not lowercase hex")
    _require(owf_obj["digest_name"] == "sha256", "owf: digest_name is not sha256")
    return SchemeParams(sequence, hierarchy, family_tag, scheme)


def params_digest(params: SchemeParams, param_text: Optional[str] = None) -> str:
    """The SHA-256 of the parameter file, in hex. ``param_text`` is that
    file's text, when the caller has written it already."""
    if param_text is None:
        param_text = param_file_text(params)
    return hashlib.sha256(param_text.encode()).hexdigest()


# -- audit reports -----------------------------------------------------------

# an audit report's canonical bytes, its keys in sorted order, with the m0
# line a ladder rung adds; each row of a table is one format string too
_AUDIT_REPORT = (
    '{\n  "adversary": %s,\n  "conditional_entropy_bits": %s,\n'
    '  "decomposition_ok": %s,\n  "epsilon_tolerance": %s,\n'
    '  "eta_table": %s,\n  "gamma_total": %d,\n  "groups": %s,\n'
    '  "loss_bits": %s,\n%s  "params_digest": %s,\n  "ratio_table": %s,\n'
    '  "rho": %s,\n  "scheme": %s,\n  "secret_entropy_bits": %s,\n'
    '  "total_candidates": %s\n}'
)
_ETA_ROW = ('{\n      "adversary_modulus": %s,\n      "floor": %s,\n'
            '      "level": %d,\n      "range_bound": %s\n    }')
_GROUP_ROW = '{\n      "candidates": %s,\n      "num_secrets": %d\n    }'
_RATIO_ROW = '{\n      "level": %d,\n      "ratio": %s,\n      "value": %s\n    }'
_LADDER = ('{\n  "delta_trend": %s,\n  "ladder": %s,\n'
           '  "strictly_decreasing": %s\n}\n')


def _audit_text(report: Mapping) -> str:
    """One audit report, or one ladder rung, at the outermost indent and
    without the final newline."""
    m0 = report.get("m0")
    return _AUDIT_REPORT % (
        _list_text(list(map(int.__repr__, report["adversary"])), "  "),
        _leaf_text(report["conditional_entropy_bits"]),
        _leaf_text(report["decomposition_ok"]),
        _leaf_text(report["epsilon_tolerance"]),
        _list_text([_ETA_ROW % (_quote(row["adversary_modulus"]),
                                _quote(row["floor"]), row["level"],
                                _quote(row["range_bound"]))
                    for row in report["eta_table"]], "  "),
        report["gamma_total"],
        _list_text([_GROUP_ROW % (_quote(group["candidates"]),
                                  group["num_secrets"])
                    for group in report["groups"]], "  "),
        _leaf_text(report["loss_bits"]),
        "" if m0 is None else '  "m0": %s,\n' % _quote(m0),
        _quote(report["params_digest"]),
        _list_text([_RATIO_ROW % (row["level"], _leaf_text(row["ratio"]),
                                  _leaf_text(row["value"]))
                    for row in report["ratio_table"]], "  "),
        _leaf_text(report["rho"]),
        _quote(report["scheme"]),
        _leaf_text(report["secret_entropy_bits"]),
        _quote(report["total_candidates"]),
    )


def audit_report_text(report: Mapping) -> str:
    """The bytes ``canonical_dumps`` gives for an audit report the CLI
    builds, from format strings: a single report, or a ladder of them, each
    rung carrying its ``m0``. No string of a report holds a raw newline
    (json escapes it), so a rung is indented into the ladder by one
    replace."""
    if "ladder" not in report:
        return _audit_text(report) + "\n"
    rungs = [_audit_text(rung).replace("\n", "\n    ") for rung in report["ladder"]]
    return _LADDER % (
        _list_text([_leaf_text(delta) for delta in report["delta_trend"]], "  "),
        _list_text(rungs, "  "),
        _leaf_text(report["strictly_decreasing"]),
    )


# -- share files -------------------------------------------------------------

# a share file's canonical bytes, its keys in sorted order; no field needs
# escaping: the scheme is one of SCHEMES, the digest hex, the rest integers
_SHARE_FILE = (
    '{\n  "level": %d,\n  "modulus": "%d",\n  "params_digest": "%s",\n'
    '  "participant": %d,\n  "scheme": "%s",\n  "value": "%d",\n'
    '  "version": %d\n}\n'
)
_SHARE_KEYS = frozenset({"version", "scheme", "participant", "level",
                         "modulus", "value", "params_digest"})


def share_file_text(scheme: str, share: Share, digest: str) -> str:
    """The share file of ``share``: the bytes ``canonical_dumps`` gives for
    its object, from one format string. ``digest`` is hex, as
    ``params_digest`` gives it."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _SHARE_FILE % (share.level, share.modulus, digest, share.participant,
                          scheme, share.value, FORMAT_VERSION)


def parse_share_file(obj: Mapping) -> tuple[str, Share, str]:
    """The scheme label, the share and the parameter digest a share file
    holds. A reconstruct reads one per share, so each check is made here,
    inline: a helper is called only to word a failing check. The modulus
    and the value are read as ``_digits`` reads a text; errors name the
    participant, never the value."""
    if type(obj) is not dict or obj.keys() != _SHARE_KEYS:
        _exact_keys(obj, _SHARE_KEYS, "share file")
    version, scheme = obj["version"], obj["scheme"]
    if type(version) is not int or version != FORMAT_VERSION or scheme not in SCHEMES:
        _check_version_scheme(obj, "share file")
    participant, level = obj["participant"], obj["level"]
    if type(participant) is not int:
        raise ValueError("share file: participant is not a JSON integer")
    if type(level) is not int:
        raise ValueError("share file: level is not a JSON integer")
    modulus_text, value_text = obj["modulus"], obj["value"]
    modulus = value = -1
    try:
        if (type(modulus_text) is str and modulus_text.isascii()
                and modulus_text.encode().isdigit()):
            modulus = int(modulus_text)
        if (type(value_text) is str and value_text.isascii()
                and value_text.encode().isdigit()):
            value = int(value_text)
    except ValueError:  # beyond the interpreter's integer-string digit limit
        pass
    if modulus < 0:
        raise ValueError("share file: modulus is not a decimal string")
    if not 0 <= value < modulus:
        raise ValueError(f"share file: value of participant {participant} is "
                         f"not an integer in [0, modulus)")
    return scheme, Share(participant, level, modulus, value), obj["params_digest"]


# -- public bundle files -----------------------------------------------------

# a bundle's canonical bytes, its keys in sorted order, and one row per w
# entry; the parameters are the parameter file's own text, indented by one
# replace, and no other field needs escaping
_BUNDLE_FILE = '{\n  "params": %s,\n  "scheme": "%s",\n  "version": %d,\n  "w": %s\n}\n'
_W_ENTRY = ('{\n      "level": %d,\n      "participant": %d,\n'
            '      "value": "%d"\n    }')


def bundle_file_text(public: PublicBundle, param_text: Optional[str] = None) -> str:
    """The bundle file of ``public``, from format strings around the text of
    its parameter file, with its w entries in (participant, level) order.
    ``param_text`` is that text, when the caller has written it already."""
    params = public.params
    if param_text is None:
        param_text = param_file_text(params)
    return _BUNDLE_FILE % (
        param_text[:-1].replace("\n", "\n  "),
        params.scheme, FORMAT_VERSION,
        _list_text([_W_ENTRY % (level, i, value)
                    for (i, level), value in sorted(public.w.items())], "  "),
    )


_BUNDLE_KEYS = frozenset({"version", "scheme", "params", "w"})
_W_ENTRY_KEYS = frozenset({"participant", "level", "value"})


def parse_bundle_file(obj: Mapping) -> PublicBundle:
    _exact_keys(obj, _BUNDLE_KEYS, "bundle file")
    scheme = _check_version_scheme(obj, "bundle file")
    params = parse_param_file(obj["params"])
    _require(params.scheme == scheme,
             "bundle file: scheme differs from embedded parameters")
    # each key (i, l) has i below the top level and l from i's own level up,
    # bisect_left(cumulative, i) + 1; each entry is checked inline, as a
    # share file is, and errors name the key, never the value
    hier, moduli = params.hierarchy, params.sequence.moduli
    n_masked, m, cumulative = hier.n_masked, hier.m, hier.cumulative
    w: dict[tuple[int, int], int] = {}
    for entry in obj["w"]:
        if type(entry) is not dict or entry.keys() != _W_ENTRY_KEYS:
            _exact_keys(entry, _W_ENTRY_KEYS, "w entry")
        key = i, level = entry["participant"], entry["level"]
        if type(i) is not int or type(level) is not int:
            raise ValueError("bundle file: a w entry's participant or level "
                             "is not a JSON integer")
        if not (1 <= i <= n_masked and bisect_left(cumulative, i) < level <= m):
            raise ValueError(f"bundle file: unexpected w entry {key}")
        if key in w:
            raise ValueError(f"bundle file: duplicate w entry {key}")
        modulus, text, value = moduli[i - 1], entry["value"], -1
        try:
            if type(text) is str and text.isascii() and text.encode().isdigit():
                value = int(text)
        except ValueError:  # beyond the interpreter's integer-string digit limit
            pass
        if not 0 <= value < modulus:
            raise ValueError(f"bundle file: w entry {key} is not an integer "
                             f"in [0, m_{i})")
        w[key] = value
    return PublicBundle(params=params, w=w)
