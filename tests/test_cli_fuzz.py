"""Fuzzed share and bundle files through ``crthss reconstruct``.

One seeded deal per scheme on 64-bit parameters, so every share value and
published offset is a distinctive 19- or 20-digit number. Hypothesis picks
the share files to submit and applies up to three mutations to them or to
the bundle: a node deleted, replaced by a value of another JSON type, or a
decimal string shifted by a small amount or a multiple of a modulus. Every
run must end in one of reconstruct's documented exit codes with no
traceback, and stderr must never contain a share value or a ``w`` value,
dealt or mutated. The OWF of the embedded parameters is mutated by hand:
only hash_based is read.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crthss import CompactSequence, Hierarchy, SchemeParams, deal
from crthss.cli import main
from crthss.fileformat import (
    bundle_file_text,
    canonical_dumps,
    params_digest,
    share_file_text,
)

M0 = 2**64 - 59  # the largest 64-bit prime


def _coprime_run(n):
    """The first n integers above M0 coprime to M0 and to each other."""
    moduli, c = [], M0
    while len(moduli) < n:
        c += 1
        if gcd(c, M0 * prod(moduli)) == 1:
            moduli.append(c)
    return tuple(moduli)


SEQUENCE = CompactSequence(m0=M0, moduli=_coprime_run(5))
TIERED = SchemeParams(SEQUENCE, Hierarchy((2, 3), (2, 3)))
FLAT = SchemeParams(SEQUENCE, Hierarchy((5,), (3,)), scheme="ab")
SECRET = 12345678901234567890
# reconstruct's exit codes: ok, validation, not authorized, digest
# mismatch, missing published value
EXIT_CODES = {0, 2, 4, 5, 6}


def _files(params):
    digest = params_digest(params)
    result = deal(SECRET, params, 5)
    return {
        "bundle": json.loads(bundle_file_text(result.public)),
        "shares": [json.loads(share_file_text(params.scheme, s, digest))
                   for s in result.shares],
    }


DEALT = {
    "dhss": _files(TIERED),
    "chss": _files(replace(TIERED, scheme="chss")),
    "ab": _files(FLAT),
}
SECRET_VALUES = {
    e["value"]
    for files in DEALT.values()
    for e in files["bundle"]["w"] + files["shares"]
}

OTHER_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def _nodes(doc, path=()):
    """Paths to every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _nodes(child, path + (key,))


@st.composite
def mutation(draw, doc, written):
    """Mutate ``doc`` in place at one node; record what lands in a value.
    Half the draws shift a share value or a published offset."""
    paths = list(_nodes(doc))
    values = [path for path in paths if path[-1] == "value"]
    if values and draw(st.booleans()):
        path, kind = draw(st.sampled_from(values)), "shift"
    else:
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(["delete", "replace", "shift"]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if kind == "delete":
        del parent[key]
        return
    if kind == "shift" and isinstance(old, str) and old.lstrip("-").isdigit():
        step = draw(st.sampled_from([1, *SEQUENCE.moduli]))
        new = str(int(old) + step * draw(st.sampled_from([-5, -1, 1, 2, 5])))
    else:
        new = draw(OTHER_JSON)
    parent[key] = new
    if key == "value":
        written.add(str(new))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_reconstruct_survives_mutated_files(data):
    scheme = data.draw(st.sampled_from(sorted(DEALT)), label="scheme")
    files = json.loads(json.dumps(DEALT[scheme]))
    n = len(files["shares"])
    chosen = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1),
                       label="shares")
    docs = [files["bundle"]] + [files["shares"][i] for i in sorted(set(chosen))]
    written = set()
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        doc = data.draw(st.sampled_from(docs), label="target")
        if isinstance(doc, dict) and doc:
            data.draw(mutation(doc, written))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "public_bundle.json"
        bundle.write_text(canonical_dumps(files["bundle"]))
        paths = []
        for i in chosen:
            paths.append(str(Path(tmp) / f"share_{i}.json"))
            Path(paths[-1]).write_text(canonical_dumps(files["shares"][i]))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--public", str(bundle), "--shares", *paths])
    assert code in EXIT_CODES
    assert (code == 0) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()
    forbidden = {v for v in SECRET_VALUES | written if len(v.lstrip("-")) >= 10}
    assert not [v for v in forbidden if v in err.getvalue()]


@pytest.mark.parametrize("mutate", [
    lambda owf: owf.update(kind="test_affine"),
    lambda owf: owf.pop("digest_name"),
    lambda owf: owf.pop("kind"),
    lambda owf: owf.update(family_tag="AB"),
], ids=["kind-test_affine", "digest_name-removed", "kind-missing",
        "family_tag-upper-case"])
@pytest.mark.parametrize("scheme", sorted(DEALT))
def test_reconstruct_refuses_a_mutated_owf(tmp_path, capsys, scheme, mutate):
    files = json.loads(json.dumps(DEALT[scheme]))
    mutate(files["bundle"]["params"]["owf"])
    bundle = tmp_path / "public_bundle.json"
    bundle.write_text(canonical_dumps(files["bundle"]))
    paths = []
    for i, share in enumerate(files["shares"]):
        paths.append(str(tmp_path / f"share_{i}.json"))
        Path(paths[-1]).write_text(canonical_dumps(share))
    assert main(["reconstruct", "--public", str(bundle), "--shares", *paths]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read bundle: owf: ")
    assert not [v for v in SECRET_VALUES if v in err]
