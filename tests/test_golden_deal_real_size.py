"""Golden deal outputs at real size: 256-bit m0 and n = 200.

The 9-share golden vectors of test_golden_deal.py build only small product
trees. These deals split 200 moduli into levels of 10, 50 and 200 leaves
(odd-sized trees with carried nodes), so one SHA-256 per scheme over every
file `crthss deal` writes, in sorted order, pins the per-level reductions of
the lifts at the sizes the share path is tuned for. Each deal must also
reconstruct from all 200 of its shares.
"""

import hashlib
from fractions import Fraction

import pytest

from crthss import Hierarchy, SchemeParams, generate_compact_sequence
from crthss.cli import main
from crthss.fileformat import canonical_dumps, param_file_obj

M0 = 2**256 - 189  # the largest 256-bit prime
SECRET = 3**161 % M0
SHAPES = {
    "dhss": (Hierarchy((10, 40, 150), (5, 20, 60)), 21),
    "chss": (Hierarchy((10, 40, 150), (5, 20, 60)), 22),
    "ab": (Hierarchy((200,), (100,)), 23),
}

# recorded before the per-level reductions moved onto a remainder tree
GOLDEN = {
    "dhss": "6007f945bcc187db554b1deb0502bbf9ca49d591e8c5aef745d51a4fb134ab7b",
    "chss": "084ef418312ebff2afff948d9f2f480dbbe7b73aa895068f24773deff7930c73",
    "ab": "29902d5180bdae9cd1a61fb7de63251f7f76cb9570b35c6c346573519a744d0a",
}


@pytest.fixture(scope="module")
def sequence():
    return generate_compact_sequence(M0, 200, 1, Fraction(1, 2), 4)


@pytest.mark.parametrize("scheme", sorted(SHAPES))
def test_real_size_deal_matches_golden_digest(tmp_path, capsys, sequence, scheme):
    hierarchy, seed = SHAPES[scheme]
    params = SchemeParams(sequence=sequence, hierarchy=hierarchy)
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    out_dir = tmp_path / "deal"
    assert main([
        "deal", "--params", str(param_path), "--secret", str(SECRET),
        "--seed", str(seed), "--out-dir", str(out_dir),
    ]) == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 201
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN[scheme]

    capsys.readouterr()
    shares = [str(path) for path in files if path.name.startswith("share_")]
    assert main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", *shares,
    ]) == 0
    assert capsys.readouterr().out == f"{SECRET}\n"
