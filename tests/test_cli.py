"""End-to-end CLI behavior: exit codes, file outputs, worked vectors."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import crthss

from conftest import CHSS_SEED, DHSS_SEED
from crthss import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    generate_compact_sequence,
)
from crthss.cli import main
from crthss.fileformat import canonical_dumps, param_file_obj


@pytest.fixture
def micro_param_file(tmp_path, micro_params):
    path = tmp_path / "micro.json"
    path.write_text(canonical_dumps(param_file_obj("dhss", micro_params)))
    return path


def read(path):
    return json.loads(path.read_text())


def test_gen_params_ok(tmp_path, capsys):
    out = tmp_path / "params.json"
    code = main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
        "--k", "1", "--theta", "1/2", "--owf", "test_affine",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "information rate" in printed
    assert "Asmuth-Bloom inequality holds at level 2" in printed
    obj = read(out)
    assert obj["sequence"]["m0"] == "97"
    assert len(obj["sequence"]["moduli"]) == 3
    # deterministic regeneration
    out2 = tmp_path / "params2.json"
    main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
        "--k", "1", "--theta", "1/2", "--owf", "test_affine",
        "--seed", "7", "--out", str(out2),
    ])
    assert out.read_text() == out2.read_text()


def test_gen_params_validation_failures(tmp_path, capsys):
    code = main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "2,2",
        "--owf", "test_affine", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "increasing" in capsys.readouterr().err

    code = main([
        "gen-params", "--m0", "11", "--levels", "3,3", "--thresholds", "1,2",
        "--owf", "test_affine", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "interval" in capsys.readouterr().err.lower()

    code = main([
        "gen-params", "--m0", "10", "--levels", "1", "--thresholds", "1",
        "--owf", "test_affine", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2


def test_gen_params_composite_m0(tmp_path, capsys):
    code = main([
        "gen-params", "--m0", "15", "--levels", "1,2", "--thresholds", "1,2",
        "--owf", "test_affine", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: m0 = 15 is not prime\n"


def test_deal_and_reconstruct_dhss(tmp_path, micro_param_file, capsys):
    out_dir = tmp_path / "deal"
    code = main([
        "deal", "--params", str(micro_param_file), "--secret", "4",
        "--seed", str(DHSS_SEED), "--out-dir", str(out_dir),
        "--emit-dealer-secrets",
    ])
    assert code == 0
    shares = {i: read(out_dir / f"share_{i:03d}.json") for i in (1, 2, 3)}
    assert [shares[i]["value"] for i in (1, 2, 3)] == ["9", "9", "6"]
    bundle = read(out_dir / "public_bundle.json")
    w = {(e["participant"], e["level"]): e["value"] for e in bundle["w"]}
    assert w == {(1, 1): "9", (1, 2): "1"}
    secrets = read(out_dir / "dealer_secrets.json")
    assert secrets["values"]["y"] == ["4", "74"]
    capsys.readouterr()

    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_001.json"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"

    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_002.json"), str(out_dir / "share_003.json"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"

    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_002.json"),
    ])
    assert code == 4
    assert "failing level" in capsys.readouterr().err


def test_deal_and_reconstruct_chss(tmp_path, micro_param_file, capsys):
    out_dir = tmp_path / "deal"
    code = main([
        "deal", "--params", str(micro_param_file), "--secret", "4",
        "--scheme", "chss", "--seed", str(CHSS_SEED), "--out-dir", str(out_dir),
    ])
    assert code == 0
    shares = {i: read(out_dir / f"share_{i:03d}.json") for i in (1, 2, 3)}
    assert [shares[i]["value"] for i in (1, 2, 3)] == ["5", "0", "14"]
    assert all(s["scheme"] == "chss" for s in shares.values())
    capsys.readouterr()

    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_001.json"), str(out_dir / "share_002.json"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"

    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_002.json"), str(out_dir / "share_003.json"),
    ])
    assert code == 4
    assert "[1]" in capsys.readouterr().err  # level 1 named


def test_deal_secret_out_of_range(tmp_path, micro_param_file, capsys):
    code = main([
        "deal", "--params", str(micro_param_file), "--secret", "7",
        "--seed", "1", "--out-dir", str(tmp_path / "d"),
    ])
    assert code == 2

    code = main([
        "deal", "--params", str(micro_param_file), "--secret", "97",
        "--seed", "1", "--out-dir", str(tmp_path / "d"),
    ])
    assert code == 2


def test_deal_invalid_params(tmp_path, micro_params, capsys):
    obj = param_file_obj("dhss", micro_params)
    obj["hierarchy"]["thresholds"] = [2, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(obj))
    code = main([
        "deal", "--params", str(bad), "--secret", "1", "--seed", "1",
        "--out-dir", str(tmp_path / "d"),
    ])
    assert code == 3


def test_digest_mismatch(tmp_path, micro_param_file, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    main(["deal", "--params", str(micro_param_file), "--secret", "4",
          "--seed", str(DHSS_SEED), "--out-dir", str(dir_a)])
    main(["deal", "--params", str(micro_param_file), "--secret", "4",
          "--scheme", "chss", "--seed", "9", "--out-dir", str(dir_b)])
    code = main([
        "reconstruct", "--public", str(dir_a / "public_bundle.json"),
        "--shares", str(dir_b / "share_001.json"),
    ])
    assert code == 5


def test_missing_public_value(tmp_path, micro_param_file, capsys):
    out_dir = tmp_path / "deal"
    main(["deal", "--params", str(micro_param_file), "--secret", "4",
          "--seed", str(DHSS_SEED), "--out-dir", str(out_dir)])
    bundle = read(out_dir / "public_bundle.json")
    bundle["w"] = []
    (out_dir / "public_bundle.json").write_text(canonical_dumps(bundle))
    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_001.json"),
    ])
    assert code == 6


def test_flat_scheme_via_cli(tmp_path, micro_params, capsys):
    obj = param_file_obj("ab", SchemeParamsFlat(micro_params))
    path = tmp_path / "flat.json"
    path.write_text(canonical_dumps(obj))
    out_dir = tmp_path / "deal"
    code = main([
        "deal", "--params", str(path), "--secret", "3", "--seed", "5",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    capsys.readouterr()
    code = main([
        "reconstruct", "--public", str(out_dir / "public_bundle.json"),
        "--shares", str(out_dir / "share_001.json"), str(out_dir / "share_003.json"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def SchemeParamsFlat(micro_params):
    from crthss.params import Hierarchy, SchemeParams
    return SchemeParams(
        sequence=micro_params.sequence,
        hierarchy=Hierarchy((3,), (2,)),
        owf=micro_params.owf,
    )


@pytest.mark.parametrize("scheme, victim, field, corrupt, partner", [
    ("dhss", "share_001.json", "participant", lambda share: 99, "share_002.json"),
    ("dhss", "share_001.json", "value", lambda share: str(int(share["value"]) + 1),
     "share_001.json"),
    ("ab", "share_001.json", "value", lambda share: share["modulus"], "share_002.json"),
    ("ab", "share_001.json", "participant", lambda share: 99, "share_002.json"),
    # participant 2 holds a raw top-level residue; value + m_2 is not reduced
    ("dhss", "share_002.json", "value",
     lambda share: str(int(share["value"]) + int(share["modulus"])), "share_003.json"),
], ids=["dhss-participant-99", "dhss-conflicting-values",
        "ab-value-at-modulus", "ab-participant-99", "dhss-top-level-value-plus-modulus"])
def test_reconstruct_malformed_shares_exit_2(tmp_path, micro_params, flat_params,
                                             scheme, victim, field, corrupt, partner):
    params = flat_params if scheme == "ab" else micro_params
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", "4",
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    share = read(out_dir / victim)
    share[field] = corrupt(share)
    bad = tmp_path / "bad_share.json"
    bad.write_text(canonical_dumps(share))
    shares = [str(bad), str(out_dir / partner)]
    env = {**os.environ, "PYTHONPATH": str(Path(crthss.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "crthss.cli", "reconstruct",
         "--public", str(out_dir / "public_bundle.json"), "--shares", *shares],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_reconstruct_chss_share_off_by_one_exit_2(tmp_path):
    hierarchy = Hierarchy((2, 3), (2, 3))
    sequence = generate_compact_sequence(1000003, hierarchy.n, 1, Fraction(1, 2), 0)
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(
        "chss", SchemeParams(sequence=sequence, hierarchy=hierarchy))))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", "424242",
                 "--seed", "3", "--out-dir", str(out_dir)]) == 0
    share = read(out_dir / "share_004.json")
    share["value"] = str((int(share["value"]) + 1) % int(share["modulus"]))
    (out_dir / "share_004.json").write_text(canonical_dumps(share))
    env = {**os.environ, "PYTHONPATH": str(Path(crthss.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "crthss.cli", "reconstruct",
         "--public", str(out_dir / "public_bundle.json"),
         "--shares", *sorted(str(p) for p in out_dir.glob("share_*"))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: level 2 ")
    assert "Traceback" not in proc.stderr
    assert "424242" not in proc.stdout + proc.stderr


# a 61-bit ladder: the first nine integers above m0 = 2^61 - 1 that are
# pairwise coprime (and coprime to m0)
M0_61 = 2**61 - 1
MODULI_61 = tuple(M0_61 + d for d in (1, 2, 4, 6, 10, 12, 16, 18, 22))
SECRET_61 = 1234567890123456789


def _bump(share, amount):
    return {**share, "value": str(int(share["value"]) + amount)}


# scheme, hierarchy, a function of the dealt shares (by participant) giving
# the share objects to reconstruct from, and the expected exit code
LEAK_CASES = {
    "dhss-top-level-value-plus-modulus": (
        "dhss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [s[1], s[2], _bump(s[6], int(s[6]["modulus"]))], 2),
    "dhss-masked-value-plus-modulus": (
        "dhss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [_bump(s[1], int(s[1]["modulus"])), s[2]], 2),
    "dhss-value-not-an-integer": (
        "dhss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [{**s[1], "value": s[1]["value"] + "x"}, s[2]], 2),
    "dhss-conflicting-values": (
        "dhss", ((2, 3, 4), (2, 3, 5)), lambda s: [s[1], s[2], _bump(s[2], 1)], 2),
    "dhss-redundant-share-off-by-one": (
        "dhss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [s[1], _bump(s[3], 1), s[4], s[5]], 2),
    "dhss-wrong-modulus": (
        "dhss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [s[1], {**s[2], "modulus": s[3]["modulus"]}], 2),
    "dhss-wrong-level": (
        "dhss", ((2, 3, 4), (2, 3, 5)), lambda s: [s[1], {**s[2], "level": 3}], 2),
    "dhss-participant-99": (
        "dhss", ((2, 3, 4), (2, 3, 5)), lambda s: [s[1], {**s[2], "participant": 99}], 2),
    "dhss-not-authorized": (
        "dhss", ((2, 3, 4), (2, 3, 5)), lambda s: [s[1], s[3]], 4),
    "chss-share-off-by-one": (
        "chss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [_bump(s[i], 1) if i == 7 else s[i] for i in s], 2),
    "chss-top-level-value-plus-modulus": (
        "chss", ((2, 3, 4), (2, 3, 5)),
        lambda s: [_bump(s[i], int(s[i]["modulus"])) if i == 9 else s[i] for i in s], 2),
    "ab-share-off-by-one": (
        "ab", ((5,), (3,)), lambda s: [_bump(s[i], 1) if i == 2 else s[i] for i in s], 2),
    "ab-conflicting-values": (
        "ab", ((5,), (3,)), lambda s: [s[1], s[2], s[3], _bump(s[3], 1)], 2),
    "ab-value-plus-modulus": (
        "ab", ((5,), (3,)), lambda s: [s[1], s[2], _bump(s[3], int(s[3]["modulus"]))], 2),
    "ab-wrong-modulus": (
        "ab", ((5,), (3,)),
        lambda s: [s[1], s[2], {**s[3], "modulus": str(int(s[3]["modulus"]) * 7)}], 2),
    "ab-wrong-level": (
        "ab", ((5,), (3,)), lambda s: [s[1], s[2], {**s[3], "level": 9}], 2),
}


@pytest.mark.parametrize("case", sorted(LEAK_CASES))
def test_reconstruct_errors_never_print_values(tmp_path, capsys, case):
    """Every refused reconstruct names participants and levels only: no
    supplied share value, no dealer lift y and no secret reaches the output."""
    scheme, (sizes, thresholds), pick, expected = LEAK_CASES[case]
    hierarchy = Hierarchy(sizes, thresholds)
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:hierarchy.n]),
        hierarchy=hierarchy,
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", str(SECRET_61),
                 "--seed", "5", "--out-dir", str(out_dir),
                 "--emit-dealer-secrets"]) == 0
    dealt = {
        i: read(out_dir / f"share_{i:03d}.json") for i in range(1, hierarchy.n + 1)
    }
    supplied = pick(dealt)
    paths = []
    for k, share in enumerate(supplied):
        paths.append(str(tmp_path / f"supplied_{k}.json"))
        Path(paths[-1]).write_text(canonical_dumps(share))
    capsys.readouterr()
    code = main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                 "--shares", *paths])
    out, err = capsys.readouterr()
    assert code == expected
    assert out == "" and err.startswith("error: ")
    forbidden = {str(SECRET_61)}
    forbidden |= set(read(out_dir / "dealer_secrets.json")["values"]["y"])
    forbidden |= {s["value"] for s in [*dealt.values(), *supplied]}
    assert not [value for value in forbidden if value in err]
    # nor any value derived from them: the only long numbers are public moduli
    assert set(re.findall(r"\d{19,}", err)) <= {str(m) for m in MODULI_61}


def test_reconstruct_ab_worst_case_set_exit_2(tmp_path, capsys):
    """A flat set one share short exits 2 naming the threshold (the
    benchmark's lifecycle precheck expects exactly this refusal)."""
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:5]),
        hierarchy=Hierarchy((5,), (3,)),
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj("ab", params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", str(SECRET_61),
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    members = sorted(crthss.worst_case_unauthorized(params))
    assert len(members) == 2
    capsys.readouterr()
    code = main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                 "--shares", *(str(out_dir / f"share_{i:03d}.json") for i in members)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "need 3" in err
    assert out == ""


def _shift_first_w(bundle, amount):
    first = bundle["w"][0]
    return {**first, "value": str(int(first["value"]) + amount)}


# a bundle change, and the w key the refusal names
BUNDLE_CASES = {
    "unknown-participant": (lambda b: {**b, "w": b["w"] + [
        {**b["w"][0], "participant": 99}]}, "(99, 1)"),
    "top-level-participant": (lambda b: {**b, "w": b["w"] + [
        {**b["w"][0], "participant": 3, "level": 2}]}, "(3, 2)"),
    "value-shifted-by-5-m1": (lambda b: {**b, "w": [
        _shift_first_w(b, 5 * MODULI_61[0])] + b["w"][1:]}, "(1, 1)"),
}


@pytest.mark.parametrize("case", sorted(BUNDLE_CASES))
def test_reconstruct_rejects_unexpected_w_entries(tmp_path, capsys, case):
    """A bundle carries exactly the keys (i, l) with i below the top level
    and l from i's level up, each value in [0, m_i); anything else exits 2
    naming the key, never the value."""
    change, key = BUNDLE_CASES[case]
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:3]),
        hierarchy=Hierarchy((1, 2), (1, 2)),
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj("dhss", params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", str(SECRET_61),
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    bundle_path = out_dir / "public_bundle.json"
    bundle = read(bundle_path)
    changed = change(bundle)
    bundle_path.write_text(canonical_dumps(changed))
    capsys.readouterr()
    code = main(["reconstruct", "--public", str(bundle_path),
                 "--shares", str(out_dir / "share_001.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: ") and key in err
    values = {e["value"] for e in bundle["w"] + changed["w"]}
    assert not [v for v in values if v in err]


def test_audit_micro(tmp_path, micro_param_file, capsys):
    out = tmp_path / "report.json"
    code = main([
        "audit", "--params", str(micro_param_file), "--adversary", "2",
        "--secret", "4", "--seed", "77", "--out", str(out),
    ])
    assert code == 0
    report = read(out)
    assert report["scheme"] == "dhss"
    assert report["adversary"] == [2]
    assert report["loss_bits"] >= 0
    assert report["gamma_total"] == 7
    assert report["decomposition_ok"] is True
    total = sum(int(g["candidates"]) * g["num_secrets"] for g in report["groups"])
    assert total == int(report["total_candidates"])


def test_audit_authorized_adversary(tmp_path, micro_param_file, capsys):
    code = main([
        "audit", "--params", str(micro_param_file), "--adversary", "1,2",
        "--secret", "4", "--seed", "77",
    ])
    assert code == 7


def test_audit_budget(tmp_path, micro_param_file, capsys):
    code = main([
        "audit", "--params", str(micro_param_file), "--adversary", "2",
        "--secret", "4", "--seed", "77", "--budget", "3",
    ])
    assert code == 8


def _audit_output(capsys, param_file, adversary):
    code = main(["audit", "--params", str(param_file), "--adversary", adversary,
                 "--secret", "3", "--seed", "5"])
    out, err = capsys.readouterr()
    return code, out, err


def test_audit_duplicate_adversary_indices(tmp_path, micro_params, capsys):
    # a repeated index is one member: the report and every table describe
    # the set {1, 2}, not the raw list
    flat = SchemeParams(sequence=micro_params.sequence,
                        hierarchy=Hierarchy((3,), (3,)), owf=micro_params.owf)
    path = tmp_path / "flat.json"
    path.write_text(canonical_dumps(param_file_obj("dhss", flat)))
    pair = _audit_output(capsys, path, "1,2")
    assert pair[0] == 0
    assert _audit_output(capsys, path, "1,1,2") == pair
    (row,) = json.loads(pair[1])["eta_table"]
    assert row == {"level": 1, "floor": "2", "range_bound": "2431",
                   "adversary_modulus": "1001"}
    single = _audit_output(capsys, path, "1")
    assert single[0] == 0
    assert _audit_output(capsys, path, "1,1") == single
    assert json.loads(single[1])["ratio_table"] == [
        {"level": 1, "ratio": None, "value": None}]


def test_audit_single_pass_over_the_view(tmp_path, monkeypatch, capsys):
    # one lift per member share and level, one solve per level: the 12 OWF
    # evaluations of the deal, then 5 lifts (1 at level 1, 2 at levels 2
    # and 3; participants 6 and 7 hold raw top-level residues) and 3 solves
    hierarchy = Hierarchy((2, 3, 4), (2, 3, 5))
    sequence = generate_compact_sequence(2153, hierarchy.n, 1, Fraction(1, 2), 0)
    path = tmp_path / "params.json"
    path.write_text(canonical_dumps(param_file_obj(
        "dhss", SchemeParams(sequence=sequence, hierarchy=hierarchy))))
    calls = {"owf": 0, "crt": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(crthss.dhss, "eval_owf", counted("owf", crthss.dhss.eval_owf))
    for module in (crthss.analysis, crthss.dhss):
        monkeypatch.setattr(module, "crt_solve", counted("crt", module.crt_solve))
    assert main(["audit", "--params", str(path), "--adversary", "1,3,6,7",
                 "--secret", "717", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decomposition_ok"] is True
    assert calls == {"owf": 12 + 5, "crt": 3}


def test_audit_dhss_work_estimate_is_the_walk(tmp_path, capsys):
    # a 2-level worst-case dhss audit at m0 near 1.1e7 walks a few thousand
    # minority secrets, well inside the default budget (m * m0 is not)
    m0 = next(p for p in range(11_000_001, 11_001_001, 2) if crthss.is_prime(p))
    hierarchy = Hierarchy((1, 2), (1, 2))
    sequence = generate_compact_sequence(m0, hierarchy.n, 1, Fraction(1, 2), 7)
    path = tmp_path / "params.json"
    path.write_text(canonical_dumps(param_file_obj(
        "dhss", SchemeParams(sequence=sequence, hierarchy=hierarchy))))
    assert 2 * m0 > crthss.analysis.DEFAULT_WORK_BUDGET
    assert main(["audit", "--params", str(path), "--adversary", "2",
                 "--secret", str(m0 // 3), "--seed", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gamma_total"] == m0
    assert report["decomposition_ok"] is True


def test_audit_ladder(tmp_path, capsys):
    params_path = tmp_path / "shape.json"
    main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
        "--owf", "hash_based", "--seed", "1", "--out", str(params_path),
    ])
    capsys.readouterr()
    out = tmp_path / "ladder.json"
    code = main([
        "audit", "--params", str(params_path), "--adversary", "2",
        "--ladder", "97,997,9973", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    report = read(out)
    assert [r["m0"] for r in report["ladder"]] == ["97", "997", "9973"]
    assert len(report["delta_trend"]) == 3
    assert report["strictly_decreasing"] is True


def test_audit_ladder_composite_rung(tmp_path, micro_param_file, capsys):
    out = tmp_path / "ladder.json"
    code = main([
        "audit", "--params", str(micro_param_file), "--adversary", "2",
        "--ladder", "97,100", "--seed", "1", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: m0 = 100 is not prime\n"
    assert not out.exists()


def test_audit_chss(tmp_path, micro_param_file, capsys):
    out = tmp_path / "report.json"
    code = main([
        "audit", "--params", str(micro_param_file), "--scheme", "chss",
        "--adversary", "1", "--secret", "4", "--seed", "77", "--out", str(out),
    ])
    assert code == 0
    report = read(out)
    assert report["scheme"] == "chss"
    assert report["decomposition_ok"] is None
    assert report["loss_bits"] >= 0


def test_audit_chss_large_m0_within_default_budget(tmp_path, capsys):
    # the conjunctive estimate is m * m0, so a conjunctive audit at m0 near
    # 10^5 fits the default budget (m * m0^2 once exceeded it)
    params_path = tmp_path / "params.json"
    assert main([
        "gen-params", "--m0", "99991", "--levels", "1,2", "--thresholds", "1,2",
        "--scheme", "chss", "--seed", "5", "--out", str(params_path),
    ]) == 0
    out = tmp_path / "report.json"
    code = main([
        "audit", "--params", str(params_path), "--adversary", "2",
        "--secret", "4242", "--seed", "6", "--out", str(out),
    ])
    assert code == 0
    report = read(out)
    assert report["scheme"] == "chss"
    assert report["gamma_total"] == 99991
    total = sum(int(g["candidates"]) * g["num_secrets"] for g in report["groups"])
    assert total == int(report["total_candidates"])
    assert 0 <= report["loss_bits"] < 1e-6


def test_gen_params_m0_bits(tmp_path, capsys):
    out = tmp_path / "params.json"
    code = main([
        "gen-params", "--m0-bits", "24", "--levels", "2,2", "--thresholds", "2,3",
        "--theta", "2/3", "--owf", "hash_based", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    obj = read(out)
    m0 = int(obj["sequence"]["m0"])
    assert m0.bit_length() == 24
    from crthss.params import is_prime
    assert is_prime(m0)


@pytest.mark.parametrize("bits", [128, 256])
def test_gen_params_deal_reconstruct_at_real_size(tmp_path, capsys, bits):
    params_path = tmp_path / "params.json"
    argv = [
        "gen-params", "--m0-bits", str(bits), "--levels", "2,3",
        "--thresholds", "2,3", "--seed", "9", "--out", str(params_path),
    ]
    assert main(argv) == 0
    first = params_path.read_text()
    assert main(argv) == 0
    assert params_path.read_text() == first
    obj = read(params_path)
    m0 = int(obj["sequence"]["m0"])
    assert m0.bit_length() == bits
    assert len(obj["sequence"]["moduli"]) == 5
    secret = m0 - 12345
    out_dir = tmp_path / "deal"
    assert main([
        "deal", "--params", str(params_path), "--secret", str(secret),
        "--seed", "4", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    public = str(out_dir / "public_bundle.json")
    for members in ((1, 2), (3, 4, 5)):
        assert main([
            "reconstruct", "--public", public,
            "--shares", *(str(out_dir / f"share_{i:03d}.json") for i in members),
        ]) == 0
        assert capsys.readouterr().out.strip() == str(secret)


def test_audit_ladder_127_bit_rung_exceeds_budget(micro_param_file, capsys):
    # the rung's sequence is drawn and dealt; only the audit's work
    # estimate refuses it
    code = main([
        "audit", "--params", str(micro_param_file), "--adversary", "2",
        "--ladder", f"97,{2**127 - 1}", "--seed", "1",
    ])
    assert code == 8
    captured = capsys.readouterr()
    assert captured.err.startswith("error: estimated work ")
    assert "exceeds budget" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_audit_ladder_256_bit_rung_exceeds_budget(micro_param_file, capsys):
    # the dhss estimate counts minority secrets as integers: a level's
    # split far above 2**63 is refused by the budget, never by len()
    for seed in (1, 2, 3):
        code = main([
            "audit", "--params", str(micro_param_file), "--adversary", "2",
            "--ladder", f"97,{2**255 - 19}", "--seed", str(seed),
        ])
        assert code == 8
        captured = capsys.readouterr()
        assert captured.err.startswith("error: estimated work ")
        assert "Traceback" not in captured.err + captured.out


def test_deal_without_seed_prints_commitment_only(tmp_path, micro_param_file, capsys):
    code = main([
        "deal", "--params", str(micro_param_file), "--secret", "4",
        "--out-dir", str(tmp_path / "d"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed commitment: " in out
    assert "(explicit)" not in out


def test_inspect(tmp_path, micro_param_file, capsys):
    code = main(["inspect", str(micro_param_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "parameter file" in out

    code = main(["inspect", str(tmp_path / "missing.json")])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2
