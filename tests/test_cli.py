"""End-to-end CLI behavior: exit codes, file outputs, worked vectors."""

import errno
import hashlib
import json
import math
import os
import random
import re
import secrets
import stat
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
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
from crthss.cli import MAX_M0_BITS, _write_text, main
from crthss.fileformat import (
    bundle_file_text,
    canonical_dumps,
    param_file_obj,
    params_digest,
    parse_param_file,
    share_file_text,
)
from crthss.params import _strong_lucas


@pytest.fixture
def micro_param_file(tmp_path, micro_params):
    path = tmp_path / "micro.json"
    path.write_text(canonical_dumps(param_file_obj("dhss", micro_params)))
    return path


@pytest.fixture
def micro_chss_param_file(tmp_path, micro_params):
    path = tmp_path / "micro_chss.json"
    path.write_text(canonical_dumps(param_file_obj("chss", micro_params)))
    return path


def read(path):
    return json.loads(path.read_text())


def test_gen_params_ok(tmp_path, capsys):
    out = tmp_path / "params.json"
    code = main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
        "--k", "1", "--theta", "1/2",
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
        "--k", "1", "--theta", "1/2",
        "--seed", "7", "--out", str(out2),
    ])
    assert out.read_text() == out2.read_text()


def test_gen_params_validation_failures(tmp_path, capsys):
    code = main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "2,2",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "increasing" in capsys.readouterr().err

    code = main([
        "gen-params", "--m0", "11", "--levels", "3,3", "--thresholds", "1,2",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "interval" in capsys.readouterr().err.lower()

    code = main([
        "gen-params", "--m0", "10", "--levels", "1", "--thresholds", "1",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2

    # h is SHA-256 expansion, with no digest to choose, so --digest is unknown
    for digest in ("sha256", "nope"):
        code = main([
            "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
            "--digest", digest, "--seed", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert (f"error: unrecognized arguments: --digest {digest}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.json").exists()

    # deal refuses a multi-level flat parameter set, so gen-params does not
    # write one
    code = main([
        "gen-params", "--m0", "997", "--levels", "1,2", "--thresholds", "1,2",
        "--scheme", "ab", "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: flat dealing needs a single-level parameter set\n")
    assert not (tmp_path / "x.json").exists()


def test_gen_params_composite_m0(tmp_path, capsys):
    code = main([
        "gen-params", "--m0", "15", "--levels", "1,2", "--thresholds", "1,2",
        "--seed", "1", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: m0 = 15 is not prime\n"


def test_gen_params_degenerate_theta(tmp_path, capsys):
    base = ["gen-params", "--m0-bits", "40", "--levels", "1,2",
            "--thresholds", "1,2", "--seed", "1", "--out", str(tmp_path / "x.json")]
    # a zero denominator used to end in a ZeroDivisionError traceback
    assert main([*base, "--theta", "1/0"]) == 2
    err = capsys.readouterr().err
    assert "argument --theta: not a fraction p/q: '1/0'" in err
    assert "Traceback" not in err
    # theta = 1/10**300 used to hang in integer_root; the width is 1, so the
    # interval holds no candidate
    assert main([*base, "--theta", "1e-300"]) == 2
    assert "interval" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_gen_params_refuses_a_strong_pseudoprime_m0(tmp_path, capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to each of the
    # first 12 prime bases
    psi12 = 318665857834031151167461
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0", str(psi12), "--levels", "1,2",
                 "--thresholds", "1,2", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: m0 = {psi12} is not prime\n"
    assert not out.exists()


def _assert_edited_params_exit_2(tmp_path, capsys, section, field, value, message):
    """Deal a micro instance, set ``section.field`` to ``value`` in the
    parameter file and in the bundle's ``params``, and check that deal,
    audit and reconstruct each exit 2 with ``message`` on stderr, writing
    nothing."""
    tmp_path.mkdir(exist_ok=True)
    params_path = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", "--seed", "1", "--out", str(params_path)]) == 0
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(params_path), "--secret", "5",
                 "--seed", "2", "--out-dir", str(out_dir)]) == 0
    bundle_path = out_dir / "public_bundle.json"
    params, bundle = read(params_path), read(bundle_path)
    params[section][field] = bundle["params"][section][field] = value
    params_path.write_text(canonical_dumps(params))
    bundle_path.write_text(canonical_dumps(bundle))
    capsys.readouterr()
    for what, argv in (
        ("parameters", ["deal", "--params", str(params_path), "--secret", "5",
                        "--seed", "2", "--out-dir", str(tmp_path / "again")]),
        ("parameters", ["audit", "--params", str(params_path), "--adversary", "2",
                        "--seed", "3"]),
        ("bundle", ["reconstruct", "--public", str(bundle_path),
                    "--shares", str(out_dir / "share_001.json")]),
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == (
            "", f"error: cannot read {what}: {message}\n"), argv[0]
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("field, value, case", [
    ("theta", "-1/2", "theta is not in (0, 1)"),
    ("theta", "0", "theta is not in (0, 1)"),
    ("theta", "1", "theta is not in (0, 1)"),
    ("theta", "3/2", "theta is not in (0, 1)"),
    ("k", 0, "k is below 1"),
    ("k", -1, "k is below 1"),
])
def test_param_file_theta_or_k_out_of_range_exit_2(tmp_path, capsys, field, value,
                                                   case):
    """deal, audit and reconstruct refuse a theta outside (0, 1) or a k below
    1, the ranges gen-params draws from, with gen-params' own message; a
    negative theta used to end audit in an AttributeError traceback, and the
    others were accepted silently."""
    message = {"theta": f"theta must be in (0, 1), got {value}",
               "k": f"k must be >= 1, got {value}"}[field]
    _assert_edited_params_exit_2(tmp_path, capsys, "sequence", field, value, message)


@pytest.mark.parametrize("theta", ["0.5", " 1/2", "1_0/20", "\uff12/4", "1/0"],
                         ids=["decimal", "space", "underscore", "fullwidth",
                              "zero-denominator"])
def test_param_file_theta_not_p_over_q_exit_2(tmp_path, capsys, theta):
    """deal, audit and reconstruct read theta as ASCII "p/q" with a nonzero
    q; Fraction(str) took the first four and raised on "1/0" with a message
    naming no field."""
    _assert_edited_params_exit_2(tmp_path, capsys, "sequence", "theta", theta,
                                 'sequence: theta is not a "p/q" string')


def test_param_file_over_long_decimal_names_its_field(tmp_path, capsys):
    """A modulus string past the interpreter's 4300-digit limit for int() is
    refused as the moduli field, as an equally long m0 is as its own; int()
    used to raise a message naming no field."""
    long = "9" * 4301
    _assert_edited_params_exit_2(
        tmp_path / "moduli", capsys, "sequence", "moduli", [long] * 3,
        "sequence: moduli holds a string that is not a decimal")
    _assert_edited_params_exit_2(tmp_path / "m0", capsys, "sequence", "m0", long,
                                 "sequence: m0 is not a decimal string")


@pytest.mark.parametrize("kind", ["test_affine", "hash_based"])
def test_gen_params_has_no_owf_option(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", "--owf", kind, "--seed", "1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments: --owf" in err
    assert not out.exists()


@pytest.mark.parametrize("owf", [
    {"kind": "test_affine", "family_tag": ""},
    {"kind": "test_affine", "family_tag": "", "digest_name": "sha256"},
], ids=["affine", "affine-with-digest"])
def test_affine_parameter_file_or_bundle_exit_2(tmp_path, capsys, owf):
    """deal, audit and reconstruct refuse a parameter file or a bundle whose
    OWF is test_affine: its masks link the levels, which the audit does not
    model (see test_oneway)."""
    params_path = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", "--seed", "1", "--out", str(params_path)]) == 0
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(params_path), "--secret", "5",
                 "--seed", "2", "--out-dir", str(out_dir)]) == 0
    bundle_path = out_dir / "public_bundle.json"
    params, bundle = read(params_path), read(bundle_path)
    params["owf"] = bundle["params"]["owf"] = owf
    params_path.write_text(canonical_dumps(params))
    bundle_path.write_text(canonical_dumps(bundle))
    capsys.readouterr()
    for argv, what in (
        (["deal", "--params", str(params_path), "--secret", "5", "--seed", "2",
          "--out-dir", str(tmp_path / "again")], "parameters"),
        (["audit", "--params", str(params_path), "--adversary", "2", "--seed", "3"],
         "parameters"),
        (["reconstruct", "--public", str(bundle_path),
          "--shares", str(out_dir / "share_001.json")], "bundle"),
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == (
            "", f"error: cannot read {what}: owf: kind is not hash_based\n")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("tag", [7, "zz", "abc", "AB", "ab cd"])
def test_family_tag_not_lowercase_hex_exit_2(tmp_path, capsys, tag):
    """A family_tag other than lowercase hex of whole bytes is refused with
    a message naming the field, in a parameter file and in a bundle: an
    upper-case or spaced tag would hash in a spelling the file does not
    have."""
    params_path = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", "--family-tag", "abcd", "--seed", "1",
                 "--out", str(params_path)]) == 0
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(params_path), "--secret", "5",
                 "--seed", "2", "--out-dir", str(out_dir)]) == 0
    digest = hashlib.sha256(params_path.read_bytes()).hexdigest()
    assert f"params digest: {digest}\n" in capsys.readouterr().out
    bundle_path = out_dir / "public_bundle.json"
    params, bundle = read(params_path), read(bundle_path)
    params["owf"]["family_tag"] = bundle["params"]["owf"]["family_tag"] = tag
    params_path.write_text(canonical_dumps(params))
    bundle_path.write_text(canonical_dumps(bundle))
    for argv, what in (
        (["deal", "--params", str(params_path), "--secret", "5", "--seed", "2",
          "--out-dir", str(tmp_path / "again")], "parameters"),
        (["audit", "--params", str(params_path), "--adversary", "2", "--seed", "3"],
         "parameters"),
        (["reconstruct", "--public", str(bundle_path),
          "--shares", str(out_dir / "share_001.json")], "bundle"),
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == (
            "", f"error: cannot read {what}: owf: family_tag is not lowercase hex\n")
    assert not (tmp_path / "again").exists()


def test_deal_keeps_dealer_secrets_only_when_asked(tmp_path, micro_param_file,
                                                   monkeypatch, capsys):
    from crthss import cli
    kept = []

    def spy(*args, **kwargs):
        result = crthss.deal(*args, **kwargs)
        kept.append(result.dealer_secrets is not None)
        return result

    monkeypatch.setattr(cli, "deal", spy)
    for name, flags in (("plain", []), ("emit", ["--emit-dealer-secrets"])):
        assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                     "--seed", "1", "--out-dir", str(tmp_path / name), *flags]) == 0
    assert kept == [False, True]
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "emit").iterdir()) == sorted(
        [*plain, "dealer_secrets.json"])
    for name in plain:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "emit" / name).read_bytes())


def test_dealer_secrets_past_the_integer_digit_limit(tmp_path, capsys):
    """At 256 bits and t_3 = 60, y_3 has more than the 4300 digits str(int)
    spells; the file still holds every dealer value, in decimal."""
    params_path = tmp_path / "params.json"
    assert main(["gen-params", "--m0-bits", "256", "--levels", "10,40,150",
                 "--thresholds", "5,20,60", "--seed", "4",
                 "--out", str(params_path)]) == 0
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(params_path), "--secret", "5",
                 "--seed", "1", "--out-dir", str(out_dir),
                 "--emit-dealer-secrets"]) == 0
    params = parse_param_file(read(params_path))
    expected = crthss.deal(5, params, 1, keep_dealer_secrets=True).dealer_secrets
    values = read(out_dir / "dealer_secrets.json")["values"]
    assert values.keys() == expected.keys()
    for key, vals in expected.items():
        assert [Decimal(v) for v in values[key]] == [Decimal(v) for v in vals]
    assert len(values["y"][-1]) > 4300


def _run_cli(*argv, timeout=60):
    env = {**os.environ, "PYTHONPATH": str(Path(crthss.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "crthss.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("bits, theta", [("300000", "1/2"), ("3000", "99/100")])
def test_oversized_m0_bits_is_refused_before_the_prime_search(
        tmp_path, monkeypatch, capsys, bits, theta):
    # --m0-bits 300000 used to search for a 300000-bit prime, for far longer
    # than a user waits, before compact_width refused that size
    def no_primes(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr("crthss.params.is_prime", no_primes)
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0-bits", bits, "--theta", theta, "--levels",
                 "1,2", "--thresholds", "1,2", "--seed", "1", "--out", str(out)]) == 2
    p = theta.split("/")[0]
    assert capsys.readouterr() == (
        "", f"error: theta = {theta} needs m0**{p}, beyond the limit of 262144 bits\n")
    assert not out.exists()


def test_m0_bits_above_the_cap_is_refused_before_the_prime_search(
        tmp_path, monkeypatch, capsys):
    # --m0-bits 4096 used to search for a prime for well over 20 s; sizes
    # above MAX_M0_BITS exit 2 at once, and MAX_M0_BITS itself is drawn
    calls = []

    def spy(n):
        calls.append(n)
        return True  # any candidate passes, so the search ends at once

    monkeypatch.setattr("crthss.params.is_prime", spy)
    out = tmp_path / "x.json"
    argv = ["gen-params", "--levels", "1,2", "--thresholds", "1,2", "--seed", "1",
            "--out", str(out), "--m0-bits"]
    assert main(argv + [str(MAX_M0_BITS + 1)]) == 2
    assert main(argv + ["4096"]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", (
        f"error: --m0-bits {MAX_M0_BITS + 1} is above the limit of {MAX_M0_BITS}\n"
        f"error: --m0-bits 4096 is above the limit of {MAX_M0_BITS}\n"))
    assert not out.exists()
    assert main(argv + [str(MAX_M0_BITS)]) == 0
    assert calls[0].bit_length() == MAX_M0_BITS


def _passing_prime_tests(monkeypatch):
    """Every value that passes is_prime above 37, in call order: such a pass
    ends with a passing strong Lucas test, whichever module called it."""
    passed = []

    def spy(n):
        if _strong_lucas(n):
            passed.append(n)
            return True
        return False

    monkeypatch.setattr("crthss.params._strong_lucas", spy)
    return passed


@pytest.mark.parametrize("bits", [40, 512])
def test_m0_bits_tests_m0_once(tmp_path, monkeypatch, capsys, bits):
    # the search's BPSW proves m0 prime and hands it to the moduli draw;
    # generate_compact_sequence used to test the same m0 a second time
    passed = _passing_prime_tests(monkeypatch)
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0-bits", str(bits), "--levels", "10,40,150",
                 "--thresholds", "5,20,60", "--seed", "1", "--out", str(out)]) == 0
    m0 = int(read(out)["sequence"]["m0"])
    assert m0.bit_length() == bits
    assert passed == [m0]


def test_m0_and_each_ladder_rung_are_tested_once(tmp_path, monkeypatch, capsys):
    # an m0 the caller names is tested by generate_compact_sequence, once:
    # the deal verdict of a generated sequence does not test it again
    passed = _passing_prime_tests(monkeypatch)
    params = tmp_path / "shape.json"
    assert main(["gen-params", "--m0", "97", "--levels", "1,2", "--thresholds",
                 "1,2", "--seed", "1", "--out", str(params)]) == 0
    assert passed == [97]
    passed.clear()
    assert main(["audit", "--params", str(params), "--adversary", "2",
                 "--ladder", "997,9973,99991", "--seed", "1"]) == 0
    assert passed == [997, 9973, 99991]


@pytest.mark.parametrize("m0_flag", [("--m0-bits", "2048"), ("--m0", "997")],
                         ids=["m0-bits", "m0"])
@pytest.mark.parametrize("levels, thresholds, message", [
    ("1,2", "3,2", "hierarchy: thresholds not strictly increasing: t_1 = 3 >= "
                   "t_2 = 2; hierarchy: t_1 = 3 > N_1 = 1"),
    ("0", "1", "hierarchy: level 1 size 0 < 1; hierarchy: t_1 = 1 > N_1 = 0"),
    ("", "", "hierarchy: no levels"),
    ("1,2", "1", "hierarchy: 2 level sizes but 1 thresholds"),
    ("1,2", "0,2", "hierarchy: t_1 = 0 < 1"),
], ids=["decreasing", "empty-level", "no-levels", "count-mismatch",
        "zero-threshold"])
def test_bad_hierarchy_is_refused_before_the_prime_search(
        tmp_path, monkeypatch, capsys, m0_flag, levels, thresholds, message):
    # a 2048-bit search used to run for seconds before the hierarchy was
    # checked, and --levels 0 was refused as "n must be >= 1"
    def no_primes(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr("crthss.params.is_prime", no_primes)
    out = tmp_path / "x.json"
    assert main(["gen-params", *m0_flag, "--levels", levels, "--thresholds",
                 thresholds, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("m0_flag", [("--m0-bits", "2048"), ("--m0", "997")],
                         ids=["m0-bits", "m0"])
@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "k must be >= 1, got 0"),
    (["--theta", "3/2"], "theta must be in (0, 1), got 3/2"),
    (["--theta", "1"], "theta must be in (0, 1), got 1"),
    (["--theta=-1/2"], "theta must be in (0, 1), got -1/2"),
], ids=["k0", "theta-3/2", "theta-1", "theta-neg"])
def test_bad_k_or_theta_is_refused_before_the_prime_search(
        tmp_path, monkeypatch, capsys, m0_flag, flags, message):
    # at --m0-bits 2048 these ran the search for seconds before exit 2
    def no_primes(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr("crthss.params.is_prime", no_primes)
    out = tmp_path / "x.json"
    assert main(["gen-params", *m0_flag, "--levels", "1,2", "--thresholds", "1,2",
                 *flags, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


# flag, value, and how the usage error begins and ends: the gen-params parser
# refuses a bad --family-tag, the top-level parser an unknown argument
_TAG_ERROR = "error: argument --family-tag: not lowercase hex of whole bytes: "
BAD_OWF_FLAGS = [
    *(("--family-tag", tag, "usage: crthss gen-params", f"{_TAG_ERROR}{tag!r}")
      for tag in ("abc", "AB", "ab cd", "zz")),
    *(("--digest", name, "usage: crthss [-h]",
       f"error: unrecognized arguments: --digest {name}")
      for name in ("nope", "shake_128")),
]


@pytest.mark.parametrize("flag, value, usage, error", BAD_OWF_FLAGS,
                         ids=[f"{case[0]}-{case[1]}" for case in BAD_OWF_FLAGS])
def test_bad_owf_flag_is_refused_before_the_prime_search(
        tmp_path, monkeypatch, capsys, flag, value, usage, error):
    """--family-tag takes only the spelling a parameter file accepts:
    fromhex alone would write "AB" as "ab", a tag other than the one given.
    h has no digest to choose, so --digest is an unknown argument."""
    def no_primes(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr("crthss.params.is_prime", no_primes)
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0-bits", "2048", "--levels", "1,2",
                 "--thresholds", "1,2", flag, value, "--seed", "1",
                 "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(usage) and err.endswith(f"{error}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, tag", [
    ([], ""), (["--family-tag", ""], ""), (["--family-tag", "ab"], "ab"),
], ids=["default", "empty", "ab"])
def test_gen_params_writes_the_family_tag_given(tmp_path, capsys, flags, tag):
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", *flags, "--seed", "1", "--out", str(out)]) == 0
    assert read(out)["owf"] == {
        "kind": "hash_based", "family_tag": tag, "digest_name": "sha256"}


@pytest.mark.parametrize("bits", ["1", "0"])
def test_m0_bits_below_two_exit_2(tmp_path, capsys, bits):
    out = tmp_path / "x.json"
    assert main(["gen-params", "--m0-bits", bits, "--levels", "1,2",
                 "--thresholds", "1,2", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: need at least 2 bits\n")
    assert not out.exists()


def test_theta_near_one_is_refused_quickly(tmp_path):
    # m0**99999 has millions of bits; gen-params used to run Newton steps on
    # it for minutes, and audit did the same on a file carrying that theta
    out = tmp_path / "x.json"
    for bits in (40, 256):
        proc = _run_cli("gen-params", "--m0-bits", str(bits), "--levels", "1,2",
                        "--thresholds", "1,2", "--theta", "99999/100000",
                        "--seed", "1", "--out", str(out), timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == ("error: theta = 99999/100000 needs m0**99999, "
                               "beyond the limit of 262144 bits\n")
        assert not out.exists()
    assert main(["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds",
                 "1,2", "--seed", "1", "--out", str(out)]) == 0
    obj = read(out)
    obj["sequence"]["theta"] = "99999/100000"
    out.write_text(canonical_dumps(obj))
    proc = _run_cli("audit", "--params", str(out), "--adversary", "2",
                    "--seed", "1", timeout=30)
    assert proc.returncode == 2
    assert "beyond the limit of 262144 bits" in proc.stderr


def test_unusable_digest_in_files_exit_2(tmp_path, capsys):
    """A parameter file or bundle naming any digest but sha256 is refused at
    parse time by deal, audit and reconstruct: h expands SHA-256 alone, so
    a file naming md5, sha512 or SHA256 names a family the library does not
    compute."""
    for digest in ("nope", "sha512", "SHA256", "md5", ""):
        _assert_edited_params_exit_2(tmp_path / (digest or "empty"), capsys, "owf",
                                     "digest_name", digest,
                                     "owf: digest_name is not sha256")


# every command position that reads a JSON file
READERS = ["inspect", "deal", "audit", "reconstruct-public", "reconstruct-share"]


def reader_argv(command, path, tmp_path, micro_param_file):
    """argv for a command that reads ``path`` where it wants a JSON file,
    with a good micro deal's files in every other position, and the text
    that command would read there from that deal."""
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    bundle, share_2 = out_dir / "public_bundle.json", out_dir / "share_002.json"
    argv, good = {
        "inspect": (["inspect", str(path)], micro_param_file),
        "deal": (["deal", "--params", str(path), "--secret", "1",
                  "--out-dir", str(tmp_path / "again")], micro_param_file),
        "audit": (["audit", "--params", str(path), "--adversary", "2"],
                  micro_param_file),
        "reconstruct-public": (["reconstruct", "--public", str(path),
                                "--shares", str(out_dir / "share_001.json")],
                               bundle),
        "reconstruct-share": (["reconstruct", "--public", str(bundle),
                               "--shares", str(share_2), str(path)],
                              out_dir / "share_001.json"),
    }[command]
    return argv, good.read_text()


@pytest.mark.parametrize("command", READERS)
def test_deeply_nested_json_exit_2(tmp_path, micro_param_file, capsys, command):
    # json.load recurses once per level: past the recursion limit it used to
    # end every command in a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    argv, _ = reader_argv(command, deep, tmp_path, micro_param_file)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ")
    assert err.endswith("the file nests too deeply\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["utf-16", "utf-8-bom", "invalid-utf-8", "directory"])
@pytest.mark.parametrize("command", READERS)
def test_undecodable_file_exit_2(tmp_path, micro_param_file, capsys, command, kind):
    # a file the command would accept, but not in strict UTF-8 without a BOM
    # (json.loads would sniff bytes for UTF-16), or a path that is no file
    bad = tmp_path / "bad.json"
    argv, good = reader_argv(command, bad, tmp_path, micro_param_file)
    if kind == "directory":
        bad.mkdir()
    else:
        data = {"utf-16": good.encode("utf-16"),
                "utf-8-bom": good.encode("utf-8-sig"),
                "invalid-utf-8": good.encode()[:20] + b"\xff" + good.encode()[20:],
                }[kind]
        bad.write_bytes(data)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ")
    assert "Traceback" not in err


# how each reader names the file it reads in "cannot read <what>: <reason>"
READ_WHAT = {"inspect": "{path}", "deal": "parameters", "audit": "parameters",
             "reconstruct-public": "bundle", "reconstruct-share": "share {path}"}

# a path that cannot be read, made by a function of the path, and the reason
# given for it: the whole of stderr is pinned, the file name included
READ_FAILURES = {
    "missing": (None, "[Errno 2] No such file or directory: '{path}'"),
    "directory": (Path.mkdir, "[Errno 21] Is a directory: '{path}'"),
    "invalid-utf-8": (lambda p: p.write_bytes(b'{"version": "\xff"}'),
                      "'utf-8' codec can't decode byte 0xff in position 13: "
                      "invalid start byte"),
    "syntax-error": (lambda p: p.write_text('{"version": 1,}'),
                     "Expecting property name enclosed in double quotes: "
                     "line 1 column 15 (char 14)"),
    "too-deep": (lambda p: p.write_text("[" * 200000 + "]" * 200000),
                 "the file nests too deeply"),
}


@pytest.mark.parametrize("kind", sorted(READ_FAILURES))
@pytest.mark.parametrize("command", READERS)
def test_unreadable_file_message_is_pinned(tmp_path, micro_param_file, capsys,
                                           monkeypatch, command, kind):
    make, reason = READ_FAILURES[kind]
    monkeypatch.chdir(tmp_path)
    bad = Path("bad.json")
    argv, _ = reader_argv(command, bad, tmp_path, micro_param_file)
    if make is not None:
        make(bad)
    capsys.readouterr()
    assert main(argv) == 2
    what = READ_WHAT[command].format(path=bad)
    assert capsys.readouterr() == (
        "", f"error: cannot read {what}: {reason.format(path=bad)}\n")


# a field each file kind can lose, and how the reader names the object
FIELD_CASES = {"share": ("params_digest", "share {path}: share file"),
               "w-entry": ("level", "bundle: w entry"),
               "params": ("owf", "parameters: parameter file")}


@pytest.mark.parametrize("shape", ["non-object", "extra", "missing", "both"])
@pytest.mark.parametrize("which", sorted(FIELD_CASES))
def test_wrong_fields_message_is_pinned(tmp_path, micro_param_file, capsys,
                                        monkeypatch, which, shape):
    """A share file, a bundle's w entry or a parameter file that is not an
    object, or has an extra field, or lacks one, or both: stderr is the
    whole message, and an extra field is named before a missing one."""
    monkeypatch.chdir(tmp_path)
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", "d"]) == 0
    bundle = read(Path("d/public_bundle.json"))
    obj = {"share": read(Path("d/share_001.json")), "w-entry": bundle["w"][0],
           "params": read(micro_param_file)}[which]
    dropped, what = FIELD_CASES[which]
    if shape in ("missing", "both"):
        del obj[dropped]
    if shape in ("extra", "both"):
        obj["extra"] = 1
    if shape == "non-object":
        obj = [obj]
    if which == "share":
        Path("s.json").write_text(json.dumps(obj))
        argv = ["reconstruct", "--public", "d/public_bundle.json",
                "--shares", "s.json"]
    elif which == "w-entry":
        bundle["w"][0] = obj
        Path("b.json").write_text(json.dumps(bundle))
        argv = ["reconstruct", "--public", "b.json", "--shares", "d/share_001.json"]
    else:
        Path("p.json").write_text(json.dumps(obj))
        argv = ["deal", "--params", "p.json", "--secret", "1", "--out-dir", "e"]
    reason = {"non-object": " must be an object",
              "extra": ": unexpected fields ['extra']",
              "missing": f": missing fields ['{dropped}']",
              "both": ": unexpected fields ['extra']"}[shape]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot read {what.format(path='s.json')}{reason}\n")


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
@pytest.mark.parametrize("which", ["params", "share", "bundle", "bundle-params"])
def test_version_must_be_the_json_integer_1(tmp_path, micro_param_file, capsys,
                                            monkeypatch, which, version):
    """true and 1.0 equal 1 in Python, but the format's counts are JSON
    integers: each is refused like "1", and nothing reaches stdout."""
    monkeypatch.chdir(tmp_path)
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", "d"]) == 0
    reconstruct = ["reconstruct", "--public", "d/public_bundle.json",
                   "--shares", "d/share_001.json"]
    if which == "params":
        Path("p.json").write_text(json.dumps({**read(micro_param_file),
                                              "version": version}))
        argv = ["deal", "--params", "p.json", "--secret", "1", "--out-dir", "e"]
        what = "parameters: parameter file"
    elif which == "share":
        path = Path("d/share_001.json")
        path.write_text(json.dumps({**read(path), "version": version}))
        argv, what = reconstruct, "share d/share_001.json: share file"
    else:
        path = Path("d/public_bundle.json")
        bundle = read(path)
        if which == "bundle":
            bundle["version"] = version
            what = "bundle: bundle file"
        else:
            bundle["params"]["version"] = version
            what = "bundle: parameter file"
        path.write_text(json.dumps(bundle))
        argv = reconstruct
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot read {what}: unsupported version {version!r}\n")
    assert not Path("e").exists()


def test_inspect_writes_back_the_deepest_file_it_reads(tmp_path, capsys):
    # the canonical writer keeps its own stack, so any nesting the reader
    # accepts is written back, whatever the interpreter's recursion limits
    path = tmp_path / "nested.json"

    def inspect(depth):
        path.write_text("[" * depth + "]" * depth)
        code = main(["inspect", str(path)])
        return (code, *capsys.readouterr())

    read, refused = 1, 200000
    assert inspect(refused)[0] == 2
    while refused - read > 1:
        depth = (read + refused) // 2
        code, _, err = inspect(depth)
        if code == 0:
            read = depth
        else:
            assert (code, err[-26:]) == (2, "the file nests too deeply\n")
            refused = depth
    code, out, err = inspect(read)
    assert (code, err) == (0, "")
    lines = [f"# {path}: unknown"]
    lines += ["  " * i + "[" for i in range(read - 1)] + ["  " * (read - 1) + "[]"]
    lines += ["  " * i + "]" for i in reversed(range(read - 1))]
    assert out == "\n".join(lines) + "\n"


def test_unwritable_output_paths_exit_2(tmp_path, micro_param_file, capsys):
    missing = tmp_path / "missing"
    assert main(["gen-params", "--m0", "97", "--levels", "1,2", "--thresholds",
                 "1,2", "--seed", "1", "--out", str(missing / "params.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")
    # deal creates a missing --out-dir, but not one beneath a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(blocker / "shares")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}")
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "1", "--out", str(missing / "audit.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {missing}")
    assert "Traceback" not in err


def test_write_text_overwrites_in_place(tmp_path):
    # the file ends up holding exactly the new bytes, whatever it held before;
    # a private file ends up 0o600 though it started 0o644
    for private in (False, True):
        path = tmp_path / f"out-{private}.json"
        if private:
            path.write_text("an earlier public text\n")
            path.chmod(0o644)
        for text in ("a longer first text\n", "short\n", "", "é, then longer again\n"):
            _write_text(path, text, private=private)
            assert path.read_bytes() == text.encode("utf-8")
            if private:
                assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_rewrite_of_a_private_file_skips_chmod_and_truncate(tmp_path, monkeypatch):
    # the fstat after opening shows the mode is right and nothing is left
    # over past the new bytes, so neither call is made
    path = tmp_path / "share.json"
    _write_text(path, "x" * 10, private=True)
    calls = []
    for name in ("fchmod", "ftruncate"):
        def spy(*args, _name=name, _real=getattr(os, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(os, name, spy)
    for text in ("y" * 10, "z" * 12, "é" * 8):
        _write_text(path, text, private=True)
        assert path.read_bytes() == text.encode("utf-8")
    assert calls == []
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    _write_text(path, "short", private=True)
    assert (calls, path.read_bytes()) == (["ftruncate"], b"short")


def test_audit_out_may_be_a_device(micro_param_file, capsys):
    # a path that is not a regular file is written to, never cut
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "1", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"


def test_outputs_are_never_opened_with_o_trunc(tmp_path, micro_param_file,
                                               monkeypatch, capsys):
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out_dir, report = tmp_path / "deal", tmp_path / "audit.json"
    for secret in ("4", "5"):  # the second run overwrites the first
        assert main(["deal", "--params", str(micro_param_file), "--secret", secret,
                     "--seed", "1", "--out-dir", str(out_dir),
                     "--emit-dealer-secrets"]) == 0
        assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                     "--secret", secret, "--seed", "1", "--out", str(report)]) == 0
        assert main(["gen-params", "--m0", "97", "--levels", "1,2", "--thresholds",
                     "1,2", "--seed", secret, "--out", str(tmp_path / "p.json")]) == 0
    writes = [f for f in flags if f & os.O_WRONLY]
    assert len(writes) == 2 * (5 + 1 + 1)
    assert not any(f & os.O_TRUNC for f in flags)


def test_failed_write_leaves_an_empty_file(tmp_path, micro_param_file, monkeypatch,
                                           capsys):
    out_dir, report = tmp_path / "deal", tmp_path / "audit.json"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    report.write_text("x" * 10_000)
    capsys.readouterr()
    real_write = os.write

    def flaky(fd, data):
        # the first write lands in part, the next one fails
        if flaky.failed:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        flaky.failed = True
        return real_write(fd, data[:3])

    for argv, path, named in (
        (["deal", "--params", str(micro_param_file), "--secret", "5", "--seed", "2",
          "--out-dir", str(out_dir)], out_dir / "share_001.json",
         out_dir / "share_001.json"),
        (["audit", "--params", str(micro_param_file), "--adversary", "2",
          "--seed", "1", "--out", str(report)], report, report),
    ):
        flaky.failed = False
        monkeypatch.setattr(os, "write", flaky)
        assert main(argv) == 2
        monkeypatch.setattr(os, "write", real_write)
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {named}: {os.strerror(errno.ENOSPC)}\n"
        assert path.read_bytes() == b""


def test_write_error_names_the_file_it_could_not_write(tmp_path, capsys):
    """A directory where a share file goes is named, not the output
    directory; a failed mkdir still names the directory."""
    params = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "1000003", "--levels", "2,3",
                 "--thresholds", "2,3", "--seed", "1", "--out", str(params)]) == 0
    out_dir = tmp_path / "out"
    (out_dir / "share_002.json").mkdir(parents=True)
    deal = ["deal", "--params", str(params), "--secret", "5", "--seed", "2",
            "--out-dir"]
    capsys.readouterr()
    assert main(deal + [str(out_dir)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {out_dir / 'share_002.json'}: Is a directory\n")
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert main(deal + [str(blocked / "out")]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {blocked / 'out'}: Not a directory\n")


@pytest.mark.parametrize("scheme, levels, thresholds", [
    ("dhss", "2,3", "2,3"), ("chss", "2,3", "2,3"), ("ab", "5", "3"),
])
def test_redeal_over_an_old_deal_matches_a_fresh_one(tmp_path, capsys, scheme,
                                                     levels, thresholds):
    params = tmp_path / "params.json"
    assert main(["gen-params", "--m0-bits", "64", "--levels", levels,
                 "--thresholds", thresholds, "--scheme", scheme, "--seed", "1",
                 "--out", str(params)]) == 0
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    deal = ["deal", "--params", str(params), "--emit-dealer-secrets", "--out-dir"]
    assert main(deal + [str(old), "--secret", "987654321987654321", "--seed", "2"]) == 0
    for out_dir in (old, fresh):
        assert main(deal + [str(out_dir), "--secret", "7", "--seed", "3"]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in old.iterdir()) == names
    for name in names:
        assert (old / name).read_bytes() == (fresh / name).read_bytes(), name


def test_share_files_and_dealer_secrets_are_private(tmp_path, micro_param_file,
                                                    capsys):
    out_dir = tmp_path / "deal"
    out_dir.mkdir()
    for name in ("share_001.json", "dealer_secrets.json", "public_bundle.json"):
        (out_dir / name).write_text("{}")
        (out_dir / name).chmod(0o644)
    old_umask = os.umask(0o022)
    try:
        assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                     "--seed", "1", "--out-dir", str(out_dir),
                     "--emit-dealer-secrets"]) == 0
    finally:
        os.umask(old_umask)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out_dir.iterdir()}
    assert modes == {
        "share_001.json": 0o600, "share_002.json": 0o600, "share_003.json": 0o600,
        "dealer_secrets.json": 0o600, "public_bundle.json": 0o644,
    }


def test_deal_and_reconstruct_dhss(tmp_path, micro_param_file, capsys):
    # the hand-checked affine vector is pinned by test_dhss.test_worked_deal;
    # the file form carries the hash_based OWF, which changes only the masks w
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
    assert w == {(1, 1): "3", (1, 2): "7"}
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


def test_deal_and_reconstruct_chss(tmp_path, micro_chss_param_file, capsys):
    out_dir = tmp_path / "deal"
    code = main([
        "deal", "--params", str(micro_chss_param_file), "--secret", "4",
        "--seed", str(CHSS_SEED), "--out-dir", str(out_dir),
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


def test_out_of_range_secret_is_not_printed(tmp_path, micro_param_file, capsys):
    # the refusal used to name the secret, so a real secret dealt against
    # the wrong parameter file ended up on stderr
    secret = "318665857834031151167461"
    for argv in (
        ["deal", "--params", str(micro_param_file), "--secret", secret,
         "--seed", "1", "--out-dir", str(tmp_path / "d")],
        ["audit", "--params", str(micro_param_file), "--adversary", "2",
         "--secret", secret, "--seed", "1"],
    ):
        assert main(argv) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "" and err == "error: secret not in [0, 7)\n"
        assert secret not in err


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


def test_digest_mismatch(tmp_path, micro_param_file, micro_chss_param_file, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    main(["deal", "--params", str(micro_param_file), "--secret", "4",
          "--seed", str(DHSS_SEED), "--out-dir", str(dir_a)])
    main(["deal", "--params", str(micro_chss_param_file), "--secret", "4",
          "--seed", "9", "--out-dir", str(dir_b)])
    code = main([
        "reconstruct", "--public", str(dir_a / "public_bundle.json"),
        "--shares", str(dir_b / "share_001.json"),
    ])
    assert code == 5


@pytest.mark.parametrize("scheme, other", [("dhss", "chss"), ("chss", "ab"),
                                           ("ab", "dhss")])
def test_share_with_an_edited_scheme_label_exit_5(tmp_path, micro_params,
                                                  flat_params, scheme, other, capsys):
    # the digest still matches the bundle's; only the label says otherwise
    params = flat_params if scheme == "ab" else micro_params
    path = tmp_path / "params.json"
    path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(path), "--secret", "4", "--seed", "1",
                 "--out-dir", str(out_dir)]) == 0
    shares = [out_dir / f"share_{i:03d}.json" for i in (1, 2, 3)]
    argv = ["reconstruct", "--public", str(out_dir / "public_bundle.json"),
            "--shares", *map(str, shares)]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == ("4\n", "")
    obj = read(shares[0])
    obj["scheme"] = other
    shares[0].write_text(canonical_dumps(obj))
    assert main(argv) == 5
    assert capsys.readouterr() == (
        "", f"error: share {shares[0]} does not belong to this bundle's parameters\n")


def test_bundle_scheme_differs_from_its_parameters_exit_2(tmp_path,
                                                          micro_param_file, capsys):
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    bundle = out_dir / "public_bundle.json"
    obj = read(bundle)
    obj["scheme"] = "chss"
    bundle.write_text(canonical_dumps(obj))
    capsys.readouterr()
    assert main(["reconstruct", "--public", str(bundle), "--shares",
                 *(str(out_dir / f"share_{i:03d}.json") for i in (1, 2, 3))]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot read bundle: bundle file: scheme differs from "
        "embedded parameters\n")


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


def test_multi_level_flat_file_exit_3_in_deal_and_audit(tmp_path, micro_params,
                                                        capsys):
    # a two-level parameter file labelled ab: no flat deal can serve it, so
    # audit refuses it as deal does instead of auditing it as dhss
    path = tmp_path / "flat2.json"
    path.write_text(canonical_dumps(param_file_obj("ab", micro_params)))
    refusal = "error: flat dealing needs a single-level parameter set\n"
    assert main(["deal", "--params", str(path), "--secret", "3", "--seed", "5",
                 "--out-dir", str(tmp_path / "d")]) == 3
    assert capsys.readouterr() == ("", refusal)
    assert not (tmp_path / "d").exists()
    assert main(["audit", "--params", str(path), "--adversary", "2",
                 "--seed", "3"]) == 3
    assert capsys.readouterr() == ("", refusal)


def test_invalid_param_file_exit_3_in_deal_and_audit(tmp_path, micro_params, capsys):
    # two equal moduli fail validation: deal and audit both refuse the file
    # with exit 3 and the same message, and nothing is written
    obj = param_file_obj("dhss", micro_params)
    obj["sequence"]["m0"] = "997"
    obj["sequence"]["moduli"] = ["1007", "1007", "1021"]
    path = tmp_path / "dup.json"
    path.write_text(canonical_dumps(obj))
    assert main(["deal", "--params", str(path), "--secret", "3", "--seed", "5",
                 "--out-dir", str(tmp_path / "d")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: sequence: ")
    assert "gcd(m_1, m_2) = gcd(1007, 1007) = 1007" in err
    assert not (tmp_path / "d").exists()
    assert main(["audit", "--params", str(path), "--adversary", "2",
                 "--seed", "3"]) == 3
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["deal", "--secret", "4", "--seed", "1", "--scheme", "chss", "--out-dir"],
    ["audit", "--adversary", "2", "--seed", "3", "--scheme", "dhss", "--out"],
], ids=["deal", "audit"])
def test_scheme_flag_belongs_to_gen_params_alone(tmp_path, micro_param_file, capsys,
                                                 argv):
    # the parameter file names the scheme; deal and audit take no override
    out = tmp_path / "out"
    code = main([*argv, str(out), "--params", str(micro_param_file)])
    stdout, err = capsys.readouterr()
    assert code == 2
    assert stdout == "" and err.startswith("usage: crthss ")
    assert "unrecognized arguments: --scheme" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("scheme, levels, thresholds", [
    ("dhss", "1,2", "1,2"), ("chss", "1,2", "1,2"), ("ab", "3", "2"),
])
def test_share_digest_is_the_param_file_hash(tmp_path, capsys, scheme, levels,
                                             thresholds):
    params = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "997", "--levels", levels,
                 "--thresholds", thresholds, "--scheme", scheme, "--seed", "1",
                 "--out", str(params)]) == 0
    assert main(["deal", "--params", str(params), "--secret", "123", "--seed", "2",
                 "--out-dir", str(tmp_path / "d")]) == 0
    digest = hashlib.sha256(params.read_bytes()).hexdigest()
    shares = sorted((tmp_path / "d").glob("share_*.json"))
    assert len(shares) == 3
    assert {read(p)["params_digest"] for p in shares} == {digest}
    assert f"params digest: {digest}\n" in capsys.readouterr().out


@pytest.mark.parametrize("scheme, levels, thresholds, adversary", [
    ("dhss", "1,2", "1,2", "2"), ("chss", "1,2", "1,2", "2"), ("ab", "5", "3", "1,2"),
])
def test_audit_digest_is_the_param_file_hash(tmp_path, capsys, scheme, levels,
                                             thresholds, adversary):
    # a flat file is counted as single-level dhss but reported as itself
    params = tmp_path / "params.json"
    assert main(["gen-params", "--m0", "997", "--levels", levels,
                 "--thresholds", thresholds, "--scheme", scheme, "--seed", "6",
                 "--out", str(params)]) == 0
    capsys.readouterr()
    assert main(["audit", "--params", str(params), "--adversary", adversary,
                 "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme"] == scheme
    assert report["params_digest"] == hashlib.sha256(params.read_bytes()).hexdigest()
    assert main(["audit", "--params", str(params), "--adversary", adversary,
                 "--ladder", "997,9973", "--seed", "3"]) == 0
    rungs = json.loads(capsys.readouterr().out)["ladder"]
    assert [r["scheme"] for r in rungs] == [scheme, scheme]


def SchemeParamsFlat(params):
    from crthss.params import Hierarchy, SchemeParams
    return SchemeParams(
        sequence=params.sequence,
        hierarchy=Hierarchy((3,), (2,)),
        family_tag=params.family_tag,
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
def test_reconstruct_malformed_shares_exit_2(tmp_path, micro_params,
                                             flat_params, scheme, victim, field,
                                             corrupt, partner):
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


def _write_deal(out_dir, scheme, result):
    """Share files and bundle of ``result`` under ``scheme``'s label and digest."""
    out_dir.mkdir()
    public = replace(result.public, params=replace(result.public.params, scheme=scheme))
    digest = params_digest(public.params)
    for share in result.shares:
        (out_dir / f"share_{share.participant:03d}.json").write_text(
            share_file_text(scheme, share, digest))
    (out_dir / "public_bundle.json").write_text(
        bundle_file_text(public))


def test_reconstruct_two_level_bundle_labelled_ab_exit_2(tmp_path, capsys):
    """A two-level deal labelled ``ab``, digests matching, is not a flat
    deal: reconstruct refuses it instead of solving it as one level (which
    printed a wrong secret for every seed)."""
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:5]),
        hierarchy=Hierarchy((2, 3), (2, 3)),
    )
    for seed in range(20):
        out_dir = tmp_path / f"deal{seed}"
        _write_deal(out_dir, "ab", crthss.deal(SECRET_61, params, seed))
        code = main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                     "--shares", str(out_dir / "share_001.json"),
                     str(out_dir / "share_002.json")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: flat dealing needs a single-level parameter set\n"


def test_reconstruct_ab_gates_shares_once(tmp_path, monkeypatch, capsys):
    # the CLI hands the parsed shares to reconstruct, which runs the share
    # gate; it used to gate them itself first
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:5]),
        hierarchy=Hierarchy((5,), (3,)),
    )
    out_dir = tmp_path / "deal"
    _write_deal(out_dir, "ab", crthss.deal(SECRET_61, params, 5))
    calls = []

    def counted(shares, params):
        calls.append(len(shares))
        return gate(shares, params)

    gate = crthss.dhss.dedupe_shares
    monkeypatch.setattr(crthss.dhss, "dedupe_shares", counted)
    monkeypatch.setattr(crthss.cli, "dedupe_shares", counted, raising=False)
    assert main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                 "--shares", *(str(out_dir / f"share_00{i}.json") for i in (1, 3, 5))]) == 0
    assert capsys.readouterr().out == f"{SECRET_61}\n"
    assert calls == [3]


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


def _replace(obj, path, value):
    """Set obj at a key path; returns the value replaced."""
    for key in path[:-1]:
        obj = obj[key]
    old, obj[path[-1]] = obj[path[-1]], value
    return old


# file, key path, the replacement, and the field the refusal names: the
# small counts must be JSON integers, the big integers strings of ASCII digits
STRICT_TYPE_CASES = {
    "share-value-float": ("share", ("value",), 1.9, "value of participant 1"),
    "share-value-true": ("share", ("value",), True, "value of participant 1"),
    "share-value-json-number": ("share", ("value",), None, "value of participant 1"),
    "share-value-signed": ("share", ("value",), "+5", "value of participant 1"),
    "share-value-arabic-digits": ("share", ("value",), "\u0665", "value of participant 1"),
    "share-modulus-json-number": ("share", ("modulus",), None, "modulus"),
    "share-participant-float": ("share", ("participant",), 1.0, "participant"),
    "share-participant-string": ("share", ("participant",), "1", "participant"),
    "share-level-true": ("share", ("level",), True, "level"),
    "bundle-w-value-json-number": ("bundle", ("w", 0, "value"), None, "w entry (1, 1)"),
    "bundle-w-participant-true": ("bundle", ("w", 0, "participant"), True, "participant"),
    "bundle-m0-json-number": ("bundle", ("params", "sequence", "m0"), None, "m0"),
    "params-m0-float": ("params", ("sequence", "m0"), float(M0_61), "m0"),
    "params-modulus-json-number": ("params", ("sequence", "moduli", 1), None, "moduli"),
    "params-k-float": ("params", ("sequence", "k"), 1.0, "k"),
    "params-k-true": ("params", ("sequence", "k"), True, "k"),
    "params-theta-float": ("params", ("sequence", "theta"), 0.5, "theta"),
    "params-level-sizes-float": ("params", ("hierarchy", "level_sizes", 0), 1.0,
                                 "level_sizes"),
    "params-thresholds-string": ("params", ("hierarchy", "thresholds"), "12",
                                 "thresholds"),
}


@pytest.mark.parametrize("case", sorted(STRICT_TYPE_CASES))
def test_strict_json_types_exit_2(tmp_path, capsys, case):
    """A field of the wrong JSON type exits 2 naming the field, never the
    value; None in a case means the right number as a JSON number."""
    which, path, value, field = STRICT_TYPE_CASES[case]
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:3]),
        hierarchy=Hierarchy((1, 2), (1, 2)),
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj("dhss", params)))
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(param_path), "--secret", str(SECRET_61),
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    values = {read(out_dir / "share_001.json")["value"]}
    values |= {e["value"] for e in read(out_dir / "public_bundle.json")["w"]}
    target = {"params": param_path, "share": out_dir / "share_001.json",
              "bundle": out_dir / "public_bundle.json"}[which]
    obj = read(target)
    if value is None:
        value = int(_replace(obj, path, None))
    _replace(obj, path, value)
    target.write_text(json.dumps(obj))
    capsys.readouterr()
    if which == "params":
        argv = ["deal", "--params", str(param_path), "--secret", "5",
                "--seed", "1", "--out-dir", str(tmp_path / "again")]
    else:
        argv = ["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                "--shares", str(out_dir / "share_001.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ") and field in err
    assert not [v for v in values if v in err]
    assert set(re.findall(r"\d{19,}", err)) <= {str(m) for m in MODULI_61}


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
                        hierarchy=Hierarchy((3,), (3,)),
                        family_tag=micro_params.family_tag)
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
    # every CRT solve, crt_solve's and reconstruct's, is one GarnerFold.solve
    monkeypatch.setattr(crthss.crt.GarnerFold, "solve",
                        counted("crt", crthss.crt.GarnerFold.solve))
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


def test_audit_counts_past_the_float_range(tmp_path, capsys):
    # one share of six at a 256-bit m0 leaves each secret about 2^1023
    # candidates, so c*log2(c) is past the float range
    m0 = next(p for p in range(2**255 + 1, 2**255 + 10**5, 2) if crthss.is_prime(p))
    hierarchy = Hierarchy((6,), (6,))
    sequence = generate_compact_sequence(m0, hierarchy.n, 1, Fraction(1, 2), 1)
    assert all(m0 < m < m0 + math.isqrt(m0) for m in sequence.moduli)
    path = tmp_path / "big6.json"
    path.write_text(canonical_dumps(param_file_obj(
        "dhss", SchemeParams(sequence=sequence, hierarchy=hierarchy))))
    assert main(["audit", "--params", str(path), "--adversary", "1", "--seed", "1",
                 "--budget", str(2**400)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert max(int(g["candidates"]) for g in report["groups"]) > 2**1000
    assert 0 <= report["loss_bits"] <= report["secret_entropy_bits"]


def test_audit_ladder(tmp_path, capsys):
    params_path = tmp_path / "shape.json"
    main([
        "gen-params", "--m0", "97", "--levels", "1,2", "--thresholds", "1,2",
        "--seed", "1", "--out", str(params_path),
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


def test_audit_chss(tmp_path, micro_chss_param_file, capsys):
    out = tmp_path / "report.json"
    code = main([
        "audit", "--params", str(micro_chss_param_file),
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
        "--theta", "2/3", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    obj = read(out)
    m0 = int(obj["sequence"]["m0"])
    assert m0.bit_length() == 24
    from crthss.params import is_prime
    assert is_prime(m0)


@pytest.mark.parametrize("bits", [40, 128, 256])
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


@pytest.mark.parametrize("scheme", ["dhss", "chss"])
def test_deal_without_seed_uses_system_randomness(tmp_path, monkeypatch, capsys,
                                                   scheme):
    """A seedless deal draws from the system CSPRNG: no Mersenne Twister is
    built, no seed or commitment is printed or stored, and two deals of one
    secret share no dealt or published value."""
    def no_seeded_rng(*args, **kwargs):
        raise AssertionError("a seedless deal constructed random.Random")

    hierarchy = Hierarchy((2, 3, 4), (2, 3, 5))
    params = SchemeParams(
        sequence=CompactSequence(m0=M0_61, moduli=MODULI_61[:hierarchy.n]),
        hierarchy=hierarchy,
    )
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    monkeypatch.setattr(random, "Random", no_seeded_rng)
    dealt = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["deal", "--params", str(param_path), "--secret", str(SECRET_61),
                     "--out-dir", str(out_dir), "--emit-dealer-secrets"]) == 0
        out = capsys.readouterr().out
        assert "seed:" not in out and "commitment" not in out
        assert read(out_dir / "dealer_secrets.json")["seed"] is None
        shares = [read(out_dir / f"share_{i:03d}.json")["value"]
                  for i in range(1, hierarchy.n + 1)]
        masked = [e["value"] for e in read(out_dir / "public_bundle.json")["w"]]
        dealt.append((set(shares), set(masked)))
        assert main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                     "--shares", *[str(out_dir / f"share_{i:03d}.json")
                                   for i in range(1, hierarchy.n + 1)]]) == 0
        assert capsys.readouterr().out == f"{SECRET_61}\n"
    (shares_a, w_a), (shares_b, w_b) = dealt
    assert not shares_a & shares_b
    assert not w_a & w_b


def test_gen_params_and_audit_without_seed_use_system_randomness(
        tmp_path, micro_param_file, monkeypatch, capsys):
    """Without --seed, gen-params and audit draw from the system CSPRNG and
    print no seed line: no seed exists to print or commit to."""
    built = []

    class SpyRandom(secrets.SystemRandom):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(secrets, "SystemRandom", SpyRandom)
    gen = ["gen-params", "--m0-bits", "24", "--levels", "1,2", "--thresholds", "1,2"]
    assert main([*gen, "--out", str(tmp_path / "p.json")]) == 0
    out, err = capsys.readouterr()
    assert len(built) == 1
    assert out.startswith(f"wrote {tmp_path / 'p.json'}\nm0 = ") and err == ""
    assert "seed" not in out and "commitment" not in out

    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2"]) == 0
    out, err = capsys.readouterr()
    assert len(built) == 2
    assert json.loads(out)["scheme"] == "dhss" and err == ""

    # with --seed, the seed line, every draw and the file bytes stay pinned
    path = tmp_path / "seeded.json"
    assert main([*gen, "--seed", "1", "--out", str(path)]) == 0
    assert capsys.readouterr() == (
        f"wrote {path}\n"
        "seed: 1 (explicit)\n"
        "m0 = 10931917, moduli = [10932121, 10932991, 10934366]\n"
        "Asmuth-Bloom inequality holds at level 1 (t=1)\n"
        "Asmuth-Bloom inequality holds at level 2 (t=2)\n"
        "information rate rho = 0.999986\n"
        "1-compact analytic floor = 0.999981\n",
        "",
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0cfbe107c83e34bc0170c5e45471a3dfddeab7cb1ed8e56c00a039e6584f3536"
    )
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().err == "seed: 3 (explicit)\n"
    assert len(built) == 2


def test_deal_with_seed_prints_it(tmp_path, micro_param_file, capsys):
    out_dir = tmp_path / "d"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "9", "--out-dir", str(out_dir),
                 "--emit-dealer-secrets"]) == 0
    assert "seed: 9 (explicit)" in capsys.readouterr().out
    assert read(out_dir / "dealer_secrets.json")["seed"] == "9"


def test_deal_renders_the_parameter_file_once(tmp_path, micro_param_file,
                                               monkeypatch):
    """The digest in every share file and the bundle's embedded parameters
    come from one rendering of the parameter file, byte for byte the file
    itself."""
    rendered = []
    render = crthss.fileformat.param_file_text

    def spy(params):
        rendered.append(render(params))
        return rendered[-1]

    monkeypatch.setattr(crthss.fileformat, "param_file_text", spy)
    monkeypatch.setattr(crthss.cli, "param_file_text", spy)
    out_dir = tmp_path / "d"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "9", "--out-dir", str(out_dir)]) == 0
    text = micro_param_file.read_text()
    assert rendered == [text]
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert read(out_dir / "share_001.json")["params_digest"] == digest
    assert read(out_dir / "public_bundle.json")["params"] == json.loads(text)


def test_inspect(tmp_path, micro_param_file, capsys):
    code = main(["inspect", str(micro_param_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "parameter file" in out

    deal_dir = tmp_path / "deal"
    report, ladder = tmp_path / "report.json", tmp_path / "ladder.json"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(deal_dir),
                 "--emit-dealer-secrets"]) == 0
    audit = ["audit", "--params", str(micro_param_file), "--adversary", "2",
             "--seed", "3", "--out"]
    assert main([*audit, str(report)]) == 0
    assert main([*audit, str(ladder), "--ladder", "97"]) == 0
    capsys.readouterr()
    for path, kind in ((deal_dir / "share_002.json", "share file"),
                       (deal_dir / "public_bundle.json", "public bundle"),
                       (deal_dir / "dealer_secrets.json", "dealer secrets"),
                       (report, "audit report"), (ladder, "audit report")):
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == f"# {path}: {kind}\n" + path.read_text()

    code = main(["inspect", str(tmp_path / "missing.json")])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2


# -- flag types --------------------------------------------------------------------

@pytest.mark.parametrize("flag, value", [
    ("--adversary", "x"),
    ("--adversary", "2,x"),
    ("--ladder", "97,x"),
    ("--ladder", ""),
    ("--ladder", ","),
    ("--epsilon", "nan"),
    ("--epsilon", "inf"),
    ("--epsilon", "-0.5"),
    ("--epsilon", "x"),
])
def test_audit_malformed_flag_is_a_usage_error(micro_param_file, capsys, flag, value):
    code = main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "3", flag, value])
    out, err = capsys.readouterr()
    # audit has no --epsilon: argparse refuses it under the top-level usage line
    usage = "usage: crthss [-h]" if flag == "--epsilon" else "usage: crthss audit"
    assert code == 2
    assert out == "" and usage in err and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["", ","])
def test_audit_empty_adversary_is_accepted(micro_param_file, capsys, value):
    # --ladder refuses an empty list; --adversary keeps the empty set
    assert main(["audit", "--params", str(micro_param_file), "--adversary", value,
                 "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["adversary"] == []


@pytest.mark.parametrize("flag", ["--levels", "--thresholds"])
def test_gen_params_malformed_list_is_a_usage_error(tmp_path, capsys, flag):
    argv = {"--levels": "1,2", "--thresholds": "1,2"}
    argv[flag] = "1;2"
    code = main(["gen-params", "--m0", "997", "--levels", argv["--levels"],
                 "--thresholds", argv["--thresholds"], "--seed", "1",
                 "--out", str(tmp_path / "p.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert "usage: crthss gen-params" in err and "Traceback" not in err
    assert not (tmp_path / "p.json").exists()


def test_audit_has_no_epsilon_option(tmp_path, micro_param_file, capsys):
    # every report carries the one tolerance, 0.05; the audit never read it
    out = tmp_path / "report.json"
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "3", "--epsilon", "0.125", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments: --epsilon" in err
    assert not out.exists()
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    assert read(out)["epsilon_tolerance"] == 0.05


def test_audit_adversary_outside_the_file_exit_2(micro_param_file, capsys):
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "9",
                 "--seed", "3"]) == 2
    assert capsys.readouterr() == ("", "error: no shares for participants [9]\n")


# -- one parser per process ------------------------------------------------------

def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _files(directory):
    return {p: p.read_bytes() for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def test_every_command_runs_twice_in_one_process(tmp_path, capsys):
    params = tmp_path / "params.json"
    shares = tmp_path / "shares"
    commands = [
        ["gen-params", "--m0", "997", "--levels", "1,2", "--thresholds", "1,2",
         "--seed", "1", "--out", str(params)],
        ["deal", "--params", str(params), "--secret", "123", "--seed", "2",
         "--out-dir", str(shares), "--emit-dealer-secrets"],
        ["reconstruct", "--public", str(shares / "public_bundle.json"),
         "--shares", str(shares / "share_002.json"), str(shares / "share_003.json")],
        ["audit", "--params", str(params), "--adversary", "2", "--seed", "3",
         "--out", str(tmp_path / "audit.json")],
        ["audit", "--params", str(params), "--adversary", "2", "--seed", "3",
         "--ladder", "97,997"],
        ["inspect", str(params)],
    ]
    for argv in commands:
        first = _run(argv, capsys), _files(tmp_path)
        second = _run(argv, capsys), _files(tmp_path)
        assert first == second, argv[0]
        assert first[0][0] == 0, argv[0]
    assert first[0][1].startswith(f"# {params}: parameter file")


def test_no_option_leaks_into_the_next_call(tmp_path, micro_param_file, monkeypatch,
                                            capsys):
    from crthss import cli

    deal = ["deal", "--params", str(micro_param_file), "--secret", "4", "--seed", "1"]
    assert main([*deal, "--out-dir", str(tmp_path / "a"), "--emit-dealer-secrets"]) == 0
    assert (tmp_path / "a" / "dealer_secrets.json").exists()
    assert main([*deal, "--out-dir", str(tmp_path / "b")]) == 0
    assert not (tmp_path / "b" / "dealer_secrets.json").exists()

    dealt = []
    real_deal = cli.deal

    def recording_deal(secret, *rest):
        dealt.append(secret)
        return real_deal(secret, *rest)

    monkeypatch.setattr(cli, "deal", recording_deal)
    audit = ["audit", "--params", str(micro_param_file), "--adversary", "2",
             "--seed", "3"]
    drawn = random.Random(3).randrange(7)
    assert drawn != 5
    assert main([*audit, "--secret", "5"]) == 0
    assert main(audit) == 0
    assert dealt == [5, drawn]
    capsys.readouterr()


def test_main_does_not_rebuild_the_parser(tmp_path, micro_param_file, monkeypatch,
                                          capsys):
    from crthss import cli

    def no_build():
        raise AssertionError("build_parser called per command")

    monkeypatch.setattr(cli, "build_parser", no_build)
    out_dir = tmp_path / "d"
    assert main(["deal", "--params", str(micro_param_file), "--secret", "4",
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    assert main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                 "--shares", str(out_dir / "share_001.json")]) == 0
    assert main(["audit", "--params", str(micro_param_file), "--adversary", "2",
                 "--seed", "3"]) == 0
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_command_patched_after_import_is_the_one_run(monkeypatch, capsys):
    from crthss import cli

    seen = []
    monkeypatch.setattr(cli, "audit_command", lambda args: seen.append(args) or 42)
    assert main(["audit", "--params", "p.json", "--adversary", "2,3"]) == 42
    assert seen[0].adversary == (2, 3)


@pytest.mark.parametrize("command", [[], ["gen-params"], ["deal"], ["reconstruct"],
                                     ["audit"], ["inspect"]])
def test_help_matches_a_freshly_built_parser(monkeypatch, capsys, command):
    from crthss import cli

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*command, "--help"])
    fresh = capsys.readouterr().out
    assert fresh.startswith(f"usage: crthss {' '.join(command)}".rstrip())
    for _ in range(2):
        assert main([*command, "--help"]) == 0
        assert capsys.readouterr().out == fresh


# per command: a valid argv, an unknown option, a missing required option, a
# bad type= value, an abbreviated option, a leftover argument and a "--"
_COMMAND_ARGVS = {
    "gen-params": (
        ["--m0", "997", "--levels", "1,2", "--thresholds", "1,2", "--out", "p"],
        ["--m0", "997", "--levels", "1,2", "--thresholds", "1,2", "--out", "p",
         "--bogus"],
        ["--m0", "997", "--levels", "1,2", "--thresholds", "1,2"],
        ["--levels", "1,2", "--thresholds", "1,2", "--out", "p"],
        ["--m0", "997", "--m0-bits", "8", "--levels", "1", "--thresholds", "1",
         "--out", "p"],
        ["--m0", "x", "--levels", "1,2", "--thresholds", "1,2", "--out", "p"],
        ["--m0", "997", "--levels", "1,x", "--thresholds", "1,2", "--out", "p"],
        ["--m0", "997", "--lev", "1,2", "--thres", "1,2", "--out", "p"],
        ["--m0", "997", "--levels", "1,2", "--thresholds", "1,2", "--out", "p",
         "--theta", "1/0", "--scheme", "x"],
    ),
    "deal": (
        ["--params", "p", "--secret", "3", "--out-dir", "d", "--emit-dealer-secrets"],
        ["--params", "p", "--secret", "3", "--out-dir", "d", "--scheme", "dhss"],
        ["--params", "p", "--out-dir", "d"],
        ["--params", "p", "--secret", "x", "--out-dir", "d"],
        ["--params", "p", "--secret", "3", "--out-dir", "d", "extra"],
        ["--params", "p", "--secret", "3", "--out-dir", "d", "--", "x"],
        ["--params", "p", "--secret=-3", "--out-dir", "d"],
    ),
    "reconstruct": (
        ["--public", "b", "--shares", "s1", "s2"],
        ["--public", "b", "--shares"],
        ["--shares", "s1"],
        ["--public", "b", "--shares", "s1", "-x"],
        ["--public", "b", "--pub", "c", "--shares", "s1"],
        ["--", "--public", "b", "--shares", "s1"],
        ["--public", "b", "--shares", "--", "-s1"],
    ),
    "audit": (
        ["--params", "p", "--adversary", "2,3", "--ladder", "97,997", "--seed", "1"],
        ["--params", "p", "--adversary", "2", "--epsilon", "0.1"],
        ["--params", "p"],
        ["--params", "p", "--adversary", "2", "--ladder", ""],
        ["--params", "p", "--adversary", "2", "--budget", "1e6"],
        ["--params", "p", "--adv", "2", "--bud", "5"],
    ),
    "inspect": (["f"], [], ["f", "g"], ["--bogus", "f"], ["--", "-f"]),
}
_TOP_ARGVS = ([], ["bogus"], ["-h"], ["--help"], ["--he"], ["--bogus"],
              ["-h", "deal"], ["--version"], ["Deal"], ["dea"], ["--", "deal"])


def _outcome(parse, argv, capsys):
    """What parsing argv gives: the namespace or the exit code, and the
    text written to stdout and stderr."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", [
    *_TOP_ARGVS,
    *([command, *args] for command, argvs in _COMMAND_ARGVS.items()
      for args in (*argvs, ["-h"], ["--help"])),
], ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_matches_the_full_parser(monkeypatch, capsys, argv):
    # the command's own parser and the whole tree give the same namespace,
    # or the same exit code, stdout and stderr, on the running Python
    from crthss import cli

    monkeypatch.setenv("COLUMNS", "80")
    full = _outcome(cli._PARSER.parse_args, argv, capsys)
    assert _outcome(cli._parse_args, argv, capsys) == full
    if isinstance(full[0], tuple):
        assert main(list(argv)) == full[0][1]
        assert capsys.readouterr() == full[1:]


def test_dispatch_reads_sys_argv(monkeypatch):
    from crthss import cli

    argv = ["inspect", "f"]
    monkeypatch.setattr(sys, "argv", ["crthss", *argv])
    assert vars(cli._parse_args(None)) == vars(cli._PARSER.parse_args(argv))


def test_well_formed_command_takes_one_parser_pass(monkeypatch):
    # the whole tree is not consulted when the command's parser takes all
    from crthss import cli

    class Refusing:
        def parse_args(self, argv):
            raise AssertionError(f"whole tree consulted for {argv}")

    monkeypatch.setattr(cli, "_PARSER", Refusing())
    for command, argvs in _COMMAND_ARGVS.items():
        args = cli._parse_args([command, *argvs[0]])
        assert args.command == command
