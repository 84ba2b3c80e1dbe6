"""A SchemeParams is checked on its first deal and keeps its verdict.

The deal check (BPSW of m0 and one gcd per product-tree node) is the
``violations`` property, worked out once per object: a CLI deal or audit
loads a fresh object and pays it once, a reconstruct never, and a library
caller dealing many secrets from one object once. The scheme is a field of
the object, so dealing another scheme means another object, with its own
verdict; a flat ("ab") object with more than one level gets the one
refusal line and no other check. A sequence
``generate_compact_sequence`` returns is marked ``generated`` and skips the
structure check, so a ladder rung tests its m0 once, when the sequence is
generated; any other sequence, a ``dataclasses.replace`` of a generated one
included, gets the full check.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from crthss import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    deal,
    generate_compact_sequence,
)
from crthss import crt as crt_module
from crthss import params as params_module
from crthss.cli import main
from crthss.crt import product_tree
from crthss.errors import InvalidParams
from crthss.fileformat import canonical_dumps, param_file_obj


@pytest.fixture
def checks(monkeypatch):
    """Calls of the structural check, counted: one per verdict worked out."""
    calls = []
    real = params_module._structure_violations

    def counting(seq):
        calls.append(seq.m0)
        return real(seq)

    monkeypatch.setattr(params_module, "_structure_violations", counting)
    return calls


def _write(tmp_path, scheme, params):
    path = tmp_path / f"{scheme}.json"
    path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    return path


def test_invalid_params_keep_their_message_on_every_deal(checks):
    # composite m0 and three moduli for four participants: one object per
    # scheme refuses every deal with the same message, from one check each
    bad = SchemeParams(CompactSequence(m0=10, moduli=(11, 13, 17)),
                       Hierarchy((1, 3), (1, 2)))
    message = "sequence: m0 = 10 is not prime; 3 moduli for 4 participants"
    for params in (bad, replace(bad, scheme="chss")):
        for seed in (1, 2):
            with pytest.raises(InvalidParams) as info:
                deal(3, params, seed)
            assert str(info.value) == message
    assert checks == [10, 10]


def test_replaced_params_get_their_own_verdict(micro_params, checks):
    deal(3, micro_params, 1)
    broken = replace(micro_params, sequence=CompactSequence(m0=7, moduli=(11, 11, 17)))
    with pytest.raises(InvalidParams) as info:
        deal(3, broken, 1)
    assert str(info.value) == "sequence: not strictly increasing at position 2: " \
        "11 >= 11; sequence: gcd(m_1, m_2) = gcd(11, 11) = 11"
    assert checks == [7, 7]
    deal(3, micro_params, 2)  # the first object keeps its pass
    assert len(checks) == 2


@pytest.mark.parametrize("scheme", ["dhss", "chss"])
def test_second_library_deal_runs_no_check(micro_params, checks, scheme):
    params = replace(micro_params, scheme=scheme)
    deal(3, params, 1)
    assert len(checks) == 1
    deal(4, params, 2)
    assert len(checks) == 1


def test_replaced_scheme_gets_its_own_verdict(micro_params, checks):
    deal(3, micro_params, 1)
    conj = replace(micro_params, scheme="chss")
    assert checks == [7]
    for seed in (1, 2, 3):
        deal(4, conj, seed)
    assert checks == [7, 7]
    assert conj.violations == micro_params.violations == ()


FLAT_REFUSAL = "flat dealing needs a single-level parameter set"


def test_two_level_flat_verdict_is_the_one_refusal(micro_params, checks):
    flat = replace(micro_params, scheme="ab")
    assert flat.violations == (FLAT_REFUSAL,)
    with pytest.raises(InvalidParams) as info:
        deal(3, flat, 1)
    assert str(info.value) == FLAT_REFUSAL
    # nothing else is checked or added, a broken sequence and hierarchy
    # included
    broken = replace(flat, sequence=CompactSequence(m0=10, moduli=(11, 11)),
                     hierarchy=Hierarchy((1, 2), (2, 2)))
    assert broken.violations == (FLAT_REFUSAL,)
    assert checks == []
    # one level passes the rule, and an unknown scheme is refused alone
    assert replace(flat, hierarchy=Hierarchy((3,), (2,))).violations == ()
    assert checks == [7]
    assert replace(broken, scheme="nope").violations == ("unknown scheme 'nope'",)


def test_cli_deal_and_audit_check_once_each(tmp_path, micro_params, checks, capsys):
    for scheme in ("dhss", "chss"):
        path = _write(tmp_path, scheme, micro_params)
        assert main(["deal", "--params", str(path), "--secret", "4", "--seed", "1",
                     "--out-dir", str(tmp_path / scheme)]) == 0
        assert len(checks) == 1
        assert main(["audit", "--params", str(path), "--adversary", "2",
                     "--seed", "3"]) == 0
        assert len(checks) == 2
        checks.clear()


@pytest.fixture
def primality_tests(monkeypatch):
    """Calls of params.is_prime, as (n, verdict) pairs."""
    calls = []
    real = params_module.is_prime

    def counting(n):
        verdict = real(n)
        calls.append((n, verdict))
        return verdict

    monkeypatch.setattr(params_module, "is_prime", counting)
    return calls


def test_cli_audit_ladder_checks_each_rung_once(tmp_path, micro_params, checks,
                                                primality_tests, capsys):
    # each rung's m0 passes BPSW once, in generate_compact_sequence; the
    # rung's deal takes the generated sequence's verdict
    path = _write(tmp_path, "dhss", micro_params)
    assert main(["audit", "--params", str(path), "--adversary", "2",
                 "--ladder", "97,997,9973", "--seed", "1"]) == 0
    assert primality_tests == [(97, True), (997, True), (9973, True)]
    assert checks == []


def test_generated_sequence_carries_its_verdict(micro_params, checks,
                                                primality_tests):
    sequence = generate_compact_sequence(997, 3, 1, Fraction(1, 2), 5)
    params = replace(micro_params, sequence=sequence)
    deal(3, params, 1)
    assert primality_tests == [(997, True)]
    assert checks == []
    assert params.violations == ()


def test_hand_built_sequence_gets_the_full_check(micro_params, checks,
                                                 primality_tests):
    # the same numbers as a generated sequence, built by hand
    generated = generate_compact_sequence(997, 3, 1, Fraction(1, 2), 5)
    primality_tests.clear()
    sequence = CompactSequence(m0=997, moduli=generated.moduli)
    assert sequence == generated
    deal(3, replace(micro_params, sequence=sequence), 1)
    assert primality_tests == [(997, True)]
    assert checks == [997]


def test_replaced_generated_sequence_gets_the_full_check(micro_params, checks,
                                                         primality_tests):
    generated = generate_compact_sequence(997, 3, 1, Fraction(1, 2), 5)
    primality_tests.clear()
    # a modulus shared with m_1: the replaced sequence keeps no verdict
    moduli = (generated.moduli[0], generated.moduli[1], 5 * generated.moduli[0])
    broken = replace(micro_params, sequence=replace(generated, moduli=moduli))
    with pytest.raises(InvalidParams) as info:
        deal(3, broken, 1)
    assert "gcd(m_1, m_3)" in str(info.value)
    assert primality_tests == [(997, True)]
    assert checks == [997]


def test_cli_reconstruct_runs_no_check(tmp_path, checks, capsys):
    # 256-bit m0 and n = 200: the bundle's parameters are read, never checked
    m0 = 2**256 - 189
    sequence = generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 4)
    params = SchemeParams(sequence, Hierarchy((10, 40, 150), (5, 20, 60)))
    path = _write(tmp_path, "dhss", params)
    out_dir = tmp_path / "deal"
    assert main(["deal", "--params", str(path), "--secret", "123", "--seed", "5",
                 "--out-dir", str(out_dir)]) == 0
    assert checks == [m0]
    capsys.readouterr()
    shares = sorted(str(p) for p in out_dir.glob("share_*.json"))
    assert len(shares) == 200
    for chosen in (shares, shares[:5]):
        assert main(["reconstruct", "--public", str(out_dir / "public_bundle.json"),
                     "--shares", *chosen]) == 0
        assert capsys.readouterr().out == "123\n"
    assert checks == [m0]


# the coprimality tree is built over the moduli alone and m0 is checked
# against the nodes of its top row: each refusal, word for word and in the
# order of its pairs, positions counted in (m0, m_1..m_n)
STRUCTURE_REFUSALS = [
    # a modulus that is a multiple of m0
    ((101, (103, 107, 109, 113, 202, 211, 223, 227, 229)),
     ("gcd(m_0, m_5) = gcd(101, 202) = 101",)),
    # two moduli that share a factor
    ((101, (103, 105, 107, 109, 113, 127, 131, 175, 229)),
     ("gcd(m_2, m_8) = gcd(105, 175) = 35",)),
    # both at once
    ((101, (103, 105, 107, 109, 113, 127, 131, 175, 303)),
     ("gcd(m_0, m_9) = gcd(101, 303) = 101",
      "gcd(m_2, m_8) = gcd(105, 175) = 35",
      "gcd(m_2, m_9) = gcd(105, 303) = 3")),
    # a composite m0 that shares a factor with moduli below both top nodes
    ((105, (107, 108, 109, 113, 121, 127, 131, 137, 139, 143, 175)),
     ("m0 = 105 is not prime",
      "gcd(m_0, m_2) = gcd(105, 108) = 3",
      "gcd(m_0, m_11) = gcd(105, 175) = 35",
      "gcd(m_5, m_10) = gcd(121, 143) = 11")),
]


@pytest.mark.parametrize("sequence, refusals", STRUCTURE_REFUSALS)
def test_structure_refusals_are_pinned(sequence, refusals):
    m0, moduli = sequence
    seq = CompactSequence(m0=m0, moduli=moduli)
    assert params_module._structure_violations(seq) == refusals
    assert seq.tree == product_tree(moduli)


def test_a_deal_builds_one_tree_over_all_moduli(tmp_path, monkeypatch):
    # the verdict builds the tree of all 200 moduli, and the top level's
    # lift walk descends it: no second tree of all of them, and the lower
    # levels' walks build theirs over their own prefixes only
    sizes = []

    def counting(values, cap=None):
        sizes.append(len(values))
        return product_tree(values, cap)

    monkeypatch.setattr(params_module, "product_tree", counting)
    monkeypatch.setattr(crt_module, "product_tree", counting)
    sequence = generate_compact_sequence(2**256 - 189, 200, 1, Fraction(1, 2), 4)
    params = SchemeParams(sequence, Hierarchy((10, 40, 150), (5, 20, 60)))
    path = _write(tmp_path, "dhss", params)
    sizes.clear()
    assert main(["deal", "--params", str(path), "--secret", "123", "--seed", "5",
                 "--out-dir", str(tmp_path / "deal")]) == 0
    assert sorted(sizes) == [10, 50, 200]
