"""Golden audit outputs: `crthss audit` prints byte-identical JSON per seed.

Pins the SHA-256 of the audit report for a disjunctive 2-level audit, the
same sequence and hierarchy audited as conjunctive (two levels, the window
sweep), the near-uniform conjunctive 3-level instance at m0 = 2153 (whose
entropy sum once rounded to a negative loss, and which folds tables), and a
disjunctive ladder. Any change to the counting, the grouping, or the float
value of a ``loss_bits`` or ``conditional_entropy_bits`` shows up here. The ladder regenerates its rungs
with ``generate_compact_sequence``, so a change to that generator's draws
changes the ladder digest too.
"""

import hashlib

import pytest

from crthss import CompactSequence, Hierarchy, SchemeParams
from crthss.cli import main
from crthss.fileformat import canonical_dumps, param_file_obj

CASES = {
    "dhss-L2": (
        "dhss",
        CompactSequence(m0=99991, moduli=(100057, 100075, 100189)),
        Hierarchy((1, 2), (1, 2)),
        ["--adversary", "2", "--secret", "4242", "--seed", "21"],
    ),
    "chss-L2": (
        "chss",
        CompactSequence(m0=99991, moduli=(100057, 100075, 100189)),
        Hierarchy((1, 2), (1, 2)),
        ["--adversary", "2", "--secret", "4242", "--seed", "21"],
    ),
    "chss-L3": (
        "chss",
        CompactSequence(
            m0=2153,
            moduli=(2155, 2161, 2173, 2177, 2183, 2188, 2189, 2193, 2197),
        ),
        Hierarchy((2, 3, 4), (2, 3, 5)),
        ["--adversary", "1,3,6,7", "--secret", "717", "--seed", "1"],
    ),
    "ladder": (
        "dhss",
        CompactSequence(m0=99991, moduli=(100069, 100147, 100196)),
        Hierarchy((1, 2), (1, 2)),
        ["--adversary", "2", "--ladder", "97,997,9973,99991", "--seed", "3"],
    ),
}

# dhss-L2 and chss-L3 recorded at the commit before the counting was
# restructured; the ladder re-recorded when the generator's candidate order
# became a lazy forward Fisher-Yates, after checking each rung's histogram
# against scan_oracle, gamma_total == m0 and loss_bits >= 0; chss-L2
# recorded from the table fold, before two levels took the window sweep
GOLDEN = {
    "dhss-L2":
        "7c96d55a6ce042fee747f8d451492344357b015763cbccc45a06bf88d436821a",
    "chss-L2":
        "62acac3d10adee90ce1ff8ad9ceebdc4c64d5d8d5f8be17275d1a14d5c854909",
    "chss-L3":
        "557233e3b16bea733d9bf72bfaac23deef7a89c78b83d42f2501302ce9437fd2",
    "ladder":
        "1bc8bc2d6415377ea9c87d2f3077a3488a0babecd916e3ba54f0040cca5740e3",
}


def _audit_digest(tmp_path, capsys, case):
    scheme, sequence, hierarchy, argv = CASES[case]
    params = SchemeParams(sequence=sequence, hierarchy=hierarchy)
    param_path = tmp_path / "params.json"
    param_path.write_text(canonical_dumps(param_file_obj(scheme, params)))
    capsys.readouterr()
    assert main(["audit", "--params", str(param_path), *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_report_matches_golden_digest(tmp_path, capsys, case):
    assert _audit_digest(tmp_path, capsys, case) == GOLDEN[case]
