"""Shared fixtures: the hand-checkable micro instance and frozen deal seeds.

micro instance: m0=7, moduli (11, 13, 17), two levels of sizes (1, 2) with
thresholds (1, 2), and the library's one OWF family, dhss; the flat
instance is the same sequence as one (2, 3) level, ab. The moduli sit far
outside the 1-compact interval for m0=7 on purpose; compactness governs the
asymptotics, not correctness, and the small numbers keep every expected value
checkable by hand or exhaustive scan.

The seeds below make the dealer draw the exact worked-vector randomness:
AB_SEED gives alpha=5 for secret 3 (t=2); DHSS_SEED gives alpha=(0, 10) and
c_1=9 for secret 4; CHSS_SEED gives delta=(2, 2), alpha=(0, 9), c_1=5.

The hand-checked worked vectors quote masks of h(x, l) = (3x + l) mod m_i,
which the ``affine_owf`` fixture puts in place of the hash family. That h is
not one-way, and the library has no such kind: tests/test_oneway.py shows
what the audit would miss with it.
"""

from fractions import Fraction

import pytest

import crthss.dhss
from crthss import CompactSequence, Hierarchy, SchemeParams, is_prime

AB_SEED = 18
DHSS_SEED = 263
CHSS_SEED = 5277


def random_prime(rng, bits):
    """A prime of exactly ``bits`` bits drawn from ``rng``."""
    while True:
        candidate = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(candidate):
            return candidate

# a 61-bit ladder: m0 = 2^61 - 1 and the first five integers above it that are
# pairwise coprime (and coprime to m0)
SEQ_61 = CompactSequence(
    m0=2**61 - 1, moduli=tuple(2**61 - 1 + d for d in (1, 2, 4, 6, 10))
)


@pytest.fixture
def micro_seq():
    return CompactSequence(m0=7, moduli=(11, 13, 17), k=1, theta=Fraction(1, 2))


@pytest.fixture
def micro_params(micro_seq):
    return SchemeParams(
        sequence=micro_seq,
        hierarchy=Hierarchy(level_sizes=(1, 2), thresholds=(1, 2)),
    )


@pytest.fixture
def flat_params(micro_seq):
    return SchemeParams(
        sequence=micro_seq,
        hierarchy=Hierarchy(level_sizes=(3,), thresholds=(2,)),
        scheme="ab",
    )


@pytest.fixture
def affine_owf(monkeypatch):
    """Deal and reconstruct with h(x, l) = (3x + l) mod m for the test."""
    monkeypatch.setattr(
        crthss.dhss, "eval_owf",
        lambda family_tag, level, x, modulus: (3 * x + level) % modulus,
    )
