"""Shared fixtures: the hand-checkable micro instance and frozen deal seeds.

micro instance: m0=7, moduli (11, 13, 17), two levels of sizes (1, 2) with
thresholds (1, 2), affine test OWF h(x, l) = (3x + l) mod m_i. The moduli sit
far outside the 1-compact interval for m0=7 on purpose; compactness governs
the asymptotics, not correctness, and the small numbers keep every expected
value checkable by hand or exhaustive scan.

The seeds below make the dealer draw the exact worked-vector randomness:
AB_SEED gives alpha=5 for secret 3 (t=2); DHSS_SEED gives alpha=(0, 10) and
c_1=9 for secret 4; CHSS_SEED gives delta=(2, 2), alpha=(0, 9), c_1=5.

A parameter file carries only the hash_based OWF, so the *_file_params
fixtures are the same instances with it, for tests that write files.
"""

import dataclasses
from fractions import Fraction

import pytest

from crthss import CompactSequence, Hierarchy, OwfFamily, SchemeParams, is_prime

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
        owf=OwfFamily(kind="test_affine"),
    )


@pytest.fixture
def flat_params(micro_seq):
    return SchemeParams(
        sequence=micro_seq,
        hierarchy=Hierarchy(level_sizes=(3,), thresholds=(2,)),
        owf=OwfFamily(kind="test_affine"),
    )


@pytest.fixture
def micro_file_params(micro_params):
    return dataclasses.replace(micro_params, owf=OwfFamily())


@pytest.fixture
def flat_file_params(flat_params):
    return dataclasses.replace(flat_params, owf=OwfFamily())
