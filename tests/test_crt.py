"""Congruence-solver tests, cross-checked against exhaustive scans."""

import random
import re
from math import gcd, prod

import pytest

from crthss import Congruence, crt_solve, mod_inverse
from crthss.errors import EmptySystem, ModuliNotPairwiseCoprime, NotCoprime


def scan_solutions(system):
    """Oracle: every x in [0, prod moduli) satisfying all congruences."""
    combined = prod(c.modulus for c in system)
    return [
        x for x in range(combined)
        if all(x % c.modulus == c.residue for c in system)
    ]


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    for m in (2, 3, 17, 1009):
        assert mod_inverse(1, m) == 1
    with pytest.raises(NotCoprime):
        mod_inverse(4, 8)
    with pytest.raises(ValueError):
        mod_inverse(3, 1)


def test_mod_inverse_random():
    rng = random.Random(2)
    for _ in range(500):
        m = rng.randrange(2, 10**9)
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            continue
        inv = mod_inverse(a, m)
        assert 0 <= inv < m
        assert (inv * a) % m == 1
    # negative and oversized inputs are normalized first
    assert (mod_inverse(-4, 7) * -4) % 7 == 1
    assert (mod_inverse(10, 7) * 10) % 7 == 1


def test_crt_solve_worked_examples():
    sol = crt_solve([Congruence(2, 3), Congruence(3, 5)])
    assert scan_solutions([Congruence(2, 3), Congruence(3, 5)]) == [8]
    assert (sol.value, sol.combined_modulus) == (8, 15)

    sol = crt_solve([Congruence(0, 3), Congruence(0, 5), Congruence(0, 7)])
    assert (sol.value, sol.combined_modulus) == (0, 105)

    system = [Congruence(5, 11), Congruence(12, 13)]
    assert scan_solutions(system) == [38]
    sol = crt_solve(system)
    assert (sol.value, sol.combined_modulus) == (38, 143)


def test_crt_solve_errors():
    with pytest.raises(ModuliNotPairwiseCoprime) as excinfo:
        crt_solve([Congruence(1, 4), Congruence(3, 6)])
    assert "4" in str(excinfo.value) and "6" in str(excinfo.value)
    with pytest.raises(EmptySystem):
        crt_solve([])


def test_congruence_rejects_unnormalized():
    with pytest.raises(ValueError):
        Congruence(-1, 5)
    with pytest.raises(ValueError):
        Congruence(5, 5)
    with pytest.raises(ValueError):
        Congruence(0, 1)


def _random_coprime_system(rng, max_product=10**6, max_count=5):
    moduli = []
    product = 1
    for _ in range(rng.randrange(2, max_count + 1)):
        for _ in range(50):
            m = rng.randrange(2, 100)
            if product * m <= max_product and all(gcd(m, o) == 1 for o in moduli):
                moduli.append(m)
                product *= m
                break
    if len(moduli) < 2:
        moduli = [3, 5]
    return [Congruence(rng.randrange(m), m) for m in moduli]


def test_crt_random_systems_match_scan():
    rng = random.Random(3)
    for _ in range(200):
        system = _random_coprime_system(rng, max_product=10**4)
        sol = crt_solve(system)
        assert scan_solutions(system) == [sol.value]
        for c in system:
            assert sol.value % c.modulus == c.residue


def test_crt_permutation_invariant():
    rng = random.Random(4)
    for _ in range(100):
        system = _random_coprime_system(rng, max_product=10**5)
        sol = crt_solve(system)
        shuffled = system[:]
        rng.shuffle(shuffled)
        assert crt_solve(shuffled) == sol


def test_crt_redundant_congruence():
    rng = random.Random(5)
    for _ in range(100):
        system = _random_coprime_system(rng, max_product=10**4)
        sol = crt_solve(system)
        for extra in range(2, 200):
            if all(gcd(extra, c.modulus) == 1 for c in system):
                break
        augmented = system + [Congruence(sol.value % extra, extra)]
        sol2 = crt_solve(augmented)
        assert sol2.value == sol.value
        assert sol2.combined_modulus == sol.combined_modulus * extra


def _summation_oracle(system):
    """x = sum(r_i * M_i * (M_i^-1 mod m_i)) mod M, M_i = M / m_i."""
    combined = prod(c.modulus for c in system)
    partials = [(c.residue, combined // c.modulus, c.modulus) for c in system]
    return sum(r * p * pow(p, -1, m) for r, p, m in partials) % combined


def _coprime_moduli(rng, count, bits):
    moduli = []
    while len(moduli) < count:
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        if all(gcd(m, o) == 1 for o in moduli):
            moduli.append(m)
    return moduli


def test_crt_fold_at_real_size():
    rng = random.Random(6)
    moduli = _coprime_moduli(rng, 200, 256)
    system = [Congruence(rng.randrange(m), m) for m in moduli]
    sol = crt_solve(system)
    assert sol.combined_modulus == prod(moduli)
    assert 0 <= sol.value < sol.combined_modulus
    assert all(sol.value % c.modulus == c.residue for c in system)
    assert sol.value == _summation_oracle(system)


@pytest.mark.parametrize("first, second, scale", [
    (0, 1, 3), (70, 120, 5), (42, 199, 7), (10, 150, 1),
], ids=["first-pair", "middle", "last-modulus", "duplicated-modulus"])
def test_crt_fold_names_a_shared_factor(first, second, scale):
    rng = random.Random(7)
    moduli = _coprime_moduli(rng, 200, 256)
    moduli[second] = moduli[first] * scale
    system = [Congruence(rng.randrange(m), m) for m in moduli]
    with pytest.raises(ModuliNotPairwiseCoprime) as excinfo:
        crt_solve(system)
    a, b, factor = map(int, re.findall(r"\d+", str(excinfo.value)))
    assert a in moduli and b in moduli
    assert gcd(a, b) == factor > 1
