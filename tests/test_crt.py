"""CRT solver tests, cross-checked against exhaustive scans and against the
per-modulus form of Garner's fold."""

import random
import re
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import crthss.crt
from crthss import crt_solve, mod_inverse
from crthss.crt import _BLOCK, GarnerFold, product_tree, remainders, tree_remainders
from crthss.errors import ModuliNotPairwiseCoprime, NotCoprime


def scan_solutions(residues, moduli):
    """Oracle: every x in [0, prod moduli) satisfying all congruences."""
    return [
        x for x in range(prod(moduli))
        if all(x % m == r for r, m in zip(residues, moduli))
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
    assert scan_solutions([2, 3], [3, 5]) == [8]
    assert crt_solve([2, 3], [3, 5]) == 8
    assert crt_solve([0, 0, 0], [3, 5, 7]) == 0
    assert scan_solutions([5, 12], [11, 13]) == [38]
    assert crt_solve([5, 12], [11, 13]) == 38
    # residues outside [0, m) are reduced by the fold
    assert crt_solve([-1, 3 + 5 * 7], [3, 5]) == 8


def test_crt_solve_errors():
    with pytest.raises(ModuliNotPairwiseCoprime) as excinfo:
        crt_solve([1, 3], [4, 6])
    assert str(excinfo.value) == "moduli 4 and 6 share factor 2"
    # the empty system's answer, mod 1
    assert crt_solve([], []) == 0
    for residues, moduli in (([1], []), ([], [3]), ([1, 2], [3]), ([1], [3, 5])):
        with pytest.raises(ValueError):
            crt_solve(residues, moduli)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        crt_solve([0, 0], [3, 1])


def _random_coprime_system(rng, max_product=10**6, max_count=5):
    """(residues, moduli) of a random system with pairwise-coprime moduli."""
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
    return [rng.randrange(m) for m in moduli], moduli


def test_crt_random_systems_match_scan():
    rng = random.Random(3)
    for _ in range(200):
        residues, moduli = _random_coprime_system(rng, max_product=10**4)
        x = crt_solve(residues, moduli)
        assert scan_solutions(residues, moduli) == [x]
        assert [x % m for m in moduli] == residues


def test_crt_permutation_invariant():
    rng = random.Random(4)
    for _ in range(100):
        residues, moduli = _random_coprime_system(rng, max_product=10**5)
        x = crt_solve(residues, moduli)
        order = list(range(len(moduli)))
        rng.shuffle(order)
        assert crt_solve([residues[i] for i in order], [moduli[i] for i in order]) == x


def test_crt_redundant_congruence():
    rng = random.Random(5)
    for _ in range(100):
        residues, moduli = _random_coprime_system(rng, max_product=10**4)
        x = crt_solve(residues, moduli)
        for extra in range(2, 200):
            if all(gcd(extra, m) == 1 for m in moduli):
                break
        assert crt_solve(residues + [x % extra], moduli + [extra]) == x


def _summation_oracle(residues, moduli):
    """x = sum(r_i * M_i * (M_i^-1 mod m_i)) mod M, M_i = M / m_i."""
    combined = prod(moduli)
    partials = [(r, combined // m, m) for r, m in zip(residues, moduli)]
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
    residues = [rng.randrange(m) for m in moduli]
    x = crt_solve(residues, moduli)
    assert 0 <= x < prod(moduli)
    assert [x % m for m in moduli] == residues
    assert x == _summation_oracle(residues, moduli)


@pytest.mark.parametrize("first, second, scale", [
    (0, 1, 3), (70, 120, 5), (42, 199, 7), (10, 150, 1),
], ids=["first-pair", "middle", "last-modulus", "duplicated-modulus"])
def test_crt_fold_names_a_shared_factor(first, second, scale):
    rng = random.Random(7)
    moduli = _coprime_moduli(rng, 200, 256)
    moduli[second] = moduli[first] * scale
    residues = [rng.randrange(m) for m in moduli]
    with pytest.raises(ModuliNotPairwiseCoprime) as excinfo:
        crt_solve(residues, moduli)
    a, b, factor = map(int, re.findall(r"\d+", str(excinfo.value)))
    assert a in moduli and b in moduli
    assert gcd(a, b) == factor > 1


def per_modulus_fold(residues, moduli):
    """Oracle: Garner's fold one modulus at a time, each step reducing the
    running solution and product, of the whole product's size, by m."""
    value, combined = 0, 1
    for i, (r, m) in enumerate(zip(residues, moduli, strict=True)):
        try:
            step = mod_inverse(combined, m)
        except NotCoprime:
            earlier = next(e for e in moduli[:i] if gcd(e, m) != 1)
            raise ModuliNotPairwiseCoprime(
                f"moduli {earlier} and {m} share factor {gcd(earlier, m)}"
            ) from None
        value += combined * ((r - value % m) * step % m)
        combined *= m
    return value


def _outcome(solve, residues, moduli):
    """The value, or the exception's type and message."""
    try:
        return solve(residues, moduli)
    except (ValueError, ModuliNotPairwiseCoprime) as exc:
        return type(exc), str(exc)


def _drawn_system(rng, count, bits, coprime):
    """count moduli of exactly ``bits`` bits, pairwise coprime where draws
    allow it when ``coprime`` is set, and residues from -2m up to 2m."""
    moduli = []
    for _ in range(count):
        for _ in range(100):
            m = rng.getrandbits(bits) | (1 << (bits - 1))
            if not coprime or all(gcd(m, o) == 1 for o in moduli):
                break
        moduli.append(m)
    return [rng.randrange(-2 * m, 2 * m) for m in moduli], moduli


@pytest.mark.parametrize("bits", [2, 64, 256, 512])
def test_block_fold_matches_the_per_modulus_fold(bits):
    """Systems of 0 to 13 moduli cross every block boundary; at 2 bits, and
    in about a quarter of the unforced draws, moduli share a factor."""
    assert _BLOCK == 4
    rng = random.Random(bits)
    errors = 0
    for count in range(14):
        for coprime in (True, False):
            for _ in range(6):
                residues, moduli = _drawn_system(rng, count, bits, coprime)
                expected = _outcome(per_modulus_fold, residues, moduli)
                assert _outcome(crt_solve, residues, moduli) == expected
                errors += isinstance(expected, tuple)
    assert errors


def _malformed_cases():
    rng = random.Random(8)
    moduli = _coprime_moduli(rng, 13, 256)
    residues = [rng.randrange(-m, 2 * m) for m in moduli]

    def edited(**at):
        out = list(moduli)
        for key, value in at.items():
            out[int(key[1:])] = value
        return out

    cases = {
        # block 1 holds moduli 4..7
        "factor-inside-a-block": edited(i6=moduli[4] * 3),
        "factor-across-blocks": edited(i9=moduli[2] * 5),
        "factor-at-the-last-modulus": edited(i12=moduli[11] * 7),
        "below-2-before-a-factor": edited(i5=1, i6=moduli[4] * 3),
        "below-2-after-a-factor": edited(i5=moduli[4] * 3, i6=0),
        "negative-before-a-factor": edited(i3=-moduli[3], i9=moduli[8] * 3),
        "zero-then-a-factor-in-one-block": edited(i4=0, i7=moduli[5] * 11),
        "zero-first": edited(i0=0),
    }
    for name, bad in cases.items():
        yield name, residues, bad
    yield "one-residue-more", residues + [1], moduli
    yield "one-residue-fewer", residues[:-1], moduli
    yield "residues-only", [1], []
    yield "moduli-only", [], [3]
    yield "fewer-residues-and-a-factor", residues[:8], edited(i6=moduli[4] * 3)
    # the block of moduli 4..7 has product 0, but its zero is never folded
    yield "fewer-residues-and-a-later-zero", residues[:6], edited(i7=0)
    yield "more-residues-and-a-zero", residues + [1], edited(i12=0)


@pytest.mark.parametrize("name, residues, moduli", list(_malformed_cases()),
                         ids=[case[0] for case in _malformed_cases()])
def test_block_fold_refuses_as_the_per_modulus_fold(name, residues, moduli):
    expected = _outcome(per_modulus_fold, residues, moduli)
    assert isinstance(expected, tuple), name
    assert _outcome(crt_solve, residues, moduli) == expected


def test_fold_works_out_each_step_inverse_once(monkeypatch):
    """Systems on prefixes of one fold share its step inverses, and a block
    has those of the moduli some system has reached, no more."""
    rng = random.Random(10)
    residues, moduli = _drawn_system(rng, 13, 64, True)
    inverses = []
    inverse = crthss.crt.mod_inverse
    monkeypatch.setattr(crthss.crt, "mod_inverse",
                        lambda a, m: inverses.append(m) or inverse(a, m))
    fold = GarnerFold(moduli)
    for count, reached in ((5, 5), (7, 7), (3, 7), (13, 13), (0, 13)):
        solution = fold.solve(residues[:count])
        assert inverses == moduli[:reached]
        assert solution == per_modulus_fold(residues[:count], moduli[:count])


def test_fold_prefix_reaching_matches_a_running_product():
    rng = random.Random(9)
    moduli = _coprime_moduli(rng, 13, 64)
    fold = GarnerFold(moduli)
    for k in range(14):
        exact = prod(moduli[:k])
        for bound in (exact - 1, exact, exact + 1):
            for limit in range(14):
                solved, combined = 0, 1
                while combined < bound and solved < limit:
                    combined *= moduli[solved]
                    solved += 1
                assert fold.prefix_reaching(bound, limit) == solved


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 9, 200, 201])
def test_product_tree_rows(n):
    """Rows pair neighbours and carry an odd last value up unchanged, so
    value k of row r is the product of leaves k*2^r .. (k+1)*2^r - 1. They
    stop below the root, at two values, or at a first value above the cap."""
    values = [1000 + 7 * i for i in range(n)]
    rows = product_tree(values)
    assert rows[0] == values
    assert len(rows[-1]) <= 2 and prod(rows[-1]) == prod(values)
    assert all(len(row) > 2 for row in rows[:-1])
    for r, row in enumerate(rows):
        assert row == [prod(values[k << r:(k + 1) << r]) for k in range(len(row))]
        if r:
            assert len(row) == (len(rows[r - 1]) + 1) // 2
    for cap in (-1, 0, 999, 1000, 10**6, 10**12, 10**100):
        capped = product_tree(values, cap)
        assert capped == rows[:len(capped)]
        stop = capped[-1]
        assert len(stop) <= 2 or stop[0] > cap
        assert all(row[0] <= cap for row in capped[:-1])


def test_remainders_edge_cases():
    assert remainders(12345, []) == []
    assert remainders(0, []) == []
    assert remainders(12345, [97]) == [12345 % 97]
    moduli = [11, 13, 17, 19, 23]
    total = prod(moduli)
    for x in (0, 1, total - 1, total, total + 1, 7 * total + 5, total**3):
        assert remainders(x, moduli) == [x % m for m in moduli]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    moduli=st.lists(st.integers(2, 2**300), max_size=40),
    data=st.data(),
)
def test_remainders_match_direct_reduction(moduli, data):
    """Any moduli, coprime or not, and x from below zero past their product."""
    total = prod(moduli)
    x = data.draw(st.one_of(
        st.just(0),
        st.integers(0, total - 1),
        st.sampled_from([total - 1, total, total + 1]),
        st.integers(total, total * 2**70),
        st.integers(-total * 2**70, -1),
    ))
    assert remainders(x, moduli) == [x % m for m in moduli]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 200])
def test_tree_remainders_on_a_full_tree(n):
    """The walk down given rows, as a deal walks its sequence's whole tree:
    at every cap boundary (x just below and just above each row's first
    node), at 0, and at or above the root it gives every x mod m."""
    rng = random.Random(n)
    moduli = sorted(rng.sample(range(2**64, 2**64 + 2**40), n))
    rows = product_tree(moduli)
    root = prod(rows[-1])
    xs = {0, 1, root - 1, root, root + 1, 3 * root + 7, root**2}
    for row in rows:
        xs.update((row[0] - 1, row[0], row[0] + 1))
    for x in sorted(xs):
        want = [x % m for m in moduli]
        assert tree_remainders(x, rows) == want, x
        assert tree_remainders(x, product_tree(moduli, x)) == want, x
        assert remainders(x, moduli) == want, x
    assert tree_remainders(5, [[]]) == []
