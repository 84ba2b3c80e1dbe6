"""Seeded parameter sets built beside the library's generator.

``gen-params`` materialises every candidate of the compactness interval, so
it cannot produce the 64- to 256-bit parameter sets the share path is measured
on. These fixtures draw m0 with the library's ``is_prime`` and the moduli by
rejection sampling inside the open interval (m0, m0 + floor(sqrt(m0))), k = 1
and theta = 1/2, and every set passes ``validate_params`` before it is used.
"""

import math
import random
from fractions import Fraction

DRAWS_PER_MODULUS = 50


def random_prime(pkg, rng: random.Random, bits: int) -> int:
    """Prime with exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if pkg.params.is_prime(candidate):
            return candidate


def prime_in(pkg, rng: random.Random, lo: int, hi: int) -> int:
    """Prime drawn uniformly from the primes in [lo, hi)."""
    while True:
        candidate = rng.randrange(lo, hi)
        if pkg.params.is_prime(candidate):
            return candidate


def compact_moduli(rng: random.Random, m0: int, n: int):
    """n pairwise-coprime values from (m0, m0 + isqrt(m0)), sorted, or None
    when the draw budget runs out (the interval is too crowded for n)."""
    lo, width = m0 + 1, math.isqrt(m0) - 1
    accepted: list[int] = []
    for _ in range(DRAWS_PER_MODULUS * n):
        c = lo + rng.randrange(width)
        if math.gcd(c, m0) == 1 and all(math.gcd(c, a) == 1 for a in accepted):
            accepted.append(c)
            if len(accepted) == n:
                return tuple(sorted(accepted))
    return None


def scheme_params(pkg, rng: random.Random, draw_m0, levels, thresholds):
    """Validated SchemeParams; draws a fresh m0 until the moduli fit."""
    hierarchy = pkg.params.Hierarchy(level_sizes=levels, thresholds=thresholds)
    while True:
        m0 = draw_m0()
        moduli = compact_moduli(rng, m0, hierarchy.n)
        if moduli is not None:
            break
    sequence = pkg.params.CompactSequence(m0=m0, moduli=moduli, k=1, theta=Fraction(1, 2))
    params = pkg.params.SchemeParams(sequence=sequence, hierarchy=hierarchy)
    report = pkg.params.validate_params(params)
    if not report.ok:
        raise RuntimeError(f"fixture failed validation: {report}")
    return params


def write_params(pkg, path, scheme: str, params) -> None:
    ff = pkg.fileformat
    path.write_text(ff.canonical_dumps(ff.param_file_obj(scheme, params)), encoding="utf-8")
