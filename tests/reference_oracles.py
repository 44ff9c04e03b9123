"""Reference oracles used by the verification suite.

Each is a second route to a value that the package computes its own way:
zeta(s) through a partial sum and an Euler-Maclaurin tail, beside the
Hoelder words of ``numerics``; pi through Machin's arctangents, for
zeta(2) = pi^2 / 6; and the exact harmonic numbers that the series walk
carries in fixed point.
"""

import functools
from fractions import Fraction

from eulersums.numerics import _FP_SCALE, NumericResult, _fp_result, _to_units


def harmonic_exact(r: int, n: int) -> Fraction:
    """Generalized harmonic number of order r at n, as an exact rational."""
    return sum((Fraction(1, k**r) for k in range(1, n + 1)), Fraction(0))


def alt_harmonic_exact(r: int, n: int) -> Fraction:
    """Alternating harmonic number: sum of (-1)^(k-1) / k^r up to n."""
    return sum((Fraction((-1) ** (k - 1), k**r) for k in range(1, n + 1)), Fraction(0))


def _zeta_terms(s: int) -> int:
    return 2000 if s < 40 else 64  # the terms ``_fp_zeta(s)`` sums


def _fp_zeta(s: int) -> tuple[Fraction, Fraction]:
    """zeta(s) for s >= 2 by partial sum plus Euler-Maclaurin tail."""
    if s < 2:
        raise ValueError("zeta needs s >= 2")
    n_cut = _zeta_terms(s)
    acc = 0
    for n in range(1, n_cut + 1):
        acc += _FP_SCALE // n**s
    a = n_cut + 1
    tail = (
        Fraction(1, (s - 1) * a ** (s - 1))
        + Fraction(1, 2 * a**s)
        + Fraction(s, 12 * a ** (s + 1))
        - Fraction(s * (s + 1) * (s + 2), 720 * a ** (s + 3))
    )
    rem = 2 * Fraction(s * (s + 1) * (s + 2) * (s + 3) * (s + 4), 30240 * a ** (s + 5))
    val = Fraction(acc, _FP_SCALE) + tail
    err = Fraction(n_cut, _FP_SCALE) + rem
    return val, err


def _fp_atan_inv(x: int) -> tuple[Fraction, Fraction]:
    """arctan(1/x) by the alternating Taylor series, truncation <= next term."""
    acc = 0
    t = 0
    terms = 0
    while True:
        u = _FP_SCALE // ((2 * t + 1) * x ** (2 * t + 1))
        if u == 0:
            break
        acc += -u if t % 2 else u
        t += 1
        terms += 1
    return Fraction(acc, _FP_SCALE), Fraction(terms + 2, _FP_SCALE)


@functools.cache
def zeta_value(s: int) -> NumericResult:
    return _fp_result(*_to_units(*_fp_zeta(s)), terms=_zeta_terms(s), method="zeta")


@functools.cache
def pi_reference() -> NumericResult:
    """pi via Machin's two-arctangent combination (test cross-checks)."""
    a5, e5 = _fp_atan_inv(5)
    a239, e239 = _fp_atan_inv(239)
    return _fp_result(*_to_units(16 * a5 - 4 * a239, 16 * e5 + 4 * e239), 0)
