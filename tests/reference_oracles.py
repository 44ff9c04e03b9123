"""Reference oracles used by the verification suite.

Each is a second route to a value that the package computes its own way:
zeta(s) through a partial sum and an Euler-Maclaurin tail, beside the
Hoelder words of ``numerics``; pi through Machin's arctangents, for
zeta(2) = pi^2 / 6; the exact harmonic numbers that the series walk
carries in fixed point; the kernel's one-word quasi-shuffle as it was
first written; and engine t1 as it built its terms in the kernel's order.
"""

import functools
from fractions import Fraction

from eulersums.algebra import LinComb, MzvAtom, z
from eulersums.expansion import _check_size, _quasi_shuffle
from eulersums.indices import EulerSumIndex
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


def _reference_stuffle(u, v):
    """``expansion._stuffle`` as it was written with a list of (head, tail)
    pairs at each position of ``v``."""
    x, rest = u[0], u[1:]
    out = []
    for i in range(len(v) + 1):
        heads = [(v[:i] + (x,), v[i:])]
        if i < len(v):
            mag = abs(x) + abs(v[i])
            heads.append((v[:i] + ((-mag if (x < 0) ^ (v[i] < 0) else mag),), v[i + 1 :]))
        for head, tail in heads:
            out += [head + t for t in _reference_stuffle(rest, tail)] if rest else [head + tail]
    return out


def _reference_expand_t1(idx: EulerSumIndex) -> LinComb:
    """``expansion.expand_t1`` as it was written with the words taken off the
    kernel's product by ``popitem``, so that its terms are in no order."""
    q = abs(idx.outer)
    outer_bar = idx.outer < 0
    if idx.degree == 0:
        # Pure outer series: sum of 1/n^q, or of (-1)^(n-1)/n^q.  The
        # alternating atom convention carries sigma^n, hence the -1.
        return LinComb.of_atom(z(q)) if not outer_bar else LinComb.of_atom(z(-q), -1)
    _check_size(idx.inner)
    n_bar = sum(1 for e in idx.inner if e < 0)
    sign = (-1) ** (n_bar + outer_bar)
    lead = -q if outer_bar else q
    w, depth = idx.weight, idx.degree + 1
    coeffs: dict[int, Fraction] = {}
    terms: dict[MzvAtom, Fraction] = {}
    product = _quasi_shuffle((e,) for e in idx.inner)
    n_words = len(product)
    # Each word gives two atoms, and no two words give the same atom: atom 1
    # leads with q, atom 2 with q + |first| > q, and within each family the
    # atom determines its word.  So every coefficient is one multiplicity,
    # and the words are taken off the product as their atoms are made.
    while product:
        word, c = product.popitem()
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = Fraction(sign * c)
        # Atom 1: the outer exponent keeps its own leading slot.  Atom 2: it
        # merges with the first letter, alternating iff exactly one of the
        # two does.
        first = word[0]
        merged = q + abs(first)
        if (first < 0) ^ outer_bar:
            merged = -merged
        for args in ((lead,) + word, (merged,) + word[1:]):
            # The kernel's words meet the atom's slot conditions by
            # construction, so the atom is built without its checks and the
            # asserts keep them.
            atom = MzvAtom._of_word(args, w)
            assert sum(map(abs, args)) == w, f"weight leak: {atom} in expansion of {idx}"
            assert len(args) <= depth, f"depth leak: {atom} in expansion of {idx}"
            assert args[0] != 1 and 0 not in args, f"inadmissible atom: {atom} in expansion of {idx}"
            terms[atom] = coeff
    assert len(terms) == 2 * n_words, f"two words gave one atom in expansion of {idx}"
    return LinComb._of_nonzero(terms)
