"""Independent numerical oracle with certified truncation bounds.

This module never consults the expansion or reduction engines: every value is
obtained from a defining series or iterated integral, so it can serve as the
second route of every identity check.

Two evaluation strategies are used.

  * Fixed-point integer summation (192 fractional bits) for every atom,
    each (alternating) MZV and Li_q(1/2) alike, by the Hoelder convolution
    of its iterated integral split at 1/2 (``_fp_holders``), N = 200 terms
    per power series.  Each atom is stored once as two integers, its value
    and error bound in units of 2^-192; the atoms that a combination lacks
    are evaluated together, by one walk over the trie of their factors'
    letter words (``_chain_sums``).  A combination is summed exactly in
    those units, the atoms' errors carried through its products, one floor
    per term, and rounded once to 64 significant bits, an exact dyadic
    ``Fraction``.  Its bound counts that rounding exactly: at most 2^-64
    |value| plus the fixed-point error, below 1e-50 on every expansion that
    ``verify`` checks at weight <= 10, rounded up to a float once
    (``_fp_result``), ``inf`` only past the float range.

  * The Euler-sum series themselves, walked in the same units to an N of
    the fixed schedule BLOCK_EDGES, at most N_MAX = 10**4, one unit per
    floor (``_SumState.walk_error``); past an outer exponent of
    193 + 4 degree every term floors alike, so the walk's power stops
    there.  The tail past N is certified without any monotonicity
    assumption.  With sigma = (-1)^(n+1), each harmonic factor is even +
    sigma odd: H_n^(r) is even, and H^-_n^(r) = eta(r) + sigma rho_r(n),
    where eta(r) = -z(-r) is an atom (eta(1) = ln 2) and rho_r is
    completely monotone.  One builder, ``_em_sum``, gives every expansion:
    Euler-Maclaurin summation of L^s y^-p about N to order 2K, K = K_EM
    (Flajolet and Salvy, *Euler sums and contour integral
    representations*), as W or A below.  H_m is anchored at the carried
    H_N by D(m) = H_m - ln m - gamma, the boundary terms of 1/y negated, so
    neither ln N nor Euler's gamma is needed; H_m^(r) takes W of y^-r and
    rho_r(m) A of y^-r.  D and rho_r keep one more order and take its term
    as their remainder (``_enveloped``): y^-r is completely monotone, and
    both kernels are enveloped by their Taylor series.  With L = ln(m/N)
    every factor is a polynomial in sigma, L and 1/m, and as sigma^2 = 1
    so is the term, multiplied out factor by factor: sigma is one more
    exponent, taken mod 2.  Each monomial sigma^g L^s m^-p is summed in
    closed form by ``_em_sum``: for g = 0 as W = sum_{m>N} L^s m^-p, by
    Euler-Maclaurin on its integral; for g = 1 as A = sum_{m>N} (-1)^(m+1)
    L^s m^-p, W less twice its even terms, whose integrals cancel (Borwein,
    Calkin and Manna, *Euler-Boole summation revisited*).

Both routes can miss a requested tolerance: the walk, capped at N_MAX, and
a combination of atoms, whose bound counts its rounding to 64 bits, up to
2^-64 |value|.  Each evaluator returns its best result, and a caller compares
its ``tail_bound`` with the tolerance, as the ``eval`` command does.

Reported ``tail_bound`` values are conservative under the documented
estimates above; decreasing the target tolerance never increases them.
``agree`` compares two results exactly; a table entry is checked by it
too, as rhs - lhs against 0.  Values and bounds print through ``_sig``,
from their exact rationals: a value to nearest in 15 digits, a bound up
in 3, laid out as ``%.15g`` and ``%.3g`` lay out a float.
"""

from __future__ import annotations

import collections
import decimal
import functools
import itertools
import math
import operator
from fractions import Fraction

from .algebra import LinComb, MzvAtom, Refusal, z
from .indices import EulerSumIndex, _Record

N_MAX = 10**4
K_EM = 4  # terms kept by each expansion of a tail: order 2K, and 2K + 2 for A
BLOCK_EDGES = (100, 300, 1_000, 3_000, 10_000)
SUM_TOL_FLOOR = 1e-10


class NumericResult(_Record):
    """A certified evaluation: |value - true| <= tail_bound.

    ``method`` names what produced the bound: ``holder`` (atoms by the
    Hoelder convolution) or ``euler_maclaurin`` (the tail of a series).
    ``value`` is an exact dyadic rational of 64 significant bits.
    """

    __slots__ = ("value", "tail_bound", "terms_used", "method")

    def __init__(self, value: Fraction, tail_bound: float, terms_used: int, method: str = "holder"):
        super().__init__(value, tail_bound, terms_used, method)

    def __repr__(self):
        return f"NumericResult({_digits15(self.value)} +- {_up3(self.tail_bound)}, N={self.terms_used})"


def _sig(x: Fraction, digits: int, rounding: str) -> str:
    """``x`` rounded once to ``digits`` significant digits in the ``decimal``
    direction ``rounding``, laid out as ``%.{digits}g`` lays out a float.
    Every printed value (to nearest) and bound (up) goes through here."""
    d = decimal.Context(prec=digits, rounding=rounding).divide(x.numerator, x.denominator)
    exp = d.adjusted()
    fixed = -4 <= exp < digits
    text = f"{d if fixed else d.scaleb(-exp):f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if fixed else f"{text}e{exp:+03d}"


def _digits15(value: Fraction) -> str:
    """An exact rational to 15 significant digits, as ``%.15g``."""
    return _sig(value, 15, decimal.ROUND_HALF_EVEN)


def _up3(bound) -> str:
    """A bound >= 0, rational or float, up to 3 digits as ``%.3g``, or ``inf``."""
    return "inf" if bound == math.inf else _sig(Fraction(bound), 3, decimal.ROUND_CEILING)


def agree(a: NumericResult, b: NumericResult, tol: float) -> tuple[bool, Fraction, Fraction | float]:
    """(ok, diff, budget): whether |a - b| = diff is at most the sum of the
    two bounds and ``tol``, the budget.  All three are exact, so no rounding
    of the values to doubles hides a difference.  An infinite bound
    certifies nothing: never ok, and the budget is ``inf``."""
    diff = abs(a.value - b.value)
    if math.inf in (a.tail_bound, b.tail_bound):
        return False, diff, math.inf
    budget = Fraction(a.tail_bound) + Fraction(b.tail_bound) + Fraction(tol)
    return diff <= budget, diff, budget


# ---------------------------------------------------------------------------
# Fixed-point (192 fractional bits) units
# ---------------------------------------------------------------------------

_FP_BITS = 192
_FP_SCALE = 1 << _FP_BITS


def _fp_result(value: int, error: int, terms: int, method: str = "holder") -> NumericResult:
    """Round ``value`` +- ``error`` (units of 2^-192) once: the value to its
    64 leading bits, and the bound, the error plus that rounding as an exact
    rational, up to a float64 once; a bound past the float range, about
    1.8e308, is ``inf``.  An exact 0 +- 0 stays 0 +- 0."""
    shift = max(abs(value).bit_length() - 64, 0)
    mantissa = (abs(value) + (1 << shift >> 1)) >> shift  # to nearest; at most 2^64
    rounded = mantissa << shift if value >= 0 else -(mantissa << shift)
    total = Fraction(error + abs(value - rounded), _FP_SCALE)
    try:
        bound = float(total)  # correctly rounded
    except OverflowError:  # past the float range, about 1.8e308
        bound = math.inf
    if bound < total:
        bound = math.nextafter(bound, math.inf)
    return NumericResult(Fraction(rounded, _FP_SCALE), bound, terms, method)


# ---------------------------------------------------------------------------
# MZV atoms by Hoelder convolution, and linear combinations of them
# ---------------------------------------------------------------------------

HOLDER_N = 200
HOLDER_WORD_CAP = 200_000  # letters of the longest Hoelder word; its time is linear in it


class WordCapError(Refusal, ValueError):
    """An atom whose Hoelder word, as long as its weight, exceeds HOLDER_WORD_CAP."""


def _holder_word(args) -> list[int]:
    """Letters b with z(args) = (-1)^k G(b; 1): 0^(s_j - 1), then c_j = prod sgn_i."""
    word, c = [], 1
    for a in args:
        c = -c if a < 0 else c
        word += [0] * (abs(a) - 1) + [c]
    return word


def _holder_apply(b: int, inner: list[int] | None, n_terms: int) -> list[int]:
    """Fixed-point terms a_n = c_n 2^-n (n = 1..N, slot 0 unused) of G(b, inner; 1/2).

    ``inner`` None starts the word with its last letter b != 0:
    a_n = -1/(n (2b)^n).  A letter 0 maps a_n to a_n / n; a letter b != 0
    maps it to -e_n / n with e_1 = 0, e_(n+1) = (e_n + a_n) / (2b).
    """
    if inner is None:
        powers = itertools.accumulate(itertools.repeat(2 * b, n_terms), operator.mul)  # (2b)^n
        return [0] + [-_FP_SCALE // (n * p) for n, p in enumerate(powers, 1)]
    if b == 0:
        return [0] + [inner[n] // n for n in range(1, n_terms + 1)]
    out, e, d = [0] * (n_terms + 1), 0, 2 * b
    for n in range(1, n_terms + 1):
        out[n] = -e // n
        e = (e + inner[n]) // d
    return out


def _chain_sums(chains, n_terms: int) -> dict[tuple[int, ...], list[int]]:
    """Each letter tuple's [2^192, s_1, ..., s_w], s_j the sum of the terms of
    G(letters[:j] reversed; 1/2), by one depth-first walk over their trie: a
    node applies its letter to its parent's terms once, and those are held
    only while a child is pending, so a path with no branch holds one chain."""
    sums, path = {}, [_FP_SCALE]  # path[d]: the sum at depth d of the current path
    stack = [(0, None, None, list(chains))]  # depth, letter, parent's terms, tuples below
    while stack:
        d, b, terms, group = stack.pop()
        if d:
            terms = _holder_apply(b, terms, n_terms)
            path[d:] = [sum(terms)]
        children = {}
        for letters in group:
            if len(letters) == d:
                sums[letters] = path.copy()
            else:
                children.setdefault(letters[d], []).append(letters)
        stack += [(d + 1, b, terms, below) for b, below in children.items()]
    return sums


def _fp_holders(words, n_terms: int = HOLDER_N):
    """(-1)^depth G(word; 1) for each (word, depth), as (value, error) in units
    of 2^-192, the error rounded up once, by the Hoelder convolution at 1/2
    (Borwein, Bradley, Broadhurst and Lisonek, *Special values of multiple
    polylogarithms*):

        G(b_1..b_w; 1) = sum_j (-1)^j G(1-b_j, ..., 1-b_1; 1/2) G(b_(j+1), ..., b_w; 1/2).

    Every nonzero letter b or 1 - b has |b| >= 1, so every coefficient c_n
    of every factor has |c_n| <= 1 (by induction: |e_n| 2^n <= n - 1),
    every factor has absolute value at most 1 and truncation after N terms
    costs at most 2^-N per factor.  Each floor operation costs at most one
    unit 2^-192, so a coefficient that went through t letters is off by at
    most 3t units and a factor by at most 3wN units; each product adds one
    unit.  A word neither starts with 1 nor ends with 0 (``MzvAtom``
    rejects a leading unsigned 1).
    """
    pairs = [(tuple(1 - b for b in word), tuple(reversed(word))) for word, _ in words]
    sums = _chain_sums({letters for pair in pairs for letters in pair}, n_terms)
    for (word, depth), (flipped, rev) in zip(words, pairs):
        w, prefix, suffix = len(word), sums[flipped], sums[rev]  # G(1-b_j, ..., 1-b_1), G(b_(w-i+1), ..., b_w)
        acc = sum((-1) ** j * ((prefix[j] * suffix[w - j]) >> _FP_BITS) for j in range(w + 1))
        factor_err = Fraction(1, 2**n_terms) + Fraction(3 * w * n_terms, _FP_SCALE)
        err = (w + 1) * (2 * factor_err + factor_err**2 + Fraction(1, _FP_SCALE))
        yield (-1) ** depth * acc, -(-(err.numerator << _FP_BITS) // err.denominator)


_ATOM_UNITS: dict[MzvAtom, tuple[int, int]] = {}  # value and error bound in units of 2^-192


def _store_atoms(atoms) -> None:
    """Evaluate the atoms that ``_ATOM_UNITS`` lacks, in one ``_fp_holders``
    call, and store them: z(args) as ``_holder_word(args)`` at depth len(args),
    Li_q(1/2) = -G(0^(q-1), 2; 1) as that word at depth 1.  The first atom
    past HOLDER_WORD_CAP, in the given order, is refused before any word is built."""
    missing = [a for a in dict.fromkeys(atoms) if a not in _ATOM_UNITS]
    for a in missing:
        if a.weight > HOLDER_WORD_CAP:
            raise WordCapError("%s: weight %d above the Hoelder word cap %d", a, a.weight, HOLDER_WORD_CAP)
    words = [([0] * (a.li - 1) + [2], 1) if a.li else (_holder_word(a.args), len(a.args)) for a in missing]
    _ATOM_UNITS.update(zip(missing, _fp_holders(words)))


def _atom_units(atom: MzvAtom) -> tuple[int, int]:
    _store_atoms([atom])
    return _ATOM_UNITS[atom]


_atom_units.cache_clear = _ATOM_UNITS.clear  # emptied by ``clear_caches``


def _lincomb_units(lc: LinComb) -> tuple[int, int]:
    """The value of ``lc`` and a bound on its error, in units of 2^-192.

    A term c a_1 ... a_k, whose atoms are v_i +- e_i units, is summed
    exactly: c v_1 ... v_k is floored once, costing one unit when inexact,
    and the atoms' errors add at most |c| (prod (|v_i| + e_i) - prod |v_i|).
    """
    items = list(lc.items())
    _store_atoms(atom for term, _ in items for atom in term.factors)
    value = error = 0
    for term, c in items:
        den = c.denominator << (_FP_BITS * len(term.factors))
        prod = c.numerator << _FP_BITS
        lower = upper = abs(prod)
        for atom in term.factors:
            v, e = _ATOM_UNITS[atom]
            prod *= v
            lower *= abs(v)
            upper *= abs(v) + e
        q, r = divmod(prod, den)
        value += q
        error += -((lower - upper) // den) + (1 if r else 0)
    return value, error


def eval_lincomb_best(lc: LinComb, target_tol: float = 1e-10) -> NumericResult:
    """Certified evaluation of a linear combination (raises only WordCapError):
    the sum of ``_lincomb_units``, rounded once by ``_fp_result``.  The atoms come
    at fixed precision, so ``target_tol`` does not change the result; a caller
    compares the ``tail_bound`` with it."""
    return _fp_result(*_lincomb_units(lc), HOLDER_N if lc.atoms() else 0)


# ---------------------------------------------------------------------------
# Euler sums by direct summation of the defining series
# ---------------------------------------------------------------------------


@functools.cache
def _bernoulli(n: int) -> Fraction:
    """B_n, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


@functools.cache
def _em_sum(s: int, p: int, alternating: bool = False, k: int = K_EM):
    """W(x) = sum_{m > x} f(m), f(y) = ln(y/x)^s y^-p, by Euler-Maclaurin of
    order 2k: int_x^oo f = s! / (p-1)^(s+1) x^(1-p), minus f(x)/2,
    minus sum_i B_2i / (2i)! f^(2i-1)(x), where f^(j)(y) = y^(-p-j) sum_i
    d_ji ln(y/x)^i, so that only d_j0 survives at y = x.  The remainder is
    at most |B_2k| / (2k)! int_x^oo |f^(2k)|.  At p = 1, s = 0, where the
    integral diverges: the boundary terms alone, lim_M sum_{x<m<=M} 1/m -
    ln(M/x) = -D(x), D(x) = H_x - ln x - gamma.  An expansion is (terms,
    remainder): terms ((p, c), ...) stand for sum c x^-p, and the remainder
    (p, c) for a bound c x^-p on the error.

    ``alternating`` gives A(x) = sum_{m > x} (-1)^(m-x+1) f(m) instead, to
    order 2k + 2, and for p >= 1: the sum less twice its even terms,
    f(2j) = 2^-p ln(j/(x/2))^s j^-p for j > x/2.  Those sum like W from x/2,
    with first point x/2 + theta and Bernoulli values B_j(theta) (theta = 1
    for even x, 1/2 for odd x, and B_j(1/2) = (2^(1-j) - 1) B_j).  The
    integrals cancel, each boundary term of W, in f^(j-1)(x), becomes
    (1 - 2^j) times itself, and the remainders add up to (1 + 4^(k+1))
    times that of W."""
    if p < 1 or p == 1 and s and not alternating:
        raise ValueError("the sum needs p >= 2, or p >= 1 alternating or with s = 0")
    k += alternating
    d = [0] * s + [1]
    derivs = [d]
    for j in range(2 * k):  # d/dy (y^(-p-j) L^i) = y^(-p-j-1) (i L^(i-1) - (p+j) L^i)
        d = [-(p + j) * d[i] + (i + 1) * (d[i + 1] if i < s else 0) for i in range(s + 1)]
        derivs.append(d)
    terms = [(p, Fraction(-1, 2))] if s == 0 else []  # -B_j(1) / j! f^(j-1)(x) at x^-(p+j-1)
    for i in range(1, k + 1):
        terms.append((p + 2 * i - 1, -_bernoulli(2 * i) * derivs[2 * i - 1][0] / math.factorial(2 * i)))
    e = p + 2 * k - 1
    rem = sum(Fraction(abs(c) * math.factorial(i), e ** (i + 1)) for i, c in enumerate(derivs[-1]))
    rem *= abs(_bernoulli(2 * k)) / math.factorial(2 * k)
    if alternating:
        return tuple((q, (1 - 2 ** (q - p + 1)) * c) for q, c in terms), (e, (1 + 4**k) * rem)
    integral = [(p - 1, Fraction(math.factorial(s), (p - 1) ** (s + 1)))] if p > 1 else []
    return (*integral, *terms), (e, rem)


def _enveloped(expansion, sign: int = 1):
    """An ``_em_sum`` expansion of y^-r, s = 0, times ``sign``, its last term
    taken as the remainder.  y^-r = int_0^oo e^(-yt) t^(r-1) dt / (r-1)! is
    completely monotone, so W less its integral (-D for r = 1) and A = rho_r
    are that integral at y = x times the kernels -1/2 + (coth(t/2)/2 - 1/t)
    and 1/2 - tanh(t/2)/2 (Borwein, Calkin and Manna).  Both are sums of
    2t / (t^2 + c^2), so for t > 0 their Taylor series envelop them: the
    terms before any one miss by at most it, with its sign."""
    terms, _ = expansion
    p, c = terms[-1]
    return tuple((q, sign * b) for q, b in terms[:-1]), (p, abs(c))


def _floor_over_power(num: int, den: int, n: int, p: int) -> int:
    """num // (den n^p), n >= 1, without building n^p when it exceeds |num|:
    then the floor is 0, or -1 for a negative ``num``."""
    if p * (n.bit_length() - 1) > num.bit_length():
        return -1 if num < 0 else 0
    return num // (den * n**p)


def _at(terms, n: int) -> int:
    """sum c n^-p over ``terms`` in units, one floor each."""
    return sum(_floor_over_power(c.numerator << _FP_BITS, c.denominator, n, p) for p, c in terms)


def _rem_units(rem, n: int) -> int:
    """The remainder bound c n^-p in units, rounded up."""
    p, c = rem
    return -_floor_over_power(-(c.numerator << _FP_BITS), c.denominator, n, p)


@functools.cache
def _em_units(s: int, p: int, n: int, alternating: bool = False) -> tuple[int, int]:
    """``_em_sum`` at n in units: its value and error bound.  Alternating,
    the value is sum_{m > n} (-1)^(m+1) ln(m/n)^s m^-p."""
    terms, rem = _em_sum(s, p, alternating)
    value = _at(terms, n)
    return (-value if alternating and n & 1 else value), len(terms) + _rem_units(rem, n)


# Polynomials in sigma = (-1)^(m+1), L = ln(m/N) and 1/m are dicts {(g, t, p): c}
# for sum c sigma^g L^t m^-p, g in {0, 1}, with c in units.  A factor of a
# tail is a pair (P, E) of them with |factor(m) - P(m)| <= E(m) for m > N,
# the coefficients of E nonnegative; sigma has absolute value 1, so E's g
# only says which sum its error joins.  Each error of E at a key with p = 0
# bounds a constant: it moves P's coefficient there, the same for every m.

_ONE = (0, 0, 0)


def _mul(x, y):
    """The product of two factors, each P holding every key of its E: P_x P_y
    with sigma^2 = 1, floored per coefficient, at one unit each, and
    E_x (|P_y| + E_y) + |P_x| E_y rounded up."""
    (px, ex), (py, ey) = x, y
    prod, err = {}, {}
    y_items = [(g, t, p, b, abs(b) + ey.get((g, t, p), 0), ey.get((g, t, p), 0)) for (g, t, p), b in py.items()]
    for (g1, t1, p1), a in px.items():
        mag_a, e_a = abs(a), ex.get((g1, t1, p1), 0)
        for g2, t2, p2, b, mag_b, e_b in y_items:
            key = (g1 ^ g2, t1 + t2, p1 + p2)
            prod[key] = prod.get(key, 0) + a * b
            err[key] = err.get(key, 0) + e_a * mag_b + mag_a * e_b
    return {k: c >> _FP_BITS for k, c in prod.items()}, {k: -(-c >> _FP_BITS) + 1 for k, c in err.items()}


@functools.cache
def _plain_factor(e: int, n: int, carry: int):
    """Factor e of the tail for m > N = n, expanded about N, as one factor
    (P, E): its even part at g = 0 and its odd part, the coefficient of
    sigma = (-1)^(m+1), at g = 1; ``carry`` is the walk's harmonic number
    at n, off by at most n units.

    H_m = (H_N - D(N)) + ln(m/N) + D(m), with D(N) to one order more, off
    by a constant; H_m^(r) = H_N^(r) + T_r(N) - T_r(m), T_r = W of y^-r,
    T_r(N) off by a constant; both are even.  The alternating factor is
    eta(r) = -z(-r), an atom, plus sigma rho_r(m), rho_r = A of y^-r.  All
    come from ``_em_sum``, D and rho_r ``_enveloped``, D negated before
    any floor.  D(m), T_r(m) and rho_r(m) are off by their remainders,
    each at its own key, with p >= 2.  For r > HOLDER_N, 1 - 2^-r < eta(r)
    < 1 is one unit about 1, and 0 < rho_r(m) < m^-r, as its terms
    alternate and decrease: an error at p = r, like a remainder.  Likewise
    0 <= H_m^(r) - H_N^(r) < sum_{k >= 2} k^-r = 2^-r sum_{k >= 2} (2/k)^r
    <= 2^-r 4 (zeta(2) - 1) < 3 2^-r, below one unit, for N >= 1: the factor
    is the carry, off by its n units and that one."""
    if -e > HOLDER_N:
        return {_ONE: _FP_SCALE, (1, 0, -e): 0}, {_ONE: 1, (1, 0, -e): _FP_SCALE}
    if e > HOLDER_N:
        return {_ONE: carry}, {_ONE: n + 1}
    if e == 1:
        terms, rem = _enveloped(_em_sum(0, 1, k=K_EM + 1), -1)
    elif e > 1:
        terms, rem = _em_sum(0, e)
    else:
        terms, rem = _enveloped(_em_sum(0, -e, True))
    g, sign = int(e < 0), -1 if e > 1 else 1
    p = {(g, 0, q): sign * ((c.numerator << _FP_BITS) // c.denominator) for q, c in terms}
    err = dict.fromkeys(p, 1)
    key = (g, 0, rem[0])
    p.setdefault(key, 0)
    err[key] = err.get(key, 0) + _rem_units(rem, 1)
    if e == 1:
        anchor, anchor_rem = _enveloped(_em_sum(0, 1, k=K_EM + 2), -1)
        p.update({_ONE: carry - _at(anchor, n), (0, 1, 0): _FP_SCALE})
        err[_ONE] = n + len(anchor) + _rem_units(anchor_rem, n)
    elif e > 1:
        t_n, t_err = _em_units(0, e, n)
        p[_ONE], err[_ONE] = carry + t_n, n + t_err
    else:
        eta, eta_err = _atom_units(z(e))
        p[_ONE], err[_ONE] = -eta, eta_err
    return p, err


class _SumState:
    """The partial sum of one Euler series in units of 2^-192, and its tail.

    Past N the term is n^-q prod (even + sigma odd) over its factors, times
    sigma for an alternating outer sum, with sigma = (-1)^(n+1): one
    polynomial in sigma, L and 1/n (see the module docstring)."""

    def __init__(self, idx: EulerSumIndex):
        self.q = abs(idx.outer)
        self.outer_alt = idx.outer < 0
        self.factors = list(collections.Counter(idx.inner).items())  # in canonical order
        self.degree = len(idx.inner)
        self.carries = [0] * len(self.factors)  # harmonic numbers at n, floored
        self.partial = 0
        self.n = 0

    def walk_to(self, n_to: int) -> None:
        """Add the terms N+1..n_to, each floored once; no terms for n_to <= N.
        Each factor's carry continues the walk's: every 1/n^r it adds is
        floored.

        A carry is below 16 (H_n < 1 + ln n, n <= N_MAX), 2^196 units, so
        each term's numerator, 2^192 times the product of the carries, has
        absolute value below 2^(192 + 4 degree), and for n >= 2 it floors
        to the same 0 or -1 over n^q as over n^(193 + 4 degree) for every
        larger q; for n = 1 the power is 1 whatever q."""
        ns = range(self.n + 1, n_to + 1)
        if not ns:
            return
        q = min(self.q, _FP_BITS + 1 + 4 * self.degree)
        columns = []
        for (e, _), start in zip(self.factors, self.carries):
            r = min(abs(e), _FP_BITS + 1)  # 2^192 // n^r is the same for every larger r
            if e > 0:
                steps = [_FP_SCALE // n**r for n in ns]
            else:
                steps = [_FP_SCALE // n**r if n & 1 else -(_FP_SCALE // n**r) for n in ns]
            columns.append(list(itertools.accumulate(steps, initial=start))[1:])
        prod = itertools.repeat(_FP_SCALE)
        for (_, mult), column in zip(self.factors, columns):
            for _ in range(mult):
                prod = map(operator.mul, prod, column)
        if self.outer_alt:
            prod = map(operator.mul, prod, itertools.cycle((1, -1) if ns[0] & 1 else (-1, 1)))
        shift = itertools.repeat(_FP_BITS * self.degree)
        self.partial += sum(map(operator.floordiv, map(operator.rshift, prod, shift), [n**q for n in ns]))
        self.carries = [column[-1] for column in columns]
        self.n = n_to

    def walk_error(self) -> int:
        """Units the partial sum may be off by: each carry is off by at most n,
        one per floor, so each term by its floor plus degree * n * prod A /
        n^q, A >= 1 a bound on each factor with its error; sum_{m<=n} m^(1-q)
        is at most n for q = 1, else 1 + ln n."""
        n = self.n
        if not self.degree:
            return n
        bound = 1
        for (e, mult), c in zip(self.factors, self.carries):
            bound *= (c + n if e > 0 else _FP_SCALE + n) ** mult
        spread = n if self.q == 1 else n.bit_length() + 1
        return n + self.degree * spread * -(-bound >> (_FP_BITS * self.degree))

    def _tail(self) -> tuple[int, int]:
        """sum_{m > N} of the term in units.  sigma^outer m^-q, times each
        factor in turn, multiplies out into one polynomial in sigma = (-1)^(m+1),
        L = ln(m/N) and 1/m, off by a nonnegative one, summed key by key:
        by A (``_em_units``) where it carries sigma, by W where not.  An
        error at L^s m^-p sums to at most W times it.  At p = 1, where W
        diverges, each error comes from constants, the factors' at p = 0 and
        the floors, so it sums to at most |A| times it."""
        n = self.n
        poly = {(int(self.outer_alt), 0, self.q): _FP_SCALE}, {}
        for (e, mult), c in zip(self.factors, self.carries):
            factor = _plain_factor(e, n, c if e > 0 else 0)
            for _ in range(mult):
                poly = _mul(poly, factor)
        coeffs, err = poly
        value = bound = 0
        for (g, s, p), c in coeffs.items():
            a, a_err = _em_units(s, p, n, g == 1)
            w, w_err = _em_units(s, p, n) if g and p > 1 else (a, a_err)
            value += c * a
            bound += abs(c) * a_err + err.get((g, s, p), 0) * (abs(w) + w_err)
        return value >> _FP_BITS, -(-bound >> _FP_BITS) + 1

    def result(self) -> NumericResult:
        """The value after N terms plus the tail, and its certified bound."""
        value, error = self._tail()
        return _fp_result(self.partial + value, self.walk_error() + error, self.n, "euler_maclaurin")


def eval_euler_sum_best(idx: EulerSumIndex, target_tol: float = 1e-8, n_cap: int = N_MAX) -> NumericResult:
    """The series, walked until its bound meets ``target_tol`` (>= SUM_TOL_FLOOR)
    or N reaches ``n_cap``: the result of least bound, which may miss the tolerance."""
    if target_tol < SUM_TOL_FLOOR:
        raise ValueError(f"target tolerance below the floor {SUM_TOL_FLOOR}")
    state = _SumState(idx)
    best: NumericResult | None = None
    cap = min(max(n_cap, 1), N_MAX)
    for edge in [e for e in BLOCK_EDGES if e < cap] + [cap]:
        state.walk_to(edge)
        res = state.result()
        if best is None or res.tail_bound < best.tail_bound:
            best = res
        if best.tail_bound <= target_tol:
            break
    return best

