"""Independent numerical oracle with certified truncation bounds.

This module never consults the expansion or reduction engines: every value is
obtained from a defining series or iterated integral, so it can serve as the
second route of every identity check.

Three evaluation strategies are used.

  * Exact rational evaluation of finite multiple harmonic sums
    (``eval_mhs_exact``) -- no tolerance, used by the quasi-shuffle tests.

  * Fixed-point integer summation (192 fractional bits) for every atom:
    Li_q(1/2) through the geometric series sum 2^-n / n^q, and every
    (alternating) MZV through the Hoelder convolution of its iterated
    integral split at 1/2 (``_fp_holder``): a fixed N = 200 terms per
    power series, truncation at most 2^-N per factor since every
    coefficient is bounded by 1, plus one unit 2^-192 per floor
    operation.  Each atom is cached as two integers, its value and its
    error bound in units of 2^-192.  A linear combination of products of
    atoms (one atom included) is summed exactly in those units: exact
    coefficients times the atom integers, the atoms' errors carried
    through the products, one floor per term.  The result is rounded to
    longdouble once, and the reported bound counts that rounding exactly:
    at most 2^-64 |value| plus the fixed-point error, which is below 1e-50
    on every expansion that ``verify`` checks at weight <= 10.
    Independent reference constants for the tests: zeta(s) through an
    Euler-Maclaurin tail and pi through Machin's arctangents.

  * Blocked vectorized summation (numpy, 80-bit extended accumulators) of
    the Euler-sum series themselves, with an adaptive term count up to
    N_MAX = 10**7, held in memory SERIES_CHUNK terms at a time and bounded
    at the BLOCK_EDGES.  The tail past N is certified without any
    monotonicity assumption.  Each alternating harmonic factor splits as
    H^-_n^(r) = eta(r) + (-1)^(n+1) rho_r(n), where eta(r) = -z(-r) is an
    atom (eta(1) = ln 2) and rho_r is completely monotone.  Multiplied
    out, the tail is an alternating sum of a smooth g plus a plain sum of
    a smooth v:

      - g by the k-fold Euler transform, k <= K_MAX, with the k that gives
        the smallest bound:
            sum_{n>N} (-1)^(n-N-1) g(n) = sum_{j<k} (-1)^j Delta^j g(N+1) / 2^(j+1) + R,
            |R| <= 2^-k sum_{n>N} |Delta^k g(n)|.
        The differences come from longdouble values of g at N+1..N+K_MAX,
        in interval arithmetic that charges every rounding.  R is bounded
        by the Leibniz rule from |Delta^j n^-s| <= (s)_j n^(-s-j),
        Delta^j H_n^(r) = Delta^(j-1) (n+1)^-r and |Delta^j rho_r(n)| <=
        (r)_j (n+1/2)^(-r-j) / 2, and summed by log-moment integrals.

      - v enclosed from both sides: H_n + ln((m+1)/(n+1)) <= H_m <= H_n +
        ln(m/n), H_n^(r) <= H_m^(r) <= H_n^(r) + zeta tail, rho_r(m) within
        m^-r (1/2 - r/(4m) +- r(r+1)/(16 m^2)), each product summed from
        above and below by the exact integrals int (h + ln(x/N))^t x^-s dx
        over [N, oo) and [N+1, oo), or by Euler-Maclaurin zeta tails when
        no log factor is present.  The width falls like N^-s polylog(N).

    Floating-point rounding of the partial sum is charged in full: the
    float64 powers (1/n)^m at (m/2 + 2) eps64, at least 4 eps64; every
    carried harmonic number's error relative to its value (an alternating
    one is at least 1 - 2^-r); and one epsLD of the sum of magnitudes per
    addition, counted block by block.  Only this walk can miss a requested
    tolerance (``CapacityError``).  It stops early once that rounding
    charge, which only grows, reaches the best bound so far.

Reported ``tail_bound`` values are conservative under the documented
estimates above; decreasing the target tolerance never increases them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import LinComb, MzvAtom, li_half, z
from .indices import EulerSumIndex

LD = np.longdouble
EPS64 = float(np.finfo(np.float64).eps)
EPS_LD = float(np.finfo(LD).eps)
N_MAX = 10**7
K_MAX = 8  # highest order of the Euler transform of a tail
BLOCK_EDGES = (
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    2_000_000,
    4_000_000,
    7_000_000,
    10_000_000,
)
# Terms held in memory at once; bounds are still taken at BLOCK_EDGES.  At
# 4096 the arrays (64 KiB of longdouble) stay in cache and in the allocator's
# heap: a 10^7-term walk ran 1.7x faster than with 2^17-term chunks (2 vCPUs).
SERIES_CHUNK = 1 << 12
SUM_TOL_FLOOR = 1e-10


@dataclass(frozen=True)
class NumericResult:
    """A certified evaluation: |value - true| <= tail_bound.

    ``method`` names what produced the bound: ``holder`` (atoms by the
    Hoelder convolution), ``li_half``, ``zeta`` (fixed-point constants),
    ``euler_transform`` or ``log_moment`` (the tail of a series).
    """

    value: np.longdouble
    tail_bound: float
    terms_used: int
    method: str = "holder"

    def interval(self) -> tuple[float, float]:
        return (float(self.value) - self.tail_bound, float(self.value) + self.tail_bound)

    def __repr__(self):
        return f"NumericResult({float(self.value):.15g} +- {self.tail_bound:.3g}, N={self.terms_used})"


class CapacityError(RuntimeError):
    """Target tolerance unreachable within the term cap; carries the best result."""

    def __init__(self, message: str, result: NumericResult):
        super().__init__(f"{message}; achieved bound {result.tail_bound:.3g}")
        self.result = result


# ---------------------------------------------------------------------------
# Exact finite sums
# ---------------------------------------------------------------------------

MHS_N_CAP = 60
MHS_DEPTH_CAP = 6


def harmonic_exact(r: int, n: int) -> Fraction:
    """Generalized harmonic number of order r at n, as an exact rational."""
    return sum((Fraction(1, k**r) for k in range(1, n + 1)), Fraction(0))


def alt_harmonic_exact(r: int, n: int) -> Fraction:
    """Alternating harmonic number: sum of (-1)^(k-1) / k^r up to n."""
    return sum((Fraction((-1) ** (k - 1), k**r) for k in range(1, n + 1)), Fraction(0))


def eval_mhs_exact(args, n: int) -> Fraction:
    """Exact multiple harmonic sum over n >= n_1 > ... > n_k >= 1.

    ``args`` are signed slots (negative = alternating, contributing
    (-1)^(n_j) in that slot).  Empty args give 1; n below the depth gives 0.
    """
    args = tuple(args)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MHS_N_CAP:
        raise ValueError(f"exact MHS evaluation capped at n <= {MHS_N_CAP}")
    if len(args) > MHS_DEPTH_CAP:
        raise ValueError(f"exact MHS evaluation capped at depth <= {MHS_DEPTH_CAP}")
    if not args:
        return Fraction(1)
    if n < len(args):
        return Fraction(0)
    # prev[j] = zeta_j(suffix); build from the innermost slot outward.
    prev = [Fraction(1)] * (n + 1)
    for slot in reversed(args):
        s, alt = abs(slot), slot < 0
        cur = [Fraction(0)] * (n + 1)
        for j in range(1, n + 1):
            term = Fraction((-1) ** j if alt else 1, j**s) * prev[j - 1]
            cur[j] = cur[j - 1] + term
        prev = cur
    return prev[n]


# ---------------------------------------------------------------------------
# Fixed-point (192 fractional bits) constants
# ---------------------------------------------------------------------------

_FP_BITS = 192
_FP_SCALE = 1 << _FP_BITS
LI_HALF_N = 220  # terms of the Li_q(1/2) series


def _to_units(val: Fraction, err: Fraction) -> tuple[int, int]:
    """(value, error) in units of 2^-192: the value floored, the error rounded
    up, plus one unit if the floor was inexact."""
    v, r = divmod(val.numerator << _FP_BITS, val.denominator)
    return v, -(-(err.numerator << _FP_BITS) // err.denominator) + (1 if r else 0)


def _fp_result(value: int, error: int, terms: int, method: str = "holder") -> NumericResult:
    """Round ``value`` +- ``error`` (units of 2^-192) to longdouble once: the
    value to its 64 leading bits, the bound up to the next float64, counting
    that rounding exactly.  An exact 0 +- 0 stays 0 +- 0."""
    shift = max(abs(value).bit_length() - 64, 0)
    mantissa = (abs(value) + (1 << shift >> 1)) >> shift  # to nearest; at most 2^64
    rounded = mantissa << shift if value >= 0 else -(mantissa << shift)
    total = error + abs(value - rounded)
    try:
        bound = float(total)
    except OverflowError:  # a bound beyond about 1e250
        bound = math.inf
    if bound < total:
        bound = math.nextafter(bound, math.inf)
    v = np.ldexp(LD(mantissa), shift - _FP_BITS)
    return NumericResult(v if value >= 0 else -v, math.ldexp(bound, -_FP_BITS), terms, method)


def _fp_zeta(s: int) -> tuple[Fraction, Fraction]:
    """zeta(s) for s >= 2 by partial sum plus Euler-Maclaurin tail."""
    if s < 2:
        raise ValueError("zeta needs s >= 2")
    n_cut = 2000 if s < 40 else 64
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


def _fp_li_half(q: int) -> tuple[Fraction, Fraction]:
    """Li_q(1/2) = sum 2^-n / n^q; geometric tail bound."""
    if q < 1:
        raise ValueError("Li order must be >= 1")
    acc = 0
    for n in range(1, LI_HALF_N + 1):
        acc += _FP_SCALE // (2**n * n**q)
    tail = Fraction(2, 2 ** (LI_HALF_N + 1) * (LI_HALF_N + 1) ** q)
    return Fraction(acc, _FP_SCALE), Fraction(LI_HALF_N, _FP_SCALE) + tail


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
    return _fp_result(*_to_units(*_fp_zeta(s)), terms=2000, method="zeta")


def li_half_value(q: int) -> NumericResult:
    return eval_atom(li_half(q))


def ln2_value() -> NumericResult:
    return li_half_value(1)


@functools.cache
def pi_reference() -> NumericResult:
    """pi via Machin's two-arctangent combination (test cross-checks)."""
    a5, e5 = _fp_atan_inv(5)
    a239, e239 = _fp_atan_inv(239)
    return _fp_result(*_to_units(16 * a5 - 4 * a239, 16 * e5 + 4 * e239), 0)


def zeta_tail_interval(n: int, s: int) -> tuple[float, float]:
    """Rigorous enclosure of sum_{m > n} m^-s via Euler-Maclaurin (s >= 2)."""
    a = float(n + 1)
    est = (
        a ** (1.0 - s) / (s - 1.0)
        + 0.5 * a ** (-float(s))
        + (s / 12.0) * a ** (-float(s) - 1.0)
        - (s * (s + 1) * (s + 2) / 720.0) * a ** (-float(s) - 3.0)
    )
    rem = 2.0 * (s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0) * a ** (-float(s) - 5.0)
    rem += 8 * EPS64 * est
    return (max(est - rem, 0.0), est + rem)


# ---------------------------------------------------------------------------
# MZV atoms by Hoelder convolution
# ---------------------------------------------------------------------------

HOLDER_N = 200


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
        return [0] + [-_FP_SCALE // (n * (2 * b) ** n) for n in range(1, n_terms + 1)]
    if b == 0:
        return [0] + [inner[n] // n for n in range(1, n_terms + 1)]
    out, e, d = [0] * (n_terms + 1), 0, 2 * b
    for n in range(1, n_terms + 1):
        out[n] = -e // n
        e = (e + inner[n]) // d
    return out


def _fp_holder(args, n_terms: int = HOLDER_N) -> tuple[Fraction, Fraction]:
    """z(args) by the Hoelder convolution at 1/2 (Borwein, Bradley, Broadhurst
    and Lisonek, *Special values of multiple polylogarithms*):

        G(b_1..b_w; 1) = sum_j (-1)^j G(1-b_j, ..., 1-b_1; 1/2) G(b_(j+1), ..., b_w; 1/2).

    Every nonzero letter has |b| >= 1, so every coefficient c_n of every
    factor has |c_n| <= 1 (by induction: |e_n| 2^n <= n - 1), every factor has
    absolute value at most 1 and truncation after N terms costs at most 2^-N
    per factor.  Each floor operation costs at most one unit 2^-192, so a
    coefficient that went through t letters is off by at most 3t units and
    a factor by at most 3wN units; each product adds one unit.  ``args``
    must not start with an unsigned 1 (``MzvAtom`` rejects those).
    """
    word = _holder_word(args)
    w = len(word)
    prefix, pre = [_FP_SCALE], None  # prefix[j] = G(1-b_j, ..., 1-b_1; 1/2)
    for b in word:
        pre = _holder_apply(1 - b, pre, n_terms)
        prefix.append(sum(pre))
    suffix, suf = [_FP_SCALE], None  # suffix[i] = G(b_(w-i+1), ..., b_w; 1/2)
    for b in reversed(word):
        suf = _holder_apply(b, suf, n_terms)
        suffix.append(sum(suf))
    acc = sum((-1) ** j * ((prefix[j] * suffix[w - j]) >> _FP_BITS) for j in range(w + 1))
    factor_err = Fraction(1, 2**n_terms) + Fraction(3 * w * n_terms, _FP_SCALE)
    err = (w + 1) * (2 * factor_err + factor_err**2 + Fraction(1, _FP_SCALE))
    return Fraction((-1) ** len(args) * acc, _FP_SCALE), err


@functools.cache
def _atom_units(atom: MzvAtom) -> tuple[int, int]:
    """The atom's value and error bound in units of 2^-192."""
    return _to_units(*(_fp_li_half(atom.li) if atom.li else _fp_holder(atom.args)))


def eval_atom(atom: MzvAtom) -> NumericResult:
    """Certified value of one atom: the combination of that atom alone."""
    return eval_lincomb_best(LinComb.of_atom(atom))


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------


def _lincomb_units(lc: LinComb) -> tuple[int, int]:
    """The value of ``lc`` and a bound on its error, in units of 2^-192.

    A term c a_1 ... a_k, whose atoms are v_i +- e_i units, is summed
    exactly: c v_1 ... v_k is floored once, costing one unit when inexact,
    and the atoms' errors add at most |c| (prod (|v_i| + e_i) - prod |v_i|).
    """
    value = error = 0
    for term, c in lc.items():
        den = c.denominator << (_FP_BITS * len(term.factors))
        prod = c.numerator << _FP_BITS
        lower = upper = abs(prod)
        for atom in term.factors:
            v, e = _atom_units(atom)
            prod *= v
            lower *= abs(v)
            upper *= abs(v) + e
        q, r = divmod(prod, den)
        value += q
        error += -((lower - upper) // den) + (1 if r else 0)
    return value, error


def eval_lincomb_best(lc: LinComb, target_tol: float = 1e-10) -> NumericResult:
    """Certified evaluation of a linear combination (never raises): the sum
    of ``_lincomb_units``, rounded to longdouble once.

    The atoms come at fixed precision, so ``target_tol`` does not change the
    result; ``eval_lincomb`` compares against it.
    """
    atoms = lc.atoms()
    terms = max((LI_HALF_N if a.li else HOLDER_N for a in atoms), default=0)
    method = "li_half" if atoms and all(a.li for a in atoms) else "holder"
    return _fp_result(*_lincomb_units(lc), terms, method)


def eval_lincomb(lc: LinComb, target_tol: float = 1e-10) -> NumericResult:
    res = eval_lincomb_best(lc, target_tol)
    if res.tail_bound > target_tol:
        raise CapacityError(f"tolerance {target_tol} unreachable for combination", res)
    return res


# ---------------------------------------------------------------------------
# Euler sums by direct summation of the defining series
# ---------------------------------------------------------------------------


def _block_schedule(cap: int):
    cap = min(cap, N_MAX)
    edges = [e for e in BLOCK_EDGES if e < cap]
    edges.append(cap)
    return edges


def power_rounding(m: int) -> float:
    """Relative rounding charged per term whose largest float64 power is
    (1/n)**m: rounding 1/n costs eps64/2, which the power multiplies by m,
    and the power itself adds at most 2 eps64; never below 4 eps64."""
    return max(4.0, m / 2 + 2) * EPS64


def _power_sum_upper(n: int, r: int) -> float:
    """Upper bound on sum_{m <= n} m^-r."""
    return 1.0 + math.log(n) if r == 1 else r / (r - 1.0)


def _rising(s: int, j: int) -> int:
    """s (s + 1) ... (s + j - 1)."""
    return math.prod(range(s, s + j))


# A majorant of f is a tuple, over the orders j = 0..K_MAX, of dicts
# {(t, p): c} with c >= 0 such that, for every n > N and shift i with
# i + j <= K_MAX,
#
#     |Delta^j f(n + i)| <= sum c L(n)^t n^-p,    L(n) = h + ln(n / N),
#
# where h >= H_N + K_MAX / N, so that L(n) >= H_(n+i).


def _power_majorant(s: int):
    """n^-s: |Delta^j n^-s| <= (s)_j n^(-s-j)."""
    return tuple({(0, s + j): float(_rising(s, j))} for j in range(K_MAX + 1))


def _harmonic_majorant(r: int, sup: float):
    """H_n^(r), with H_n^(r) <= ``sup`` for r >= 2 and H_n^(1) <= L(n):
    Delta^j H_n^(r) = Delta^(j-1) (n+1)^-r."""
    head = {(1, 0): 1.0} if r == 1 else {(0, 0): sup}
    return (head,) + tuple({(0, r + j - 1): float(_rising(r, j - 1))} for j in range(1, K_MAX + 1))


def _rho_majorant(r: int):
    """rho_r(n) = sum_{j>=1} (-1)^(j-1) (n+j)^-r
               = int t^(r-1) e^(-(n+1/2)t) sech(t/2) / 2 dt / Gamma(r).

    Delta acts on e^(-(n+1/2)t) as the factor e^-t - 1, at most t in absolute
    value, and sech <= 1, so |Delta^j rho_r(n)| <= (r)_j (n+1/2)^(-r-j) / 2."""
    return tuple({(0, r + j): 0.5 * _rising(r, j)} for j in range(K_MAX + 1))


def _rho_brackets(r: int) -> tuple[list[float], list[float]]:
    """Polynomials P in 1/n with rho_r(n) between n^-r P_lo(1/n) / 2 and
    n^-r P_hi(1/n) / 2: from 1 - t^2/8 <= sech(t/2) <= 1 in the integral
    above, and 1 - r y <= (1 + y)^-r <= 1 - r y + r(r+1) y^2 / 2 at y = 1/(2n).
    The lower one is nonnegative for n >= r."""
    c = r * (r + 1) / 8
    return [1.0, -r / 2, -c], [1.0, -r / 2, c]


def _poly_mul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _leibniz(f, g):
    """Majorant of fg: Delta^j (fg)(n) = sum_i C(j,i) Delta^i f(n) Delta^(j-i) g(n+i)."""
    out = tuple({} for _ in range(K_MAX + 1))
    for j, acc in enumerate(out):
        for i in range(j + 1):
            b = math.comb(j, i)
            for (t1, p1), c1 in f[i].items():
                for (t2, p2), c2 in g[j - i].items():
                    key = (t1 + t2, p1 + p2)
                    acc[key] = acc.get(key, 0.0) + b * c1 * c2
    return out


def _log_moment_integral(a: int, n: int, k: int, s: int, h: float) -> float:
    """int_a^inf (h + ln(x/n))^k x^-s dx for s > 1 and h + ln(a/n) >= 0."""
    u = h + math.log(a / n)
    sm1 = s - 1.0
    acc = 0.0
    for t in range(k + 1):
        acc += math.comb(k, t) * u ** (k - t) * math.factorial(t) / sm1 ** (t + 1)
    return acc * float(a) ** (-sm1)


def _tail_upper(n: int, t: int, p: int, h: float) -> float:
    """Upper bound on sum_{m > n} (h + ln(m/n))^t m^-p, h >= 0: each term is
    at most the integral over [m-1, m] of (h + 1/n + ln(x/n))^t x^-p, since
    ln(m/n) <= ln(x/n) + 1/x there.  With h >= H_n, and H_m <= H_n + ln(m/n),
    this also bounds sum_{m > n} H_m^t m^-p."""
    if t == 0:
        return zeta_tail_interval(n, p)[1]
    return _log_moment_integral(n, n, t, p, h + 1.0 / n) * (1.0 + 1e-9)


def _tail_lower(n: int, t: int, p: int, h: float) -> float:
    """Lower bound on sum_{m > n} (h + ln((m+1)/(n+1)))^t m^-p, h >= 1: each
    term is at least the integral over [m, m+1] of (h - 1/n + ln(x/n))^t x^-p."""
    if t == 0:
        return zeta_tail_interval(n, p)[0]
    return _log_moment_integral(n + 1, n, t, p, h - 1.0 / n) * (1.0 - 1e-9)


def _leibniz_tail(terms, n: int, h: float, cache: dict) -> float:
    """Upper bound on sum_{m > n} of a majorant's order-k entries ``terms``."""
    acc = 0.0
    for key, c in terms:
        if key not in cache:
            cache[key] = _tail_upper(n, *key, h)
        acc += c * cache[key]
    return acc * (1.0 + 1e-9)


# Interval arithmetic on (longdouble value or array, float64 error bound):
# every operation charges its own rounding, one EPS_LD of the result.


def _fabs(x):
    return np.abs(x).astype(np.float64)


def _imul(x, y):
    (a, ea), (b, eb) = x, y
    v = a * b
    return v, _fabs(a) * eb + _fabs(b) * ea + ea * eb + EPS_LD * _fabs(v)


def _iadd(x, y, sign: int = 1):
    (a, ea), (b, eb) = x, y
    v = a + b if sign > 0 else a - b
    return v, ea + eb + EPS_LD * _fabs(v)


def _eta(r: int) -> tuple[np.longdouble, float]:
    """eta(r) = sum (-1)^(n-1) n^-r = -z(-r)."""
    res = eval_atom(z(-r))
    return -res.value, res.tail_bound


def _interval_bounds(x) -> tuple[float, float]:
    v, e = float(x[0]), x[1]
    return (v - e) * (1 - 1e-15), (v + e) * (1 + 1e-15)


class _SumState:
    """Partial sums of one Euler series and certified bounds on its tail.

    Past N, every alternating factor splits as H^-_n^(r) = eta(r) +
    (-1)^(n+1) rho_r(n), with rho_r completely monotone.  Multiplied out,
    the term is (-1)^(n+1) g(n) + v(n): g and v are sums of pieces
    coeff * prod eta^a * prod rho^b * prod H_n^(r) * n^-q, sorted by whether
    the sign (-1)^(n+1) survives.  The g part is summed by the k-fold Euler
    transform, the v part is enclosed from both sides by log-moment
    integrals.
    """

    def __init__(self, idx: EulerSumIndex):
        self.q = abs(idx.outer)
        self.outer_alt = idx.outer < 0
        # distinct factors with multiplicities
        counts: dict[int, int] = {}
        for e in idx.inner:
            counts[e] = counts.get(e, 0) + 1
        self.factors = sorted(counts.items(), key=lambda kv: (kv[0] < 0, abs(kv[0])))
        self.f_carries = {e: LD(0.0) for e, _ in self.factors}
        self.partial = LD(0.0)
        self.abs_sum = 0.0
        self.blocks = 0  # blocks added, and the longest one: see _sum_rounding
        self.longest = 0
        self.degree = len(idx.inner)
        self.unsigned = [(e, m) for e, m in self.factors if e > 0]
        self.alternating = [(-e, m) for e, m in self.factors if e < 0]
        self.logs = counts.get(1, 0)  # power of the log-growing factor H_n^(1)
        self.eta = {r: _eta(r) for r, _ in self.alternating}
        # pieces[True] make g, pieces[False] make v: (coeff, ((r, a), ...) of
        # eta, ((r, b), ...) of rho)
        self.pieces: dict[bool, list] = {True: [], False: []}
        for picks in itertools.product(*(range(m + 1) for _, m in self.alternating)):
            coeff = math.prod(math.comb(m, i) for (_, m), i in zip(self.alternating, picks))
            etas = tuple((r, m - i) for (r, m), i in zip(self.alternating, picks) if m > i)
            rhos = tuple((r, i) for (r, m), i in zip(self.alternating, picks) if i)
            self.pieces[(sum(picks) + self.outer_alt) % 2 == 1].append((coeff, etas, rhos))
        self.method = "euler_transform" if self.pieces[True] else "log_moment"
        self.majorant = self._alternating_majorant() if self.pieces[True] else None

    def update_block(self, pows, alt_sign):
        """Add the next block of terms, given as ``pows[m]`` = (1/n)**m and the
        sign (-1)**n of each n."""
        h = None
        for e, mult in self.factors:
            r = abs(e)
            base = pows[r]
            term = (-base * alt_sign) if e < 0 else base
            f_arr = self.f_carries[e] + np.cumsum(term.astype(LD))
            self.f_carries[e] = f_arr[-1]
            piece = f_arr
            for _ in range(mult - 1):
                piece = piece * f_arr
            h = piece if h is None else h * piece
        if h is None:
            h = LD(1.0)  # degree 0: pure outer series
        a = h * pows[self.q]
        if self.outer_alt:
            a = a * (-alt_sign)
        a = a.astype(LD, copy=False)
        self.abs_sum += float(np.sum(np.abs(a))) * (1 + 1e-9)
        self.partial = self.partial + np.sum(a)
        self.blocks += 1
        self.longest = max(self.longest, len(a))

    # -- rounding ------------------------------------------------------------

    def _sum_rounding(self) -> float:
        """Relative error, against the sum S of the term magnitudes, of a
        running sum built block by block: within a block of L terms each
        partial sum is off by at most L roundings of S, and adding the block
        to the carry costs one more; EPS_LD is twice the unit roundoff."""
        return (self.longest + self.blocks) * EPS_LD

    def _carry_error(self, e: int, n: int) -> float:
        """Error of the carried harmonic number of factor e after n terms:
        the float64 power rounding of each term, then ``_sum_rounding``."""
        r = abs(e)
        size = float(self.f_carries[e]) if e > 0 else _power_sum_upper(n, r)
        return (power_rounding(r) + self._sum_rounding()) * size * (1 + 1e-9)

    def rounding_charge(self, n: int) -> float:
        """Bound on the rounding error of the partial sum after n terms.

        Each term is off by its float64 outer power, the carry errors of its
        factors relative to their values (an alternating factor is at least
        1 - 2^-r) and one EPS_LD per product; the partial sum adds
        ``_sum_rounding``.  Nondecreasing in n."""
        acc = power_rounding(self.q) + (self.degree + 2) * EPS_LD + self._sum_rounding()
        for e, m in self.factors:
            r = abs(e)
            kappa = 1.0 if e > 0 else _power_sum_upper(n, r) / (1.0 - 2.0**-r)
            acc += m * kappa * (power_rounding(r) + self._sum_rounding())
        return self.abs_sum * acc * 1.01

    # -- the alternating part g ------------------------------------------------

    def _alternating_majorant(self):
        """Per order k, the entries of a majorant of g (see ``_leibniz``)."""
        base = _power_majorant(self.q)
        for r, m in self.unsigned:
            sup = 0.0
            if r > 1:
                z = zeta_value(r)
                sup = (float(z.value) + z.tail_bound) * (1 + 1e-15)
            for _ in range(m):
                base = _leibniz(base, _harmonic_majorant(r, sup))
        total = tuple({} for _ in range(K_MAX + 1))
        for coeff, etas, rhos in self.pieces[True]:
            f = base
            c = float(coeff)
            for r, a in etas:
                c *= _interval_bounds(self.eta[r])[1] ** a
            for r, b in rhos:
                for _ in range(b):
                    f = _leibniz(f, _rho_majorant(r))
            for j, entries in enumerate(f):
                for key, v in entries.items():
                    total[j][key] = total[j].get(key, 0.0) + c * v
        return [sorted(entries.items()) for entries in total]

    def _window(self, n: int, carries) -> tuple:
        """g(n+1), ..., g(n+K_MAX) as an interval array."""
        m = np.arange(n + 1, n + K_MAX + 1).astype(LD)
        shape = np.ones(K_MAX, dtype=LD)
        zero = np.zeros(K_MAX)

        def powers(r):
            v = LD(1.0) / m**r
            return v, (r + 1) * EPS_LD * _fabs(v)

        steps = np.arange(1, K_MAX + 1)
        g = powers(self.q)
        for e, mult in self.unsigned:
            t, et = powers(e)
            c, ec = carries[e]
            v = c + np.cumsum(t)
            hv = (v, ec + np.cumsum(et) + 2 * steps * EPS_LD * _fabs(v))
            for _ in range(mult):
                g = _imul(g, hv)
        if self.alternating:
            plus, minus = (shape, zero), (shape, zero)
            sign = np.where(steps % 2 == 0, 1.0, -1.0).astype(LD)
            for r, mult in self.alternating:
                # rho_r(n) = (-1)^(n+1) (H^-_n - eta), then
                # rho_r(n+i) = (-1)^i (rho_r(n) + sum_{l<=i} (-1)^l (n+l)^-r)
                if n % 2:
                    rho0 = _iadd(carries[-r], self.eta[r], -1)
                else:
                    rho0 = _iadd(self.eta[r], carries[-r], -1)
                t, et = powers(r)
                v = sign * (rho0[0] + np.cumsum(sign * t))
                rho = (v, rho0[1] + np.cumsum(et) + 2 * steps * EPS_LD * (_fabs(v) + _fabs(t)))
                eta = (np.full(K_MAX, self.eta[r][0], dtype=LD), np.full(K_MAX, self.eta[r][1]))
                for _ in range(mult):
                    plus = _imul(plus, _iadd(eta, rho))
                    minus = _imul(minus, _iadd(eta, rho, -1))
            # the pieces of g are those with an even power of (-1)^(n+1)
            # under an alternating outer sign, and with an odd one otherwise
            p = _iadd(plus, minus, -1 if not self.outer_alt else 1)
            g = _imul(g, (p[0] / 2, p[1] / 2))
        return g

    def _alternating_tail(self, n: int, carries) -> tuple[np.longdouble, float]:
        """sum_{m > n} (-1)^(m+1) g(m) by the k-fold Euler transform

            sum_{i>=0} (-1)^i g(n+1+i) = sum_{j<k} (-1)^j Delta^j g(n+1) / 2^(j+1) + R,
            |R| <= 2^-k sum_{m > n} |Delta^k g(m)|,

        for the k in 1..K_MAX with the smallest bound."""
        d, e = self._window(n, carries)
        h = 0.0
        if self.logs:
            h = float(carries[1][0]) + carries[1][1] + K_MAX / n
        cache: dict = {}
        total, total_err, best = LD(0.0), 0.0, None
        for k in range(1, K_MAX + 1):
            term = d[0] / LD(2.0**k)
            total = total + term if k % 2 else total - term
            total_err += e[0] / 2.0**k + EPS_LD * abs(float(total))
            bound = total_err + _leibniz_tail(self.majorant[k], n, h, cache) / 2.0**k
            if best is None or bound < best[1]:
                best = (total, bound)
            diff = d[1:] - d[:-1]
            d, e = diff, e[1:] + e[:-1] + EPS_LD * _fabs(diff)
        value, bound = best
        return (value if n % 2 == 0 else -value), bound

    # -- the non-alternating part v --------------------------------------------

    def _plain_tail(self, n: int, carries) -> tuple[float, float]:
        """Enclosure [lo, hi] of sum_{m > n} v(m), from brackets for m > n:
        H_n + ln((m+1)/(n+1)) <= H_m <= H_n + ln(m/n), H_n^(r) <= H_m^(r) <=
        H_n^(r) + zeta tail, and ``_rho_brackets``."""
        h_lo = h_hi = 0.0
        if self.logs:
            h_lo, h_hi = _interval_bounds(carries[1])
        c_lo = c_hi = 1.0
        for e, m in self.unsigned:
            if e > 1:
                lo, hi = _interval_bounds(carries[e])
                c_lo *= lo**m
                c_hi *= (hi + zeta_tail_interval(n, e)[1]) ** m

        def tail(poly, p, upper):
            # sum_{m > n} L(m)^t m^-p poly(1/m), from above or below
            acc = 0.0
            for i, c in enumerate(poly):
                if c and (c > 0) == upper:
                    acc += c * _tail_upper(n, self.logs, p + i, h_hi)
                elif c:
                    acc += c * _tail_lower(n, self.logs, p + i, h_lo)
            return acc

        lo = hi = 0.0
        for coeff, etas, rhos in self.pieces[False]:
            e_lo, e_hi = c_lo * coeff, c_hi * coeff
            for r, a in etas:
                b_lo, b_hi = _interval_bounds(self.eta[r])
                e_lo *= b_lo**a
                e_hi *= b_hi**a
            poly_lo, poly_hi = [1.0], [1.0]
            for r, b in rhos:
                p_lo, p_hi = _rho_brackets(r)
                for _ in range(b):
                    poly_lo, poly_hi = _poly_mul(poly_lo, p_lo), _poly_mul(poly_hi, p_hi)
            p = self.q + sum(r * b for r, b in rhos)
            halves = 0.5 ** sum(b for _, b in rhos)
            hi += e_hi * halves * tail(poly_hi, p, True)
            if not rhos or n + 1 >= max(r for r, _ in rhos):
                lo += e_lo * halves * tail(poly_lo, p, False)
        return lo * (1 - 1e-9), hi * (1 + 1e-9)

    def bound_at(self, n: int) -> tuple[np.longdouble, float]:
        """The value after n terms plus the tail, and its certified bound."""
        carries = {e: (self.f_carries[e], self._carry_error(e, n)) for e, _ in self.factors}
        value = self.partial
        bound = self.rounding_charge(n)
        if self.pieces[True]:
            t, b = self._alternating_tail(n, carries)
            value, bound = value + t, bound + b
        if self.pieces[False]:
            lo, hi = self._plain_tail(n, carries)
            value = value + LD((lo + hi) / 2.0)
            bound += (hi - lo) / 2.0 + EPS64 * (abs(lo) + abs(hi))
        return value, bound


def eval_euler_sum_best(idx: EulerSumIndex, target_tol: float = 1e-8, n_cap: int = N_MAX) -> NumericResult:
    state = _SumState(idx)
    needed = sorted({abs(e) for e in idx.inner} | {state.q})
    best: NumericResult | None = None
    n_lo = 0
    for edge in _block_schedule(n_cap):
        for lo in range(n_lo, edge, SERIES_CHUNK):
            n = np.arange(lo + 1, min(lo + SERIES_CHUNK, edge) + 1)
            alt_sign = np.where(n % 2 == 0, 1.0, -1.0)
            inv = 1.0 / n
            state.update_block({m: inv**m for m in needed}, alt_sign)
        value, bound = state.bound_at(edge)
        if best is None or bound < best.tail_bound:
            best = NumericResult(value, bound, edge, state.method)
        # every later bound is at least the rounding charge, which only grows
        if best.tail_bound <= max(target_tol, state.rounding_charge(edge)):
            return best
        n_lo = edge
    return best


def eval_euler_sum(idx: EulerSumIndex, target_tol: float = 1e-8, n_cap: int = N_MAX) -> NumericResult:
    """Evaluate the defining series; CapacityError carries the best result."""
    if target_tol < SUM_TOL_FLOOR:
        raise ValueError(f"target tolerance below the floor {SUM_TOL_FLOOR}")
    res = eval_euler_sum_best(idx, target_tol, n_cap=n_cap)
    if res.tail_bound > target_tol:
        raise CapacityError(f"tolerance {target_tol} unreachable for {idx}", res)
    return res
