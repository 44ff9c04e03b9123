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
    operation.  Truncation and rounding end up far below 1e-30; the
    reported bound, below 1e-18 * (1 + |value|), is the final rounding to
    longdouble.  Independent reference constants for the tests: zeta(s)
    through an Euler-Maclaurin tail and pi through Machin's arctangents.

  * Blocked vectorized summation (numpy, 80-bit extended accumulators) of
    the Euler-sum series themselves, with an adaptive term count up to
    N_MAX = 10**7, held in memory SERIES_CHUNK terms at a time and bounded
    at the BLOCK_EDGES.  Tail control:

      - outer exponent unsigned: the exact log-moment integrals
        sum_{n>N} (H_N + ln(n/N))^k n^-s <= N^(1-s) * sum_t C(k,t) H_N^(k-t)
        t! / (s-1)^(t+1) bound the tail above; for unsigned factors the
        Euler-Maclaurin zeta tail bounds it below.

      - outer exponent alternating: consecutive partial sums bracket the
        limit when the term magnitudes decrease (verified on the computed
        range), giving the midpoint value with half-gap error; independently,
        the pairwise-summed series gives an unconditional triangle bound
        built from the same log-moment integrals.  The better one is kept.

    Floating-point rounding is budgeted first-order as
    ((m/2 + 2) eps64 + 3 N epsLD) * sum |terms|, at least 4 eps64 per term,
    where m is the largest power (1/n)^m formed in float64.  Only this walk
    can miss a requested tolerance (``CapacityError``).

Reported ``tail_bound`` values are conservative under the documented
estimates above; decreasing the target tolerance never increases them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import LinComb, MzvAtom, SymbolicTerm
from .indices import EulerSumIndex

LD = np.longdouble
EPS64 = float(np.finfo(np.float64).eps)
EPS_LD = float(np.finfo(LD).eps)
N_MAX = 10**7
BLOCK_EDGES = (
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

_EULER_GAMMA_UB = 0.5772156649015330  # upper bound on the Euler constant


@dataclass(frozen=True)
class NumericResult:
    """A certified evaluation: |value - true| <= tail_bound."""

    value: np.longdouble
    tail_bound: float
    terms_used: int

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


def _frac_to_ld(fr: Fraction) -> np.longdouble:
    q, r = divmod(fr.numerator, fr.denominator)
    rem = Fraction(r, fr.denominator)
    scaled = int(rem * (1 << 80))
    return LD(q) + LD(scaled) * LD(2.0) ** LD(-80)


def _fp_result(val: Fraction, err: Fraction, terms: int) -> NumericResult:
    v = _frac_to_ld(val)
    bound = float(err) + 2.0 ** (-79) + 4 * EPS_LD * abs(float(val))
    return NumericResult(v, bound, terms)


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
    n_cut = 220
    acc = 0
    for n in range(1, n_cut + 1):
        acc += _FP_SCALE // (2**n * n**q)
    tail = Fraction(2, 2 ** (n_cut + 1) * (n_cut + 1) ** q)
    return Fraction(acc, _FP_SCALE), Fraction(n_cut, _FP_SCALE) + tail


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


_CONST_CACHE: dict = {}


def zeta_value(s: int) -> NumericResult:
    key = ("zeta", s)
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = _fp_result(*_fp_zeta(s), terms=2000)
    return _CONST_CACHE[key]


def li_half_value(q: int) -> NumericResult:
    key = ("li", q)
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = _fp_result(*_fp_li_half(q), terms=220)
    return _CONST_CACHE[key]


def ln2_value() -> NumericResult:
    return li_half_value(1)


def pi_reference() -> NumericResult:
    """pi via Machin's two-arctangent combination (test cross-checks)."""
    key = ("pi",)
    if key not in _CONST_CACHE:
        a5, e5 = _fp_atan_inv(5)
        a239, e239 = _fp_atan_inv(239)
        _CONST_CACHE[key] = _fp_result(16 * a5 - 4 * a239, 16 * e5 + 4 * e239, 0)
    return _CONST_CACHE[key]


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
# Log-moment tail bounds
# ---------------------------------------------------------------------------


def _hn_upper(n: int) -> float:
    return math.log(n) + _EULER_GAMMA_UB + 0.5 / n


def log_moment_tail(n: int, k: int, s: float, hn: float | None = None) -> float:
    """Upper bound on sum_{m > n} (H_n + ln(m/n))^k m^-s, s > 1.

    Since H_m <= H_n + ln(m/n), this also bounds sum_{m > n} H_m^k m^-s.
    """
    if hn is None:
        hn = _hn_upper(n)
    a = s - 1.0
    acc = 0.0
    for t in range(k + 1):
        acc += math.comb(k, t) * hn ** (k - t) * math.factorial(t) / a ** (t + 1)
    return acc * float(n) ** (-a) * (1.0 + 1e-9)


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


_ATOM_CACHE: dict[MzvAtom, NumericResult] = {}


def eval_atom(atom: MzvAtom) -> NumericResult:
    """Certified value of one atom, cached; the bound is below 1e-18 * (1 + |value|)."""
    res = _ATOM_CACHE.get(atom)
    if res is None:
        if atom.li:
            res = li_half_value(atom.li)
        else:
            res = _fp_result(*_fp_holder(atom.args), terms=HOLDER_N)
        _ATOM_CACHE[atom] = res
    return res


# ---------------------------------------------------------------------------
# Terms and linear combinations
# ---------------------------------------------------------------------------


def _interval_product(results, coeff: Fraction) -> tuple[np.longdouble, float]:
    v = _frac_to_ld(coeff)
    b = 4 * EPS_LD * abs(float(v))
    for r in results:
        nv = v * r.value
        b = abs(float(v)) * r.tail_bound + abs(float(r.value)) * b + b * r.tail_bound
        v = nv
        b += 2 * EPS_LD * abs(float(v))
    return v, b


def eval_term(term: SymbolicTerm, target_tol: float = 1e-10) -> NumericResult:
    return eval_lincomb_best(LinComb.of_term(term, 1), target_tol)


def eval_lincomb_best(lc: LinComb, target_tol: float = 1e-10) -> NumericResult:
    """Certified evaluation of a linear combination (never raises).

    The atoms come at fixed precision, so ``target_tol`` does not change the
    result; ``eval_lincomb`` compares against it.
    """
    total_v = LD(0.0)
    total_b = 0.0
    terms = 0
    for t, c in lc.items():
        results = [eval_atom(a) for a in t.factors]
        v, b = _interval_product(results, c)
        total_v += v
        total_b += b + 2 * EPS_LD * abs(float(v))
        terms = max([terms] + [r.terms_used for r in results])
    return NumericResult(total_v, total_b, terms)


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
    cap -= cap % 2  # even edges keep the pairing bound aligned
    edges = [e for e in BLOCK_EDGES if e < cap]
    edges.append(cap)
    return edges


def power_rounding(m: int) -> float:
    """Relative rounding charged per term whose largest float64 power is
    (1/n)**m: rounding 1/n costs eps64/2, which the power multiplies by m,
    and the power itself adds at most 2 eps64; never below 4 eps64."""
    return max(4.0, m / 2 + 2) * EPS64


class _SumState:
    def __init__(self, idx: EulerSumIndex):
        self.idx = idx
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
        self.last_term = LD(0.0)
        self.monotone = True
        self.k1 = sum(1 for e in idx.inner if e == 1)
        self.term_rounding = power_rounding(max([self.q] + [abs(e) for e in idx.inner]))

    def update_block(self, pows, alt_sign, seam=False):
        """Add the next block of terms, given as ``pows[m]`` = (1/n)**m and the
        sign (-1)**n of each n; ``seam`` continues the monotonicity check of
        the previous block instead of starting a new one."""
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
        self.abs_sum += float(np.sum(np.abs(a)))
        arr = self.partial + np.cumsum(a)
        mags = np.abs(a)
        if seam:
            mags = np.concatenate(([abs(self.last_term)], mags))
        # non-increasing over the latest edge range; the head may grow
        ok = bool(np.all(np.diff(mags) <= mags[:-1] * 1e-9 + 1e-300))
        self.monotone = ok and (self.monotone or not seam)
        self.last_term = a[-1]
        self.partial = arr[-1]

    def _factor_sups(self, n: int) -> dict[int, float]:
        sups = {}
        for e, _ in self.factors:
            r = abs(e)
            fv = abs(float(self.f_carries[e]))
            if e > 0 and r == 1:
                continue  # the log factor; handled by the moment bound
            if e > 0:
                sups[e] = (fv + zeta_tail_interval(n, r)[1]) * (1 + 1e-10)
            else:
                sups[e] = (fv + (n + 1.0) ** (-r)) * (1 + 1e-10)
        return sups

    def bound_at(self, n: int) -> tuple[np.longdouble, float]:
        q = self.q
        hn = _hn_upper(n)
        round_err = self.abs_sum * (self.term_rounding + 3 * n * EPS_LD)
        sups = self._factor_sups(n)
        p_all = 1.0
        for e, mult in self.factors:
            if e > 0 and abs(e) == 1:
                continue
            p_all *= sups[e] ** mult
        if not self.outer_alt:
            hi = p_all * log_moment_tail(n, self.k1, float(q), hn)
            all_unsigned = all(e > 0 for e, _ in self.factors)
            if all_unsigned:
                h_n = 1.0
                for e, mult in self.factors:
                    h_n *= float(self.f_carries[e]) ** mult
                lo = max(h_n * (1 - 1e-9) - round_err, 0.0) * zeta_tail_interval(n, q)[0]
            else:
                lo = 0.0
            value = self.partial + LD((lo + hi) / 2.0)
            return value, (hi - lo) / 2.0 + round_err
        # alternating outer: paired triangle bound ...
        bound_b = q * p_all * log_moment_tail(n, self.k1, float(q + 1), hn)
        for e, mult in self.factors:
            r = abs(e)
            p_other = p_all
            k_other = self.k1
            if e > 0 and r == 1:
                k_other -= 1
            else:
                p_other = p_all / sups[e]
            bound_b += mult * p_other * log_moment_tail(n, k_other, float(q + r), hn) * (1 + 1e-10)
        value, bound = self.partial, bound_b + round_err
        # ... and the consecutive-partial-sum midpoint when magnitudes decrease
        if self.monotone:
            bound_a = abs(float(self.last_term)) / 2.0 + round_err
            if bound_a < bound:
                value = self.partial - self.last_term / LD(2.0)
                bound = bound_a
        return value, bound


def eval_euler_sum_best(idx: EulerSumIndex, target_tol: float = 1e-8, n_cap: int = N_MAX) -> NumericResult:
    state = _SumState(idx)
    needed = sorted({abs(e) for e in idx.inner} | {state.q})
    best: NumericResult | None = None
    n_lo = 0
    for edge in _block_schedule(n_cap):
        for lo in range(n_lo, edge, SERIES_CHUNK):
            hi = min(lo + SERIES_CHUNK, edge)
            n = np.arange(lo + 1, hi + 1)
            alt_sign = np.where(n % 2 == 0, 1.0, -1.0)
            inv = 1.0 / n
            pows = {m: inv**m for m in needed}
            state.update_block(pows, alt_sign, seam=lo > n_lo)
        value, bound = state.bound_at(edge)
        res = NumericResult(value, bound, edge)
        if best is None or bound < best.tail_bound:
            best = res
        if best.tail_bound <= target_tol:
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
