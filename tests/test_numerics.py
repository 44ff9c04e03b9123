import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersums import numerics
from eulersums.algebra import LinComb, SymbolicTerm, li_half, z
from eulersums.indices import make_index, parse_index
from eulersums.numerics import (
    _FP_SCALE,
    HOLDER_N,
    CapacityError,
    _fp_atan_inv,
    _fp_holder,
    _fp_li_half,
    _fp_zeta,
    _holder_apply,
    _holder_word,
    alt_harmonic_exact,
    eval_atom,
    eval_euler_sum,
    eval_euler_sum_best,
    eval_lincomb,
    eval_lincomb_best,
    eval_mhs_exact,
    eval_term,
    harmonic_exact,
    li_half_value,
    ln2_value,
    pi_reference,
    power_rounding,
    zeta_tail_interval,
    zeta_value,
)


def brute_mhs(args, n):
    """Independent oracle: enumerate strictly decreasing tuples directly."""
    k = len(args)
    tot = Fraction(0)
    for tup in itertools.combinations(range(n, 0, -1), k):
        term = Fraction(1)
        for s, m in zip(args, tup):
            term *= Fraction((-1) ** m if s < 0 else 1, m ** abs(s))
        tot += term
    return tot


# -- exact layer ----------------------------------------------------------------


def test_mhs_conventions():
    assert eval_mhs_exact((2,), 0) == 0
    assert eval_mhs_exact((2, 1), 1) == 0  # n below depth
    assert eval_mhs_exact((), 7) == 1
    assert eval_mhs_exact((1, 1), 2) == Fraction(1, 2)


def test_mhs_enumerated_value():
    # sum over 4 >= a > b >= 1 of 1/(a^2 b), frozen from the brute enumeration
    assert brute_mhs((2, 1), 4) == Fraction(17, 32)
    assert eval_mhs_exact((2, 1), 4) == Fraction(17, 32)


def test_mhs_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(40):
        depth = rng.randrange(1, 5)
        args = tuple(rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(depth))
        n = rng.randrange(0, 12)
        assert eval_mhs_exact(args, n) == brute_mhs(args, n), (args, n)


def test_mhs_guards():
    with pytest.raises(ValueError):
        eval_mhs_exact((2,), 61)
    with pytest.raises(ValueError):
        eval_mhs_exact((2,) * 7, 10)


def test_harmonic_exact():
    assert harmonic_exact(1, 4) == Fraction(25, 12)
    assert alt_harmonic_exact(1, 4) == Fraction(7, 12)


# -- fixed-point constants --------------------------------------------------------


def test_zeta2_against_pi():
    # pi from the arctangent series is an independent route to zeta(2)
    zv = zeta_value(2)
    piv = pi_reference()
    assert abs(float(zv.value) - float(piv.value) ** 2 / 6) < 1e-15
    assert zv.tail_bound < 1e-15


def test_li4_half_series():
    # direct check from the defining series with an exact rational partial sum
    partial = sum((Fraction(1, 2**n * n**4) for n in range(1, 61)), Fraction(0))
    r = li_half_value(4)
    assert abs(float(r.value) - float(partial)) < 1e-17
    assert abs(float(r.value) - 0.5174790616738994) < 1e-12


def test_ln2():
    assert abs(float(ln2_value().value) - math.log(2)) < 1e-15


def test_zeta_tail_interval():
    # compare against the exact-rational zeta layer to avoid double-precision
    # cancellation in the reference itself
    for n, s in [(10, 2), (50, 3), (1000, 2), (20, 6)]:
        lo, hi = zeta_tail_interval(n, s)
        zv, zerr = _fp_zeta(s)
        exact = zv - sum(Fraction(1, k**s) for k in range(1, n + 1))
        assert Fraction(lo) <= exact + zerr
        assert exact - zerr <= Fraction(hi)
        # remainder scales like N^-(s+5)
        assert hi - lo < 3.0 * (s + 4) ** 5 * float(n) ** (-s - 5) + 1e-13 * float(exact)


# -- atoms by Hoelder convolution ---------------------------------------------------


def _fraction_series(word, n_terms):
    """Coefficients c_1..c_N of G(word; t) as exact rationals, by integrating
    the power series letter by letter: 1/(t - b) = -sum_m t^m / b^(m+1)."""
    c = [Fraction(0)] * (n_terms + 1)
    b = word[-1]
    for n in range(1, n_terms + 1):
        c[n] = Fraction(-1, n * b**n)
    for b in reversed(word[:-1]):
        d = [Fraction(0)] * (n_terms + 1)
        for n in range(1, n_terms + 1):
            if b == 0:
                d[n] = c[n] / n
            else:
                d[n] = -sum((c[l] / Fraction(b) ** (n - l) for l in range(1, n)), Fraction(0)) / n
        c = d
    return c


def test_holder_coefficients_match_fractions():
    # the 192-bit recursion stays within its per-letter floor charge (3 units
    # per letter) of the exact coefficients, and every exact coefficient obeys
    # the |c_n| <= 1 premise of the truncation bound
    n_terms = 24
    for word in ([0, 1], [1, 1, -1], [-1, 0, 0, 1], [2, 0, 1, 2], [0, -1, 1, 0, -1]):
        exact = _fraction_series(word, n_terms)
        assert all(abs(x) <= 1 for x in exact), word
        terms = None
        for b in reversed(word):
            terms = _holder_apply(b, terms, n_terms)
        for n in range(1, n_terms + 1):
            scaled = exact[n] / 2**n * _FP_SCALE
            assert abs(terms[n] - scaled) <= 3 * len(word), (word, n)


def test_holder_word():
    # z(a_1..a_k) = (-1)^k G(0^(s_1-1), c_1, ..., 0^(s_k-1), c_k; 1)
    assert _holder_word((2, 1)) == [0, 1, 1]
    assert _holder_word((-2, 3, -1)) == [0, -1, 0, 0, -1, 1]


def test_holder_closed_forms():
    # compared before rounding to longdouble; pi comes from Machin's series
    (a5, e5), (a239, e239) = _fp_atan_inv(5), _fp_atan_inv(239)
    pi, pi_err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    zeta2 = pi * pi / 6
    ln2, _ = _fp_li_half(1)
    zeta3, zeta3_err = _fp_zeta(3)
    for args, closed in [
        ((2, 1), zeta3),
        ((-2,), -zeta2 / 2),
        ((-1, -1), (ln2 * ln2 - zeta2) / 2),
        ((-1,), -ln2),
        ((2, 1, 1), zeta2 * zeta2 * Fraction(2, 5)),  # zeta(4)
    ]:
        value, err = _fp_holder(args)
        assert err < Fraction(1, 10**50)
        assert abs(value - closed) < Fraction(1, 10**25), args
    assert zeta3_err < Fraction(1, 10**26) and pi_err < Fraction(1, 10**50)


_SLOT = st.integers(-7, 7).filter(lambda a: a not in (0, 1))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_SLOT, _SLOT)
def test_holder_stuffle_depth2(a, b):
    # z(a) z(b) = z(a,b) + z(b,a) + z(a (+) b), where (+) adds magnitudes and
    # multiplies signs, exactly up to the fixed-point error
    merged = (abs(a) + abs(b)) * (1 if (a < 0) == (b < 0) else -1)
    za, zb, zab, zba, zm = (
        _fp_holder(args)[0] for args in [(a,), (b,), (a, b), (b, a), (merged,)]
    )
    assert abs(za * zb - (zab + zba + zm)) < Fraction(1, 10**25), (a, b)
    for args in [(a, b), (b, a)]:
        assert eval_atom(z(*args)).tail_bound <= 1e-15


def test_atom_values_against_exact_tails():
    res = eval_atom(z(3, 2))
    assert res.tail_bound <= 1e-15 and res.terms_used == HOLDER_N
    # known: zeta(3,2) = -11/2 zeta(5) + 3 zeta(2) zeta(3)
    target = -5.5 * float(zeta_value(5).value) + 3 * float(zeta_value(2).value) * float(
        zeta_value(3).value
    )
    assert abs(float(res.value) - target) <= res.tail_bound + 1e-15


def test_alt_depth1_numeric():
    # the Hoelder route vs the fixed-point zeta route
    r = eval_atom(z(-2))
    assert abs(float(r.value) + 0.5 * float(zeta_value(2).value)) <= r.tail_bound + 1e-15


def test_zeta21_equals_zeta3():
    r = eval_atom(z(2, 1))
    diff = abs(float(r.value) - float(zeta_value(3).value))
    assert diff <= r.tail_bound + zeta_value(3).tail_bound + 1e-16
    assert r.tail_bound < 1e-15


def test_monotone_refinement():
    # a tighter target never loosens a bound: the series walks further, and
    # the fixed-precision atoms do not depend on it
    idx = parse_index("S(1,-1,3)")
    r1 = eval_euler_sum_best(idx, 1e-4)
    r2 = eval_euler_sum_best(idx, 1e-8)
    assert r2.tail_bound <= r1.tail_bound and r2.terms_used >= r1.terms_used
    lc = LinComb.of_atom(z(3, 1)) + LinComb.of_atom(z(-1, 2, -1), Fraction(2, 3))
    assert eval_lincomb_best(lc, 1e-4) == eval_lincomb_best(lc, 1e-14)


def test_bound_conservative_under_refinement():
    # a value truncated after N terms moves by less than its bound when
    # run to the full HOLDER_N
    for args in [(2, 1), (-1, 1), (-3, 2), (-1, -1, -1), (-1, 1, 1, 1, 1, 1)]:
        full, full_err = _fp_holder(args)
        for n_terms in (8, 20, 50):
            value, err = _fp_holder(args, n_terms)
            assert abs(value - full) <= err + full_err, (args, n_terms)
            assert err < Fraction(2 * len(_holder_word(args)) + 3, 2**n_terms)


def test_capacity_error_carries_result():
    # only the series can miss a tolerance: the log tail of S(1,1,-1) needs
    # far more than 2*10^4 terms for 1e-9
    with pytest.raises(CapacityError) as ei:
        eval_euler_sum(parse_index("S(1,1,-1)"), 1e-9, n_cap=2 * 10**4)
    res = ei.value.result
    assert res.tail_bound > 1e-9 and res.terms_used == 2 * 10**4


def test_tol_floor():
    with pytest.raises(ValueError):
        eval_euler_sum(make_index([2], 2), 1e-12)


# -- rounding budget of the series walk ----------------------------------------------


def test_power_rounding_covers_float64_powers():
    # float64 (1/n)**m against exact rationals: the relative error grows with
    # m (5.9 eps64 at m = 12), beyond a flat 4 eps64 charge from m = 8 on
    inv = 1.0 / np.arange(1, 2001, dtype=np.float64)
    for m in range(1, 21):
        pows = inv**m
        worst = max(
            abs(Fraction(float(pows[n - 1])) * n**m - 1) for n in range(1, 2001)
        )
        assert worst <= power_rounding(m), m


def test_series_chunks_match_one_block(monkeypatch):
    # walking each edge range in chunks carries the partial sums and the
    # monotonicity check across the seams: with one-term chunks every pair of
    # neighbours, including the growing head of S(1,1,-1), meets at a seam
    texts = ["S(1,1,-1)", "S(-1,2,3)", "S(1,-2,-1)", "S(2,-2)"]
    for chunk, n_cap in [(1, 2_000), (997, 30_000)]:
        whole = [eval_euler_sum_best(parse_index(t), 1e-30, n_cap=n_cap) for t in texts]
        monkeypatch.setattr(numerics, "SERIES_CHUNK", chunk)
        for text, ref in zip(texts, whole):
            res = eval_euler_sum_best(parse_index(text), 1e-30, n_cap=n_cap)
            assert res.terms_used == ref.terms_used, (text, chunk)
            assert abs(float(res.value - ref.value)) <= 1e-15 * abs(float(ref.value)), text
            assert abs(res.tail_bound - ref.tail_bound) <= 1e-6 * ref.tail_bound, text
        monkeypatch.undo()


# -- terms and combinations --------------------------------------------------------


def test_empty_lincomb():
    r = eval_lincomb_best(LinComb.zero(), 1e-10)
    assert float(r.value) == 0.0 and r.tail_bound == 0.0


def test_product_term():
    t = SymbolicTerm.of(z(2), z(3))
    r = eval_term(t, 1e-10)
    expect = float(zeta_value(2).value) * float(zeta_value(3).value)
    assert abs(float(r.value) - expect) <= r.tail_bound + 1e-14
    assert abs(float(r.value) - 1.9773043502972961) < 1e-12


def test_li_term_and_ln2_atom():
    r = eval_lincomb_best(LinComb.of_atom(li_half(4)), 1e-10)
    assert abs(float(r.value) - 0.5174790616738994) < 1e-10
    r2 = eval_lincomb_best(LinComb.of_atom(z(-1)), 1e-10)
    assert abs(float(r2.value) + math.log(2)) < 1e-14


def test_eval_lincomb_raises_capacity():
    # atoms come at fixed precision: a combination misses only a tolerance
    # below its rounding, and the error still carries the certified result
    lc = LinComb.of_atom(z(-1, 1, 1, 1, 1)) + LinComb.of_atom(z(-3, 1), Fraction(-5, 7))
    assert eval_lincomb(lc, 1e-15).tail_bound <= 1e-15
    with pytest.raises(CapacityError) as ei:
        eval_lincomb(lc, 1e-30)
    assert 1e-30 < ei.value.result.tail_bound <= 1e-15


# -- Euler sums ---------------------------------------------------------------------


def test_sum_partials_match_exact():
    # the series walker partial sums agree with exact rational evaluation
    from eulersums.numerics import _SumState

    for text in ["S(1,2)", "S(1,1,-3)", "S(-1,2,3)", "S(2,-2)"]:
        idx = parse_index(text)
        st = _SumState(idx)
        n_arr = np.arange(1, 41, dtype=np.float64)
        alt_sign = np.where(np.arange(1, 41) % 2 == 0, 1.0, -1.0)
        inv = 1.0 / n_arr
        pows = {m: inv**m for m in {abs(e) for e in idx.inner} | {abs(idx.outer)}}
        st.update_block(pows, alt_sign)
        exact = Fraction(0)
        for n in range(1, 41):
            h = Fraction(1)
            for e in idx.inner:
                h *= harmonic_exact(e, n) if e > 0 else alt_harmonic_exact(-e, n)
            sign = (-1) ** (n - 1) if idx.outer < 0 else 1
            exact += h * Fraction(sign, n ** abs(idx.outer))
        assert abs(float(st.partial) - float(exact)) < 1e-14, text


def test_linear_sum_value():
    # S(1,2) = 2 zeta(3)
    r = eval_euler_sum_best(parse_index("S(1,2)"), 1e-7)
    assert abs(float(r.value) - 2 * float(zeta_value(3).value)) <= r.tail_bound + 1e-12


def test_degree_zero_sums():
    r = eval_euler_sum_best(make_index([], 3), 1e-10)
    assert abs(float(r.value) - float(zeta_value(3).value)) <= r.tail_bound + 1e-12
    r = eval_euler_sum_best(make_index([], -2), 1e-9)
    # sum of (-1)^(n-1)/n^2 = zeta(2)/2
    assert abs(float(r.value) - 0.5 * float(zeta_value(2).value)) <= r.tail_bound + 1e-12


def test_oracle_consistency_sampled():
    # series vs expansion across sign patterns (weights <= 8, degrees <= 3)
    from eulersums.expansion import expand_t1

    rng = random.Random(31)
    cases = ["S(2,-2)", "S(-1,3)", "S(1,-2,4)", "S(-1,-2,2)", "S(2,2,-3)", "S(1,1,-1)"]
    while len(cases) < 14:
        degree = rng.randrange(1, 4)
        inner = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(degree)]
        room = 8 - sum(abs(e) for e in inner)
        if room < 2:
            continue
        outer = rng.choice([1, -1]) * rng.randrange(2, room + 1)
        cases.append(str(make_index(inner, outer)))
    for text in cases:
        idx = parse_index(text)
        a = eval_euler_sum_best(idx, 1e-7, n_cap=10**6)
        b = eval_lincomb_best(expand_t1(idx), 1e-7)
        diff = abs(float(a.value) - float(b.value))
        assert diff <= a.tail_bound + b.tail_bound, (text, diff)
