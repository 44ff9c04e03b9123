"""Acceptance suite.

One test per criterion; each prints a PASS line with the measured numbers
(run pytest with -s to see them).  Numeric comparisons follow the library's
verification rule: two certified evaluations agree when their discrepancy is
at most the sum of the certified bounds plus the stated tolerance.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from eulersums.algebra import LinComb, z
from eulersums.expansion import expand_t1, expand_t2, linearize
from eulersums.indices import make_index, parse_index
from eulersums import numerics
from eulersums.numerics import (
    eval_euler_sum_best,
    eval_lincomb_best,
)
from eulersums.reduction import (
    alt_depth1,
    depth2_odd,
    log_integral,
    reduce_lincomb,
    symmetric_sum,
    zeta_ones,
)

from fixtures_closed_forms import (
    CLOSED_S11_1_ALL_BAR,
    CLOSED_S111_9,
    CLOSED_S22_2_ALL_BAR,
    CLOSED_S222_2,
    CLOSED_S33_3_ALL_BAR,
    CLOSED_S333_3,
    CLOSED_S44_4,
    CLOSED_S55_5,
    CLOSED_WEIGHT5,
    lc,
    weight6_closed_forms,
)
from reference_oracles import _mhs_prefix, zeta_value


def _agree(a, b, tol):
    """``numerics.agree``, exact, with the discrepancy and the budget as
    floats for the report lines."""
    ok, diff, budget = numerics.agree(a, b, tol)
    return ok, float(diff), float(budget)


# -- criterion 1: exact expansion fixtures -------------------------------------


def test_criterion_1_exact_expansion_fixtures():
    t0 = time.monotonic()
    # linear sums
    for p, q in [(1, 2), (2, 2), (3, 5), (8, 9), (1, 9)]:
        assert expand_t1(make_index([p], q)) == lc((1, [z(q, p)]), (1, [z(p + q)]))
    # six-term quadratic form
    for i1, i2, q in [(1, 2, 3), (2, 5, 2), (3, 4, 6)]:
        assert expand_t1(make_index([i1, i2], q)) == lc(
            (1, [z(q, i1 + i2)]),
            (1, [z(q, i1, i2)]),
            (1, [z(q, i2, i1)]),
            (1, [z(q + i1 + i2)]),
            (1, [z(q + i1, i2)]),
            (1, [z(q + i2, i1)]),
        )
    # S_{1^3,q}
    for q in (2, 7):
        assert expand_t1(make_index([1, 1, 1], q)) == lc(
            (1, [z(q, 3)]),
            (1, [z(q + 3)]),
            (3, [z(q, 1, 2)]),
            (3, [z(q + 1, 2)]),
            (3, [z(q, 2, 1)]),
            (3, [z(q + 2, 1)]),
            (6, [z(q, 1, 1, 1)]),
            (6, [z(q + 1, 1, 1)]),
        )
    # the eight-atom weight-12 line
    assert expand_t1(parse_index("S(1,1,1,9)")) == lc(
        (1, [z(9, 3)]),
        (3, [z(9, 1, 2)]),
        (3, [z(9, 2, 1)]),
        (6, [z(9, 1, 1, 1)]),
        (1, [z(12)]),
        (3, [z(10, 2)]),
        (3, [z(11, 1)]),
        (6, [z(10, 1, 1)]),
    )
    # the four-atom alternating line
    assert expand_t1(parse_index("S(1,1,-3)")) == lc(
        (-1, [z(-5)]), (-2, [z(-4, 1)]), (-1, [z(-3, 2)]), (-2, [z(-3, 1, 1)])
    )
    # repeated-exponent pre-reduction displays
    for r in (2, 3, 4):
        assert expand_t1(make_index([r, r], r)) == lc(
            (1, [z(r, 2 * r)]), (1, [z(3 * r)]), (2, [z(r, r, r)]), (2, [z(2 * r, r)])
        )
        assert expand_t1(make_index([r, r, r], r)) == lc(
            (1, [z(r, 3 * r)]),
            (1, [z(4 * r)]),
            (3, [z(r, 2 * r, r)]),
            (3, [z(3 * r, r)]),
            (3, [z(r, r, 2 * r)]),
            (3, [z(2 * r, 2 * r)]),
            (6, [z(r, r, r, r)]),
            (6, [z(2 * r, r, r)]),
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: exact expansion fixtures in {elapsed:.3f}s")


# -- criterion 2: exact finite-N expansion -------------------------------------


def _sum_prefix(idx, nmax):
    """All exact truncations S_N(idx) for N = 0..nmax, from the sum's
    definition: the harmonic factor of an entry e sums 1/k^e, or
    (-1)^(k-1)/k^|e| when e is barred, and a barred outer term is
    (-1)^(n-1)/n^|q|."""
    harmonic = [Fraction(0)] * idx.degree
    out = [Fraction(0)]
    for n in range(1, nmax + 1):
        for i, e in enumerate(idx.inner):
            harmonic[i] += Fraction((-1) ** (n - 1) if e < 0 else 1, n ** abs(e))
        term = Fraction((-1) ** (n - 1) if idx.outer < 0 else 1, n ** abs(idx.outer))
        out.append(out[-1] + term * math.prod(harmonic))
    return out


def test_criterion_2_finite_n_quasi_shuffle():
    # The product of harmonic numbers is the quasi-shuffle at every n, so the
    # t1 expansion holds between truncated sums at every N: the outer slot,
    # the merged atoms and their signs included, with zero tolerance.
    t0 = time.monotonic()
    nmax = 12
    rng = random.Random(20250808)
    prefixes = {}  # atom slots -> their truncations; atoms recur across indices
    for _ in range(200):
        degree = rng.randrange(1, 5)
        inner = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(degree)]
        idx = make_index(inner, rng.choice([2, 3, -2, -3, -1]))
        combo = [Fraction(0)] * (nmax + 1)
        for atom, coeff in expand_t1(idx).items():
            pref = prefixes.get(atom.args)
            if pref is None:
                pref = prefixes[atom.args] = _mhs_prefix(atom.args, nmax)
            for n in range(nmax + 1):
                combo[n] += coeff * pref[n]
        assert combo == _sum_prefix(idx, nmax), idx
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 2 PASS: 200 random indices, t1 at every N <= {nmax}, exact, {elapsed:.1f}s")


# -- criterion 3: engine agreement ----------------------------------------------


def _partitions_min2(total):
    """Multisets of integers >= 2 summing to ``total`` (ascending tuples)."""
    def rec(remaining, lo):
        if remaining == 0:
            yield ()
            return
        for first in range(lo, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return rec(total, 2)


def test_criterion_3_engine_agreement():
    t0 = time.monotonic()
    cases = []
    for weight in range(4, 10):
        for inner_sum in range(2, weight - 1):
            for inner in _partitions_min2(inner_sum):
                if not inner:
                    continue
                q = weight - inner_sum
                if q >= 2:
                    cases.append(make_index(list(inner), q))
    assert 30 <= len(cases) <= 45
    worst = 0.0
    for idx in cases:
        t1, t2 = expand_t1(idx), expand_t2(idx)
        a = eval_lincomb_best(t1, 1e-9)
        b = eval_lincomb_best(t2, 1e-9)
        ok, diff, budget = _agree(a, b, 1e-8)
        assert ok, (idx, diff, budget)
        worst = max(worst, diff)
        # multiplied out, the t2 products are exactly the t1 atoms
        assert linearize(t2) == t1, idx
    elapsed = time.monotonic() - t0
    print(
        f"\ncriterion 3 PASS: {len(cases)} numeric engine agreements "
        f"(worst discrepancy {worst:.2e}), linearized t2 == t1 exactly on all "
        f"{len(cases)}, {elapsed:.1f}s"
    )


# -- criterion 4: closed-form reproduction ---------------------------------------


CLOSED_FIXTURES = [
    ("S(4,4,4)", CLOSED_S44_4, 1e-8),
    ("S(5,5,5)", CLOSED_S55_5, 1e-8),
    ("S(2,2,2,2)", CLOSED_S222_2, 1e-8),
    ("S(3,3,3,3)", CLOSED_S333_3, 1e-8),
    ("S(1,1,1,9)", CLOSED_S111_9, 1e-8),
    ("S(-1,-1,-1)", CLOSED_S11_1_ALL_BAR, 1e-8),
    ("S(-3,-3,-3)", CLOSED_S33_3_ALL_BAR, 1e-8),
    ("S(-2,-2,-2)", CLOSED_S22_2_ALL_BAR, 1e-8),
]
CLOSED_FIXTURES += [(text, closed, 1e-8) for text, closed in CLOSED_WEIGHT5.items()]
CLOSED_FIXTURES += [(text, closed, 1e-8) for text, closed in weight6_closed_forms().items()]


def test_criterion_4_closed_form_reproduction():
    t0 = time.monotonic()
    lines = []
    for text, closed, tol in CLOSED_FIXTURES:
        idx = parse_index(text)
        expansion = expand_t1(idx)
        series = eval_euler_sum_best(idx, tol)
        exp_val = eval_lincomb_best(expansion, tol)
        closed_val = eval_lincomb_best(closed, tol)
        ok1, d1, b1 = _agree(series, exp_val, tol)
        ok2, d2, b2 = _agree(exp_val, closed_val, tol)
        assert series.tail_bound <= tol, (text, "series bound", series.tail_bound)
        assert ok1, (text, "series vs expansion", d1, b1)
        assert ok2, (text, "expansion vs closed form", d2, b2)
        lines.append(
            f"  {text:18s} tol {tol:7.0e}  series bound {series.tail_bound:.1e} "
            f"(N={series.terms_used})  series|expansion {d1:.2e}  expansion|closed {d2:.2e}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    print(f"\ncriterion 4 PASS: {len(CLOSED_FIXTURES)} closed forms, {elapsed:.0f}s")
    for line in lines:
        print(line)


# The fixtures whose expansion and closed form the default rules reduce to
# one value today: a floor that later rules only extend.
EXACT_FIXTURES = ["S(5,5,5)", "S(-1,-1,-1)", "S(-3,-3,-3)", "S(1,-5)"]


def test_criterion_4_exact_reduction():
    # the zero-tolerance companion of the numeric check above
    closed_forms = {text: closed for text, closed, _tol in CLOSED_FIXTURES}
    for text in EXACT_FIXTURES:
        expansion = reduce_lincomb(expand_t1(parse_index(text))).value
        assert expansion == reduce_lincomb(closed_forms[text]).value, text
    print(f"\ncriterion 4 exact PASS: {len(EXACT_FIXTURES)} closed forms equal the reduced expansion")


# -- criterion 5: identity-rule soundness -----------------------------------------


def _check_rule_samples(name, samples, tol=1e-8):
    worst = 0.0
    for lhs, rhs in samples:
        a = eval_lincomb_best(lhs, tol / 4)
        b = eval_lincomb_best(rhs, tol / 4)
        ok, diff, budget = _agree(a, b, tol)
        assert ok, (name, lhs.render(), diff, budget)
        worst = max(worst, diff)
    return worst


def test_criterion_5_rule_soundness():
    t0 = time.monotonic()
    rng = random.Random(99)
    report = []

    samples = []
    for _ in range(50):
        s = rng.randrange(2, 20)
        samples.append((LinComb.of_atom(z(-s)), alt_depth1(s)))
    report.append(("alt_depth1", _check_rule_samples("alt_depth1", samples)))

    samples = []
    for _ in range(50):
        r, m = rng.randrange(2, 5), rng.randrange(2, 5)
        samples.append((LinComb.of_atom(z(*([r] * m))), symmetric_sum((r,) * m).scale(Fraction(1, math.factorial(m)))))
    report.append(("repeated", _check_rule_samples("repeated", samples)))

    samples = []
    for _ in range(50):
        r, m = rng.randrange(1, 4), rng.randrange(2, 5)
        samples.append((LinComb.of_atom(z(*([-r] * m))), symmetric_sum((-r,) * m).scale(Fraction(1, math.factorial(m)))))
    report.append(("repeated_bar", _check_rule_samples("repeated_bar", samples)))

    samples = []
    for _ in range(50):
        k = rng.randrange(1, 7)
        l = rng.randrange(1, min(8 - k, 4) + 1)
        samples.append((LinComb.of_atom(z(k + 1, *([1] * l))), zeta_ones(k, l)))
    report.append(("zeta_ones", _check_rule_samples("zeta_ones", samples)))

    samples = []
    while len(samples) < 50:
        s = rng.randrange(2, 9)
        t = rng.randrange(1, 9)
        if (s + t) % 2 == 0:
            continue
        sg = rng.choice([1, -1])
        tg = rng.choice([1, -1])
        atom = z(sg * s, tg * t)
        samples.append((LinComb.of_atom(atom), depth2_odd(atom)))
    report.append(("depth2_odd", _check_rule_samples("depth2_odd", samples)))

    samples = []
    while len(samples) < 50:
        a = rng.choice([1, -1]) * rng.randrange(2, 7)
        b = rng.choice([1, -1]) * rng.randrange(2, 7)
        lhs = LinComb.of_atom(z(a, b)) + LinComb.of_atom(z(b, a))
        samples.append((lhs, symmetric_sum(tuple(sorted((a, b))))))
    report.append(("reflection_pair", _check_rule_samples("reflection_pair", samples)))

    samples = []
    for _ in range(50):
        a, b, c = (rng.randrange(2, 5) for _ in range(3))
        lhs = LinComb()
        for perm in set(itertools.permutations((a, b, c))):
            mult = [a, b, c].count
            lhs = lhs + LinComb.of_atom(z(*perm), Fraction(
                len([p for p in itertools.permutations((a, b, c)) if p == perm])
            ))
        samples.append((lhs, symmetric_sum(tuple(sorted((a, b, c))))))
    report.append(("reflection_triple", _check_rule_samples("reflection_triple", samples)))

    # all orderings of depth 3-4 slots of both signs, which no other closed
    # form covers
    samples = []
    while len(samples) < 50:
        slots = [rng.choice([-1, 2, -2, 3, -3, 4, -4]) for _ in range(rng.randrange(3, 5))]
        if len({s > 0 for s in slots}) < 2:
            continue
        lhs = LinComb()
        for perm in itertools.permutations(slots):
            lhs = lhs + LinComb.of_atom(z(*perm))
        samples.append((lhs, symmetric_sum(tuple(sorted(slots)))))
    report.append(("symmetric_sum", _check_rule_samples("symmetric_sum", samples)))

    # exact symmetry of the log-power integral
    for k in range(1, 9):
        for l in range(1, 9):
            lhs = log_integral(k, l - 1).scale(Fraction(1, math.factorial(k) * math.factorial(l - 1)))
            rhs = log_integral(l, k - 1).scale(Fraction(1, math.factorial(l) * math.factorial(k - 1)))
            assert lhs == rhs

    # anchor identities
    r21 = eval_lincomb_best(LinComb.of_atom(z(2, 1)))
    z3 = zeta_value(3)
    ok, diff, budget = _agree(r21, z3, 1e-8)
    assert ok, (diff, budget)
    rbar = eval_lincomb_best(LinComb.of_atom(z(-2)))
    diff2 = abs(float(rbar.value) + 0.5 * float(zeta_value(2).value))
    assert diff2 <= rbar.tail_bound + zeta_value(2).tail_bound + 1e-10

    elapsed = time.monotonic() - t0
    print(f"\ncriterion 5 PASS: rule soundness in {elapsed:.0f}s "
          f"(zeta(2,1)=zeta(3) to {diff:.1e}; alt depth-1 to {diff2:.1e})")
    for name, worst in report:
        print(f"  {name:18s} 50 samples, worst discrepancy {worst:.2e}")


# -- criterion 6: scale ------------------------------------------------------------


def _partitions(total):
    def rec(remaining, lo):
        if remaining == 0:
            yield ()
            return
        for first in range(lo, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return rec(total, 1)


def _signed_multisets(partition):
    """All distinct assignments of alternation to a partition's parts."""
    values = sorted(set(partition))
    counts = {v: partition.count(v) for v in values}
    choices = [range(counts[v] + 1) for v in values]
    for bars in itertools.product(*choices):
        signed = []
        for v, k in zip(values, bars):
            signed += [v] * (counts[v] - k) + [-v] * k
        yield signed


def test_criterion_6_scale():
    expected_counts = {3: 1, 4: 3, 5: 6, 6: 11, 7: 18, 8: 29, 9: 44, 10: 66, 11: 96}
    timings = {}
    for weight, expected in expected_counts.items():
        t0 = time.monotonic()
        count = 0
        for p in range(1, weight - 1):
            q = weight - p
            if q < 2:
                continue
            for part in _partitions(p):
                idx = make_index(list(part), q)
                out = expand_t1(idx)
                assert out.weights() == {weight}
                count += 1
        timings[weight] = time.monotonic() - t0
        assert count == expected, (weight, count)
    assert timings[11] < 60.0

    # every alternating sum of weight <= 6
    alt_count = 0
    t0 = time.monotonic()
    for weight in range(2, 7):
        for p in range(0, weight - 1):
            for part in _partitions(p) if p else [()]:
                for inner in _signed_multisets(part):
                    qmag = weight - p
                    for outer in ([qmag] if qmag >= 2 else []) + [-qmag]:
                        idx = make_index(inner, outer)
                        if not idx.is_alternating:
                            continue
                        out = expand_t1(idx)
                        assert out.weights() == {weight}
                        alt_count += 1
    alt_elapsed = time.monotonic() - t0
    assert alt_count > 100
    print(
        f"\ncriterion 6 PASS: all 274 non-alternating sums of weight <= 11 expanded "
        f"(weight-11 batch {timings[11]:.1f}s); {alt_count} alternating sums of "
        f"weight <= 6 expanded in {alt_elapsed:.1f}s"
    )
