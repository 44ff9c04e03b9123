import decimal
import functools
import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulersums import numerics
from eulersums.algebra import LinComb, SymbolicTerm, li_half, z
from eulersums.indices import make_index, parse_index
from eulersums.numerics import (
    _FP_SCALE,
    HOLDER_N,
    K_EM,
    _SumState,
    _atom_units,
    _bernoulli,
    _em_sum,
    _enveloped,
    _fp_result,
    _fp_holders,
    _holder_apply,
    _holder_error,
    _plain_factor,
    eval_euler_sum_best,
    eval_lincomb_best,
)
from eulersums.words import holder_word
from reference_oracles import (
    _fp_atan_inv,
    _fp_zeta,
    _mhs_prefix,
    _to_units,
    alt_harmonic_exact,
    brute_mhs,
    convergent_indices,
    euler_sum_prefix,
    harmonic_exact,
    pi_reference,
    signed_slots,
    zeta_value,
)


def _eval_atom(atom):
    """The certified value of one atom: the combination of that atom alone."""
    return eval_lincomb_best(LinComb.of_atom(atom))


def _holder_value(args, n_terms=HOLDER_N):
    """``_fp_holders`` of z(args) as two rationals: its value and error bound."""
    value, err = next(_fp_holders([(holder_word(args), len(args))], n_terms))
    return Fraction(value, _FP_SCALE), Fraction(err, _FP_SCALE)


# -- exact layer ----------------------------------------------------------------


def test_mhs_conventions():
    for args, n, value in [((2,), 0, 0), ((2, 1), 1, 0), ((), 7, 1), ((1, 1), 2, Fraction(1, 2))]:
        # n below the depth gives 0, and empty args give 1
        assert _mhs_prefix(args, n)[n] == brute_mhs(args, n) == value, (args, n)


def test_mhs_enumerated_value():
    # sum over 4 >= a > b >= 1 of 1/(a^2 b), frozen from the brute enumeration
    assert brute_mhs((2, 1), 4) == Fraction(17, 32)
    assert _mhs_prefix((2, 1), 4)[4] == Fraction(17, 32)


def test_mhs_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(40):
        depth = rng.randrange(1, 5)
        args = tuple(rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(depth))
        n = rng.randrange(0, 12)
        assert _mhs_prefix(args, n)[n] == brute_mhs(args, n), (args, n)


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


def test_zeta_value_reports_terms_summed():
    # 2000 terms below s = 40 and 64 from there on; the error charges one
    # unit per floored term, so it is at least that many units
    for s, terms in [(2, 2000), (39, 2000), (40, 64), (41, 64), (90, 64)]:
        assert zeta_value(s).terms_used == terms, s
        assert _fp_zeta(s)[1] * _FP_SCALE >= terms, s
    assert abs(zeta_value(40).value - 1) < Fraction(1, 2**39)


def test_li4_half_series():
    # direct check from the defining series with an exact rational partial sum
    partial = sum((Fraction(1, 2**n * n**4) for n in range(1, 61)), Fraction(0))
    r = _eval_atom(li_half(4))
    assert abs(float(r.value) - float(partial)) < 1e-17
    assert abs(float(r.value) - 0.5174790616738994) < 1e-12


def test_ln2():
    assert abs(float(_eval_atom(li_half(1)).value) - math.log(2)) < 1e-15


@functools.cache
def _li_half_series(q):
    """Li_q(1/2) = sum 2^-n n^-q to n = 220, an exact rational, and a bound
    on the rest: 2^-220."""
    return sum((Fraction(1, 2**n * n**q) for n in range(1, 221)), Fraction(0)), Fraction(1, 2**220)


def test_li_half_atoms_enclose_their_series():
    # Li_q(1/2) is the Hoelder word 0^(q-1), 2 at depth 1: it encloses the
    # exact series within both errors
    for q in range(1, 25):
        exact, rest = _li_half_series(q)
        value, error = _atom_units(li_half(q))
        assert abs(value - exact * _FP_SCALE) <= error + rest * _FP_SCALE, q


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
    assert holder_word((2, 1)) == [0, 1, 1]
    assert holder_word((-2, 3, -1)) == [0, -1, 0, 0, -1, 1]


def test_holder_closed_forms():
    # compared before rounding to longdouble; pi comes from Machin's series
    (a5, e5), (a239, e239) = _fp_atan_inv(5), _fp_atan_inv(239)
    pi, pi_err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    zeta2 = pi * pi / 6
    ln2, _ = _li_half_series(1)
    zeta3, zeta3_err = _fp_zeta(3)
    for args, closed in [
        ((2, 1), zeta3),
        ((-2,), -zeta2 / 2),
        ((-1, -1), (ln2 * ln2 - zeta2) / 2),
        ((-1,), -ln2),
        ((2, 1, 1), zeta2 * zeta2 * Fraction(2, 5)),  # zeta(4)
    ]:
        value, err = _holder_value(args)
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
    words = [(holder_word(args), len(args)) for args in [(a,), (b,), (a, b), (b, a), (merged,)]]
    za, zb, zab, zba, zm = (Fraction(value, _FP_SCALE) for value, _err in _fp_holders(words))
    assert abs(za * zb - (zab + zba + zm)) < Fraction(1, 10**25), (a, b)
    for args in [(a, b), (b, a)]:
        assert _eval_atom(z(*args)).tail_bound <= 1e-15


def test_atom_values_against_exact_tails():
    res = _eval_atom(z(3, 2))
    assert res.tail_bound <= 1e-15 and res.terms_used == HOLDER_N
    # known: zeta(3,2) = -11/2 zeta(5) + 3 zeta(2) zeta(3)
    target = -5.5 * float(zeta_value(5).value) + 3 * float(zeta_value(2).value) * float(
        zeta_value(3).value
    )
    assert abs(float(res.value) - target) <= res.tail_bound + 1e-15


def test_alt_depth1_numeric():
    # the Hoelder route vs the fixed-point zeta route
    r = _eval_atom(z(-2))
    assert abs(float(r.value) + 0.5 * float(zeta_value(2).value)) <= r.tail_bound + 1e-15


def test_zeta21_equals_zeta3():
    r = _eval_atom(z(2, 1))
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
        full, full_err = _holder_value(args)
        for n_terms in (8, 20, 50):
            value, err = _holder_value(args, n_terms)
            assert abs(value - full) <= err + full_err, (args, n_terms)
            assert err < Fraction(2 * len(holder_word(args)) + 3, 2**n_terms)


def _fp_holder_two_loops(args, n_terms):
    """``_fp_holders`` on one word, with every prefix and suffix chain built
    afresh, one letter at a time: the reference for the shared chains."""
    word = holder_word(args)
    w = len(word)
    prefix, pre = [_FP_SCALE], None
    for b in word:
        pre = _holder_apply(1 - b, pre, n_terms)
        prefix.append(sum(pre))
    suffix, suf = [_FP_SCALE], None
    for b in reversed(word):
        suf = _holder_apply(b, suf, n_terms)
        suffix.append(sum(suf))
    acc = sum((-1) ** j * ((prefix[j] * suffix[w - j]) >> numerics._FP_BITS) for j in range(w + 1))
    factor_err = Fraction(1, 2**n_terms) + Fraction(3 * w * n_terms, _FP_SCALE)
    err = (w + 1) * (2 * factor_err + factor_err**2 + Fraction(1, _FP_SCALE))
    return Fraction((-1) ** len(args) * acc, _FP_SCALE), err


def test_holder_error_is_the_inline_bound():
    # the bound is computed once per (word length, N): the same units as the
    # formula written out for each word, rounded up once
    for n_terms in (8, 50, 200):
        for w in range(1, 301):
            factor_err = Fraction(1, 2**n_terms) + Fraction(3 * w * n_terms, _FP_SCALE)
            err = (w + 1) * (2 * factor_err + factor_err**2 + Fraction(1, _FP_SCALE))
            assert _holder_error(w, n_terms) == math.ceil(err * _FP_SCALE), (w, n_terms)


_CHAIN_ARGS = [args for w in range(1, 6) for args in signed_slots(w)] + [
    args for w in (7, 8) for args in random.Random(w).sample(signed_slots(w), 12)
]


@pytest.mark.parametrize("n_terms", [8, 50, HOLDER_N])
def test_holder_chains_match_two_loops(n_terms):
    # one batch of every convergent atom of weight <= 5 and a sample at
    # weights 7 and 8 shares its chains, yet does the same integer operations
    # as the reference: every value and bound equals it exactly
    assert len(signed_slots(5)) == 108 and len(signed_slots(8)) == 2916
    words = [(holder_word(args), len(args)) for args in _CHAIN_ARGS]
    assert list(_fp_holders(words, n_terms)) == [_to_units(*_fp_holder_two_loops(args, n_terms)) for args in _CHAIN_ARGS]


def _counting_apply(monkeypatch):
    """Patch ``_holder_apply`` to record each letter it applies, and whether
    that letter starts its chain."""
    calls, apply = [], numerics._holder_apply
    monkeypatch.setattr(numerics, "_holder_apply", lambda b, inner, n: calls.append((b, inner is None)) or apply(b, inner, n))
    return calls


def test_one_batch_applies_each_trie_node_once(monkeypatch):
    # the complemented and reversed words of the 108 convergent atoms of
    # weight 5 form one trie; from an empty store, the batch applies one
    # letter per distinct nonempty prefix, so the atoms share every chain
    # they have in common
    words = [holder_word(args) for args in signed_slots(5)]
    chains = {tuple(1 - b for b in w) for w in words} | {tuple(reversed(w)) for w in words}
    nodes = {chain[:j] for chain in chains for j in range(1, len(chain) + 1)}
    numerics._CHAINS.cache_clear()
    calls = _counting_apply(monkeypatch)
    list(_fp_holders([(w, 1) for w in words]))
    assert len(calls) == len(nodes) < 2 * 5 * len(words)


def _stored_nodes():
    """Every node of the chain store: its letter tuple and its sum."""
    letters, out = {0: ()}, {}
    for (parent, b), node in numerics._CHAINS.ids.items():  # a parent enters before its children
        letters[node] = (*letters[parent], b)
        out[letters[node]] = numerics._CHAINS.sums[node]
    return out


def _store_size():
    assert len(numerics._CHAINS.sums) == len(numerics._CHAINS.ids) + 1
    return len(numerics._CHAINS.ids)


def test_stored_chains_apply_no_letter(monkeypatch):
    # a second batch of chains that are prefixes of stored ones reads every
    # sum from the store, the integers the walk gave, and applies no letter;
    # chains that leave the stored trie are walked from the root, one letter
    # per node of their trie, as from an empty store, and each node walked
    # is stored
    numerics._CHAINS.cache_clear()
    chains = [(1, 0, -1, 2), (1, 0, 1, 1), (-1, 0, 0, 1)]
    first = numerics._chain_sums(chains, HOLDER_N)
    stored = _stored_nodes()
    assert set(stored) == {c[:j] for c in chains for j in range(1, len(c) + 1)}
    assert _store_size() == len(stored)
    calls = _counting_apply(monkeypatch)
    prefixes = {c[:j]: first[c][: j + 1] for c in chains for j in range(1, len(c))}
    assert numerics._chain_sums(list(prefixes), HOLDER_N) == prefixes
    assert not calls and _stored_nodes() == stored
    batch = [(1, 0, -1, 2, 0), (1, 0, 2), (1, 0, 1)]
    warm = numerics._chain_sums(batch, HOLDER_N)
    walked = {c[:j] for c in batch[:2] for j in range(1, len(c) + 1)}
    assert len(calls) == len(walked) == 6
    assert set(_stored_nodes()) == set(stored) | walked and _store_size() == len(stored) + 2
    numerics._CHAINS.cache_clear()
    assert numerics._chain_sums(batch, HOLDER_N) == warm


def test_other_n_terms_bypass_the_store():
    # a batch at n_terms = 8 neither reads nor writes the store, and a
    # HOLDER_N value afterwards still equals the reference
    numerics._CHAINS.cache_clear()
    _atom_units(z(2, -1, 3))
    stored = _stored_nodes()
    batch = [(2, -1, 3), (-2, 1, 3)]
    assert list(_fp_holders([(holder_word(args), len(args)) for args in batch], 8)) == [
        _to_units(*_fp_holder_two_loops(args, 8)) for args in batch
    ]
    assert _stored_nodes() == stored
    for args in batch:
        assert next(_fp_holders([(holder_word(args), len(args))])) == _to_units(*_fp_holder_two_loops(args, HOLDER_N))


def test_store_stays_within_its_cap():
    # the store stops growing at its cap: after z(-3000), whose two chains
    # have 6 000 nodes, and after every convergent atom of weight <= 8;
    # values read from the full store still match the reference
    numerics._CHAINS.cache_clear()
    _atom_units(z(-3000))
    assert _store_size() == numerics.HOLDER_STORE_NODES
    numerics._CHAINS.cache_clear()
    sweep = [args for w in range(1, 9) for args in signed_slots(w)]
    numerics._lincomb_units(sum((LinComb.of_atom(z(*args)) for args in sweep), LinComb()))
    assert _store_size() == numerics.HOLDER_STORE_NODES
    for args in random.Random(8).sample(sweep, 20):
        assert next(_fp_holders([(holder_word(args), len(args))])) == _to_units(*_fp_holder_two_loops(args, HOLDER_N))


def test_atom_units_alone_and_in_one_batch(monkeypatch):
    # with the store emptied, each atom alone and all of them in one
    # combination give the reference integers; the same combination again
    # reads the store and applies no letter
    expected = {z(*args): _to_units(*_fp_holder_two_loops(args, HOLDER_N)) for args in _CHAIN_ARGS}
    numerics._CHAINS.cache_clear()
    assert {atom: _atom_units(atom) for atom in expected} == expected
    numerics._CHAINS.cache_clear()
    lc = sum((LinComb.of_atom(atom) for atom in expected), LinComb())
    units = numerics._lincomb_units(lc)
    assert numerics._CHAINS.atoms == expected
    calls = _counting_apply(monkeypatch)
    assert numerics._lincomb_units(lc) == units and not calls


def test_atom_store_stays_bit_identical():
    # from an empty store, the units of five expansions and then those of
    # every atom they stored, in atom order, hash as they did when each atom's
    # value went through a Fraction and back: 1 120 atoms, bit for bit
    from eulersums import clear_caches
    from eulersums.expansion import expand_t1

    clear_caches()
    digest = hashlib.sha256()
    for text in ["S(1,3,-5,-2,2,3)", "S(-200,2)", "S(1,2,3,4,2)", "S(2,-3,5,-7)", "S(1,-1,-1)"]:
        value, error = numerics._lincomb_units(expand_t1(parse_index(text)))
        digest.update(f"{text} {value} {error}\n".encode())
    for atom in sorted(numerics._CHAINS.atoms):
        value, error = numerics._CHAINS.atoms[atom]
        digest.update(f"{atom.render()} {value} {error}\n".encode())
    assert len(numerics._CHAINS.atoms) == 1120
    assert digest.hexdigest() == "18268dee62feda59b8694eff37deba27bf693aeaf50eb0b03d173841e5ed0270"


def test_long_word_matches_two_loops():
    # a 300-letter atom of mixed letters gives the reference's integers
    rng, args = random.Random(300), [-2]
    while sum(map(abs, args)) < 297:
        args.append(rng.choice([1, 2, 3, -1, -2, -3]))
    args.append(300 - sum(map(abs, args)))
    assert len(holder_word(args)) == 300
    assert next(_fp_holders([(holder_word(args), len(args))])) == _to_units(*_fp_holder_two_loops(args, HOLDER_N))


def test_long_word_costs_one_step_per_letter(monkeypatch):
    # with the store emptied, z(-3000) applies each letter once to each of
    # its two chains, and holds one chain at a time: its peak memory is far
    # below the 2 * 3000 chains of 200 terms, about 10 KB each, of a walk
    # that kept them
    calls = _counting_apply(monkeypatch)
    numerics._CHAINS.cache_clear()
    tracemalloc.start()
    try:
        _atom_units(z(-3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 2 * 3000
    assert sum(first for _, first in calls) == 2
    assert peak < 2_000_000


def test_series_past_its_cap_returns_best_result():
    # only the series can miss a tolerance: the alternating log tail of
    # S(1,-1,-1) needs more than 10 terms for 1e-9, and the walk returns
    # its best result, whose bound the caller compares with the tolerance
    res = eval_euler_sum_best(parse_index("S(1,-1,-1)"), 1e-9, n_cap=10)
    assert res.tail_bound > 1e-9 and res.terms_used == 10


def test_tol_floor():
    with pytest.raises(ValueError, match="below the floor"):
        eval_euler_sum_best(make_index([2], 2), 1e-12)
    assert eval_euler_sum_best(make_index([2], 2), numerics.SUM_TOL_FLOOR).tail_bound <= numerics.SUM_TOL_FLOOR


def test_series_refuses_past_its_degree_cap():
    # 22 inner entries are refused before the walk, 2 000 as fast; 21
    # distinct entries still evaluate and meet the tolerance
    assert numerics.SERIES_DEGREE_CAP == 21
    for inner in ([1] * 22, [1] * 2000, list(range(1, 23))):
        t0 = time.monotonic()
        with pytest.raises(numerics.Refusal, match=f"the {len(inner)} inner entries are above the series cap 21"):
            eval_euler_sum_best(make_index(inner, 2))
        assert time.monotonic() - t0 < 0.1
    res = eval_euler_sum_best(make_index(list(range(1, 22)), 2))
    assert res.tail_bound <= 1e-8 and res.terms_used == 100


# -- the integer walk ---------------------------------------------------------------


def _walk(text, stops):
    state = _SumState(parse_index(text))
    for n in stops:
        state.walk_to(n)
    return state


def test_walk_floor_charges_cover_exact_sums():
    # each carry is its exact harmonic number less at most one unit per
    # floor, and the partial sum lies within the charged floors; with the
    # charge for the terms' own floors left out it would not
    for text in ["S(2)", "S(-3)", "S(1,2)", "S(2,-2)", "S(1,1,-3)", "S(-1,2,3)", "S(1,-1,-2)"]:
        idx = parse_index(text)
        for n in (7, 150):
            state = _walk(text, [n])
            for (e, _), carry in zip(state.factors, state.carries):
                exact = (harmonic_exact(e, n) if e > 0 else alt_harmonic_exact(-e, n)) * _FP_SCALE
                assert (0 <= exact - carry < n) if e > 0 else abs(exact - carry) < n, (text, e, n)
            miss = abs(euler_sum_prefix(idx, n)[n] * _FP_SCALE - state.partial)
            assert miss <= state.walk_error(), (text, n)
            if n == 150 and state.degree <= 1:
                assert miss > state.walk_error() - n, (text, n)


def test_walk_stops_match_one_walk():
    # walking to N in one step, term by term or through the block edges
    # floors the same quantities: the same integers and the same result
    for text in ["S(1,1,-1)", "S(-1,2,3)", "S(1,-2,-1)", "S(2,-2)", "S(1,-1,-1)", "S(1,2)", "S(-4)"]:
        whole = _walk(text, [300])
        for stops in (range(1, 301), [100, 300], [1, 99, 257, 300]):
            part = _walk(text, stops)
            assert (part.partial, part.carries, part.n) == (whole.partial, whole.carries, 300), text
        assert part.result() == whole.result()


def test_walk_to_current_n_adds_nothing():
    # the block N+1..N is empty: the walk stays where it is, under an
    # alternating outer exponent (S(1,-1,-3)) and a plain one (S(1,2))
    for text in ["S(1,-1,-3)", "S(1,2)"]:
        for before in ([], [50]):
            whole = _walk(text, before)
            state = _walk(text, before + [whole.n, whole.n])
            assert (state.partial, state.carries, state.n) == (whole.partial, whole.carries, whole.n), text


def test_walk_charge_counts_floors():
    # a degree-0 sum floors once per term; harmonic factors add what their
    # carries' n-unit errors move the terms: degree * (sum of m^(1-q) up to
    # n, at most 11 for n = 1000 and q >= 2, else n) * ceil(the product of
    # the factors' bounds), with H_1000 = 7.49 and zeta(2) = 1.64
    assert _walk("S(-3)", [1000]).walk_error() == 1000
    assert _walk("S(5)", [1]).walk_error() == 1
    for text, extra in [("S(2,2)", 1 * 11 * 2), ("S(1,3)", 1 * 11 * 8), ("S(1,1,-2)", 2 * 11 * 57), ("S(1,-1)", 1 * 1000 * 8)]:
        assert _walk(text, [1000]).walk_error() == 1000 + extra, text


# -- terms and combinations --------------------------------------------------------


def test_empty_lincomb():
    r = eval_lincomb_best(LinComb(), 1e-10)
    assert float(r.value) == 0.0 and r.tail_bound == 0.0


def test_lincomb_beyond_float_range_has_infinite_bound():
    # the value still prints from its exact rational, past the float range
    res = eval_lincomb_best(LinComb.of_atom(z(2), 10**400))
    assert res.tail_bound == math.inf and repr(res) == "NumericResult(1.64493406684823e+400 +- inf, N=200)"


def _digits15_reference(value: Fraction) -> str:
    """``%.15g`` layout of an exact rational, written out step by step."""
    d = decimal.Context(prec=15).divide(value.numerator, value.denominator)
    exp = d.adjusted()
    text = f"{d if -4 <= exp < 15 else d.scaleb(-exp):f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if -4 <= exp < 15 else f"{text}e{exp:+03d}"


def _up3_reference(bound: float) -> str:
    """``%.3g`` of the float nearest the bound rounded up to 3 digits."""
    x = Fraction(bound)
    up = decimal.Context(prec=3, rounding=decimal.ROUND_CEILING)
    return f"{float(up.divide(x.numerator, x.denominator)):.3g}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(min_value=2.0**-192, max_value=1.79e308),
       st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)))
@example(1.0, Fraction(0))
@example(999.5, Fraction(10**15 - 1, 10**20))
@example(0.0001, Fraction(-99999999999999951, 10**21))
def test_printers_keep_the_float_layout(bound, value):
    # within the float range a bound prints as %.3g printed the float of its
    # upward rounding, and a value as %.15g; 1.79e308, not the largest float,
    # is the top, since above it the 3-digit upward rounding 1.80e308 is no float
    assert numerics._up3(bound) == _up3_reference(bound)
    assert numerics._digits15(value) == _digits15_reference(value)
    assert numerics._digits15(Fraction(bound)) == f"{bound:.15g}"


def test_printers_keep_digits_past_the_float_range():
    assert numerics._up3(Fraction(12 * 10**309 + 1)) == "1.21e+310"
    assert numerics._up3(math.inf) == "inf"
    assert numerics._digits15(Fraction(-(10**400), 3)) == "-3.33333333333333e+399"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(-(2**1300), 2**1300), st.integers(0, 2**1300))
@example(0, 0)
@example(0, int(1.7976931348623157e308) << 192)
@example(0, (int(1.7976931348623157e308) << 192) + 1)
def test_fp_result_bound_is_the_next_float_up(value, error):
    # the value stays exact, and the bound is the error, in units of 2^-192,
    # rounded up to a float once: inf only past the largest float
    res = _fp_result(value, error, 0)
    assert res.value * _FP_SCALE == value
    total = Fraction(error, _FP_SCALE)
    if res.tail_bound == math.inf:
        assert total > Fraction(1.7976931348623157e308)
    else:
        assert res.tail_bound >= total > math.nextafter(res.tail_bound, -math.inf)


@pytest.mark.parametrize("text", ["S(400)", "S(2,300)", "S(1,-1,-300)", "S(-3,2,2,-250)"])
def test_walk_exponent_cap_keeps_every_term(text):
    # past 193 + 4 * degree every term floors alike over n^q: the capped walk
    # adds the same terms as one that divides each by the full power n^q
    idx = parse_index(text)
    state = _SumState(idx)
    state.walk_to(60)
    carries, partial = dict.fromkeys(idx.inner, 0), 0
    for n in range(1, 61):
        sign = 1 if n & 1 else -1
        for e in carries:
            carries[e] += (_FP_SCALE // n ** min(abs(e), 193)) * (sign if e < 0 else 1)
        prod = _FP_SCALE * math.prod(carries[e] for e in idx.inner)
        prod *= sign if idx.outer < 0 else 1
        partial += (prod >> (192 * len(idx.inner))) // n ** abs(idx.outer)
    assert state.partial == partial


def test_product_term():
    t = SymbolicTerm.of(z(2), z(3))
    r = eval_lincomb_best(LinComb({t: 1}), 1e-10)
    expect = float(zeta_value(2).value) * float(zeta_value(3).value)
    assert abs(float(r.value) - expect) <= r.tail_bound + 1e-14
    assert abs(float(r.value) - 1.9773043502972961) < 1e-12


# Coefficients sign * m/d * 10^e, so 1e-40 <= |c| <= 1e12, on terms of 0-3
# atoms, signed or Li.
_COEFF = st.builds(
    lambda sign, m, d, e: sign * Fraction(m, d) * Fraction(10) ** e,
    st.sampled_from([1, -1]), st.integers(1, 1000), st.integers(1, 1000), st.integers(-37, 9),
)
_ATOM = st.one_of(
    st.integers(1, 6).map(li_half),
    st.builds(lambda a, rest: z(a, *rest), _SLOT, st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=2)),
)


@functools.cache
def _exact_atom(atom):
    if atom.li:
        return _li_half_series(atom.li)[0]
    return _holder_value(atom.args)[0]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_COEFF, st.lists(_ATOM, max_size=3)), max_size=4))
@example([(Fraction(1, math.factorial(10)), [z(2)])])
@example([(Fraction(7, 10**30), [z(2)])])
def test_lincomb_bound_encloses_exact_value(terms):
    lc = sum((LinComb({SymbolicTerm.of(*atoms): c}) for c, atoms in terms), LinComb())
    exact = sum(c * math.prod(_exact_atom(a) for a in t.factors) for t, c in lc.items())
    res = eval_lincomb_best(lc)
    assert abs(Fraction(*res.value.as_integer_ratio()) - exact) <= res.tail_bound, lc
    assert res.value * 2**192 == numerics._lincomb_units(lc)[0], lc


def test_li_term_and_ln2_atom():
    r = eval_lincomb_best(LinComb.of_atom(li_half(4)), 1e-10)
    assert abs(float(r.value) - 0.5174790616738994) < 1e-10
    r2 = eval_lincomb_best(LinComb.of_atom(z(-1)), 1e-10)
    assert abs(float(r2.value) + math.log(2)) < 1e-14


def test_lincomb_meets_a_tolerance_far_below_its_value():
    # the value is the summed units, exact, and only their error is rounded,
    # up and once: a combination of size 0.06 meets 1e-30
    lc = LinComb.of_atom(z(-1, 1, 1, 1, 1)) + LinComb.of_atom(z(-3, 1), Fraction(-5, 7))
    value, error = numerics._lincomb_units(lc)
    res = eval_lincomb_best(lc, 1e-30)
    assert res.tail_bound <= 1e-30
    assert res.value == Fraction(value, _FP_SCALE)
    assert res.tail_bound >= Fraction(error, _FP_SCALE) > math.nextafter(res.tail_bound, 0)


# -- Euler sums ---------------------------------------------------------------------


def test_sum_partials_match_exact():
    # the series walker partial sums agree with exact rational evaluation
    for text in ["S(1,2)", "S(1,1,-3)", "S(-1,2,3)", "S(2,-2)"]:
        idx = parse_index(text)
        st = _walk(text, [40])
        exact = euler_sum_prefix(idx, 40)[40]
        assert abs(Fraction(st.partial, _FP_SCALE) - exact) < 1e-14, text


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
        a = eval_euler_sum_best(idx, 1e-7)
        b = eval_lincomb_best(expand_t1(idx), 1e-7)
        ok, diff, budget = numerics.agree(a, b, 0)
        assert ok, (text, float(diff), float(budget))


# -- the tail engine ------------------------------------------------------------------


def _eta_fixed_point(r):
    """eta(r) = ln 2 by its series or (1 - 2^(1-r)) zeta(r) at 192-bit fixed point, and its error."""
    if r == 1:
        return _li_half_series(1)
    z_val, z_err = _fp_zeta(r)
    return (1 - Fraction(2) ** (1 - r)) * z_val, z_err


def _expansion_at(expansion, n):
    terms, (p, c) = expansion
    return sum(c_k / Fraction(n) ** p_k for p_k, c_k in terms), c / Fraction(n) ** p


def test_rho_majorant_and_boole_expansion_fixed_point():
    # rho_r(m) = (-1)^(m+1) (alternating H_m^(r) - eta(r)) against its Boole
    # expansion, which misses it by at most the remainder, and by more than
    # half of it at m = 20
    for r in range(1, 5):
        eta, err = _eta_fixed_point(r)
        assert err < Fraction(1, 10**24)
        rho = [(-1) ** (m + 1) * (alt_harmonic_exact(r, m) - eta) for m in range(61)]
        boole = _enveloped(_em_sum(0, r, True))  # A of y^-r, its last term the remainder
        assert len(boole[0]) == K_EM + 1
        for n in range(1, 61):
            value, rem = _expansion_at(boole, n)
            assert abs(rho[n] - value) <= rem + err, (r, n)
        value, rem = _expansion_at(boole, 20)
        assert abs(rho[20] - value) > rem / 2, r


def test_digamma_expansion_fixed_point():
    # H_2n - H_n = ln 2 + D(2n) - D(n) + R(2n) - R(n), and the remainder R
    # keeps one sign, so |R(2n) - R(n)| <= |R(n)|; at n = 20 it takes more
    # than half of that
    ln2, err = _li_half_series(1)
    digamma = _enveloped(_em_sum(0, 1, k=K_EM + 1), -1)  # the boundary terms of 1/y, negated
    assert len(digamma[0]) == K_EM + 1
    for n in range(1, 40):
        d_2n, _ = _expansion_at(digamma, 2 * n)
        d_n, rem = _expansion_at(digamma, n)
        miss = abs(harmonic_exact(1, 2 * n) - harmonic_exact(1, n) - ln2 - d_2n + d_n)
        assert miss <= rem + err, n
        if n == 20:
            assert miss > rem / 2


def _digamma_closed_form(k):
    """D(x) = H_x - ln x - gamma = 1/(2x) - sum_{j<=k} B_2j / (2j x^2j),
    the next term, as its absolute value, the remainder."""
    terms = [(1, Fraction(1, 2))] + [(2 * j, -_bernoulli(2 * j) / (2 * j)) for j in range(1, k + 2)]
    return tuple(terms[:-1]), (terms[-1][0], abs(terms[-1][1]))


def _boole_closed_form(r):
    """rho_r(x) = 1/(2 x^r) - sum_{k<=K} (4^k - 1) B_2k (r)_(2k-1) / (2k)!
    x^-(r+2k-1), the next term, as its absolute value, the remainder."""

    def coeff(k):
        return -(4**k - 1) * _bernoulli(2 * k) * math.prod(range(r, r + 2 * k - 1)) / math.factorial(2 * k)

    terms = [(r, Fraction(1, 2))] + [(r + 2 * k - 1, coeff(k)) for k in range(1, K_EM + 1)]
    return tuple(terms), (r + 2 * K_EM + 1, abs(coeff(K_EM + 1)))


def _plain_factor_closed_forms(e, n, carry):
    """``_plain_factor`` written with the closed forms of D and rho_r."""
    one = (0, 0, 0)
    if -e > HOLDER_N:
        return {one: _FP_SCALE, (1, 0, -e): 0}, {one: 1, (1, 0, -e): _FP_SCALE}
    terms, rem = _digamma_closed_form(K_EM) if e == 1 else _em_sum(0, e) if e > 1 else _boole_closed_form(-e)
    g, sign = int(e < 0), -1 if e > 1 else 1
    p = {(g, 0, q): sign * ((c.numerator << numerics._FP_BITS) // c.denominator) for q, c in terms}
    err = dict.fromkeys(p, 1)
    p.setdefault((g, 0, rem[0]), 0)
    err[(g, 0, rem[0])] = err.get((g, 0, rem[0]), 0) + numerics._rem_units(rem, 1)
    if e == 1:
        anchor, anchor_rem = _digamma_closed_form(K_EM + 1)
        p.update({one: carry - numerics._at(anchor, n), (0, 1, 0): _FP_SCALE})
        err[one] = n + len(anchor) + numerics._rem_units(anchor_rem, n)
    elif e > 1:
        t_n, t_err = numerics._em_units(0, e, n)
        p[one], err[one] = carry + t_n, n + t_err
    else:
        eta, eta_err = _atom_units(z(e))
        p[one], err[one] = -eta, eta_err
    return p, err


def test_enveloped_expansions_match_their_closed_forms():
    # D is the boundary terms of 1/y negated and rho_r is A of y^-r, each
    # with its last term as the remainder: the same Fractions as the
    # digamma and Boole closed forms, and the same factors of the tail
    for k in (K_EM, K_EM + 1):
        assert _enveloped(_em_sum(0, 1, k=k + 1), -1) == _digamma_closed_form(k)
    for r in range(1, 60):
        assert _enveloped(_em_sum(0, r, True)) == _boole_closed_form(r), r
    for n in (1, 2, 3, 7, 100, 300, 1000, 3000, 10_000):
        for e in [*range(-60, 0), *range(1, 40), -150, -201, -300]:
            carry = n * 7**60 if e > 0 else 0
            assert _plain_factor(e, n, carry) == _plain_factor_closed_forms(e, n, carry), (e, n)


def test_em_sum_at_p_1():
    # at p = 1 the integral diverges: for s = 0 the expansion is the
    # boundary terms alone, -1/(2x) first; with a log factor W diverges
    # and is refused, while A still sums
    terms, (e, _) = _em_sum(0, 1)
    assert terms[0] == (1, Fraction(-1, 2)) and len(terms) == K_EM + 1 and e == 2 * K_EM
    for s in (1, 2, 3):
        with pytest.raises(ValueError):
            _em_sum(s, 1)
        assert _em_sum(s, 1, True)[0]
    with pytest.raises(ValueError):
        _em_sum(0, 0, True)


def test_em_sum_encloses_zeta_tails():
    # sum_{m > n} m^-p by Euler-Maclaurin of order 2K against the
    # fixed-point zeta value less the exact partial sum: within the
    # remainder; at n = 20 the miss is of the next order, between a
    # thousandth and a tenth of it
    for p in range(2, 7):
        z_val, z_err = _fp_zeta(p)
        for n in range(1, 30):
            value, rem = _expansion_at(_em_sum(0, p), n)
            miss = abs(z_val - harmonic_exact(p, n) - value)
            assert miss <= rem + z_err, (p, n)
            if n == 20:
                assert rem / 1000 < miss < rem / 10, p


def _poly_at(poly, m, log):
    """A polynomial {(t, p): c} in L and 1/m at m, with L = ``log``, in units."""
    return sum(c * log**t / Fraction(m) ** p for (t, p), c in poly.items())


def _parts(factor):
    """A factor (P, E) of the tail, dicts {(g, t, p): c}, as its even part,
    P and E at g = 0 keyed by (t, p), and its odd part at g = 1."""
    return tuple(tuple({(t, p): c for (h, t, p), c in poly.items() if h == g} for poly in factor) for g in (0, 1))


def test_plain_factors_enclose_their_values():
    # each factor of the tail, expanded about N = n from the walk's carry,
    # is one polynomial whose g = 0 and g = 1 slices are its even part and
    # its odd part, the coefficient of sigma: H_m and H_m^(r) are even with odd part zero,
    # and the alternating H_m^(r) has even part eta(r), for r = 1 ln 2 from
    # the Li_1(1/2) series, and odd part rho_r(m); each encloses its value
    # at m = 2n, where ln(m/n) is the series' ln 2, and at m = 3n for r != 1
    ln2, ln2_err = _li_half_series(1)
    for n in (1, 2, 3, 5, 8, 13):
        state = _walk("S(1,2,3,-1,-2,2)", [n])
        for (e, _), carry in zip(state.factors, state.carries):
            (p, err), (p_odd, err_odd) = _parts(_plain_factor(e, n, carry if e > 0 else 0))
            for m in (2 * n, 3 * n) if e != 1 else (2 * n,):
                if e > 0:
                    assert p_odd == err_odd == {}
                    exact, slack = harmonic_exact(e, m), ln2_err
                else:
                    eta, slack = _eta_fixed_point(-e)
                    rho = (-1) ** (m + 1) * (alt_harmonic_exact(-e, m) - eta)
                    miss = abs(rho * _FP_SCALE - _poly_at(p_odd, m, ln2))
                    assert miss <= _poly_at(err_odd, m, ln2) + slack * _FP_SCALE, (e, n, m)
                    assert list(p) == list(err) == [(0, 0)]
                    exact = eta
                miss = abs(exact * _FP_SCALE - _poly_at(p, m, ln2))
                assert miss <= _poly_at(err, m, ln2) + slack * _FP_SCALE, (e, n, m)


def test_atom_above_the_word_cap_is_refused_before_its_word_is_built(monkeypatch):
    # the Hoelder word of an atom is as long as its weight; past the cap it
    # is refused at once, before the word is built, and S(2,100000), whose
    # atoms z(100000,2) and z(100002) are still below the cap, still runs
    assert numerics.HOLDER_WORD_CAP >= 100_002
    big = 10**15
    for atom in (z(big), z(2, -big), li_half(big)):
        t0 = time.monotonic()
        with pytest.raises(numerics.WordCapError, match=f"weight {atom.weight} above the Hoelder word cap"):
            _eval_atom(atom)
        assert time.monotonic() - t0 < 1.0
    # the cap is inclusive, for zeta and Li atoms alike, with the store emptied
    expected = {atom: _atom_units(atom) for atom in (z(5), z(2, -3), li_half(5))}
    monkeypatch.setattr(numerics, "HOLDER_WORD_CAP", 5)
    numerics._CHAINS.cache_clear()
    assert {atom: _atom_units(atom) for atom in expected} == expected
    for atom in (z(6), z(2, -4), li_half(6)):
        with pytest.raises(numerics.WordCapError, match="weight 6 above the Hoelder word cap 5"):
            _atom_units(atom)
    # in a combination the first atom past the cap in term order is named,
    # before any atom is evaluated
    numerics._CHAINS.cache_clear()
    lc = LinComb.of_atom(z(2)) + LinComb.of_atom(z(7)) + LinComb.of_atom(z(3, 3)) + LinComb.of_atom(z(-6))
    with pytest.raises(numerics.WordCapError, match=r"^z\(-6\): weight 6"):
        eval_lincomb_best(lc)
    assert not numerics._CHAINS.atoms


def test_eta_beyond_the_holder_length(capsys):
    # up to HOLDER_N eta(r) is the Hoelder atom -z(-r); past it 1 - 2^-r <
    # eta(r) < 1 is one unit about 1 and rho_r(m) is 0 +- m^-r, and
    # S(-100000,2), which would need a Hoelder word of length 100000, is
    # evaluated in seconds, its tail bound near the walk's floors
    from eulersums import cli

    eta, eta_err = _atom_units(z(-HOLDER_N))
    assert _parts(_plain_factor(-HOLDER_N, 10, 0))[0] == ({(0, 0): -eta}, {(0, 0): eta_err})
    for r in (HOLDER_N + 1, 1000):
        (p, err), odd = _parts(_plain_factor(-r, 10, 0))
        assert odd == ({(0, r): 0}, {(0, r): _FP_SCALE})
        near = sum(Fraction((-1) ** (k + 1), k**r) for k in range(1, 4))  # within 4^-r
        assert abs(near * _FP_SCALE - p[(0, 0)]) <= err[(0, 0)] - Fraction(_FP_SCALE, 4**r)
    t0 = time.monotonic()
    assert cli.main(["eval", "S(-100000,2)"]) == 0
    assert time.monotonic() - t0 < 5.0
    assert capsys.readouterr().out.startswith("1.64493406684823  bound=")
    # every H_n^(-r) is within 2^-r of 1, so S(-r,2) is within 2^-r zeta(2) of zeta(2)
    res, z2 = eval_euler_sum_best(parse_index("S(-100000,2)"), 1e-10), zeta_value(2)
    slack = Fraction(res.tail_bound) + Fraction(z2.tail_bound) + Fraction(2, 2**100000)
    assert res.tail_bound <= 1e-19 and res.terms_used == 100 and abs(res.value - z2.value) <= slack
    # an outer -1 takes that error at p = r + 1, where the sums converge
    assert eval_euler_sum_best(parse_index("S(1,1,-400,-1)"), 1e-10).tail_bound <= 1e-10


def test_plain_entry_beyond_the_holder_length(capsys):
    # past HOLDER_N, 0 <= H_m^(r) - H_N^(r) < 3 2^-r is below one unit, so the
    # factor is its carry: S(r,2) meets 1e-10 however large r is (r = 10^10
    # gave bound=2.24e+07 when T_r was expanded), and stays within its bound of
    # zeta(2), from which it differs by less than 2^-1000
    from eulersums import cli

    z2 = zeta_value(2)
    for r in (10**10, 10**12):
        res = eval_euler_sum_best(parse_index(f"S({r},2)"), 1e-10)
        slack = Fraction(res.tail_bound) + Fraction(z2.tail_bound) + Fraction(1, 2**1000)
        assert res.tail_bound <= 1e-10 and abs(res.value - z2.value) <= slack, r
    # the cut-off keeps the printed digits, and no bound grows: the printed
    # bounds before it, rounded up
    for r, before in ((HOLDER_N + 1, 8.24e-20), (1000, 8.24e-20), (10**6, 8.43e-20)):
        assert cli.main(["eval", "--tol", "1e-10", f"S({r},2)"]) == 0
        digits, bound, n = capsys.readouterr().out.split()
        assert (digits, n) == ("1.64493406684823", "N=100")
        assert float(bound.removeprefix("bound=")) <= before, r


def test_repeated_alternating_tails_enclose_reference():
    # (even + sigma odd)^k multiplies out into 2^k products, each landing
    # at sigma^0 or sigma^1 by the parity of its odd factors; with repeated and mixed alternating
    # factors, and either outer sign, the tail at N = 10 and 100 still
    # encloses the Hoelder value of the expansion
    for text in ["S(-1,-1,-1,-1,-1)", "S(-1,-2,-2,-1)", "S(1,1,-1,-1,-1,-1)", "S(-2,-2,-2,3)",
                 "S(-1,-1,-3,2)", "S(2,-1,-1,-2)"]:
        idx = parse_index(text)
        ref = _reference(idx)
        for n in (10, 100):
            res = eval_euler_sum_best(idx, 1e-10, n_cap=n)
            assert res.terms_used == n
            assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound, (text, n)
            assert res.tail_bound < (1e-6 if n == 10 else 1e-10), (text, n)


def test_em_sum_log_moments():
    # sum_{m > n} ln(m/n)^s m^-p against a float partial sum up to M =
    # 20000 plus the integral from M on, which misses the rest, a
    # decreasing tail, by at most its term at M
    top = 20_000
    for s, p in [(1, 2), (2, 3), (3, 2), (1, 5)]:
        for n in (1, 2, 5):
            log = math.log(top / n)
            partial = math.fsum(math.log(m / n) ** s * m**-p for m in range(n + 1, top + 1))
            rest = sum(
                math.comb(s, i) * log ** (s - i) * math.factorial(i) / (p - 1) ** (i + 1) for i in range(s + 1)
            ) * top ** (1 - p)
            value, rem = _expansion_at(_em_sum(s, p), n)
            miss = abs(partial + rest - float(value))
            assert miss <= float(rem) + log**s * top**-p + 1e-12, (s, p, n)
            if n == 1:
                assert miss > float(rem) / 1000, (s, p)


def test_alt_sum_encloses_alternating_tails():
    # A(n) = sum_{m > n} (-1)^(m+1) ln(m/n)^s m^-p, the boundary terms of
    # Euler-Maclaurin at n and n/2.  For s = 0 it is eta(p) less the exact
    # alternating partial sum, within the remainder, and at n = 20 the miss
    # is of the next order, above a thousandth of it; both parities of n
    for p in range(1, 7):
        if p == 1:
            eta, eta_err = _li_half_series(1)
        else:
            v, e = _atom_units(z(-p))
            eta, eta_err = Fraction(-v, _FP_SCALE), Fraction(e, _FP_SCALE)
        for n in range(1, 30):
            value, rem = _expansion_at(_em_sum(0, p, True), n)
            miss = abs(eta - alt_harmonic_exact(p, n) - (-1) ** n * value)
            assert miss <= rem + eta_err, (p, n)
            if n == 20:
                assert miss > rem / 1000, p
    # for s >= 1, against a float partial sum up to M = 20000 plus half its
    # next term, positive for M even: the rest alternates with decreasing
    # convex terms, so that estimate misses it by at most half the first
    # difference
    top = 20_000
    for s, p in [(1, 1), (3, 1), (1, 2), (2, 3), (1, 5)]:
        for n in (1, 2, 5, 6):
            f = lambda m: math.log(m / n) ** s * m**-p
            partial = math.fsum((-1) ** (m + 1) * f(m) for m in range(n + 1, top + 1))
            value, rem = _expansion_at(_em_sum(s, p, True), n)
            miss = abs(partial + f(top + 1) / 2 - (-1) ** n * float(value))
            assert miss <= float(rem) + (f(top + 1) - f(top + 2)) / 2 + 1e-12, (s, p, n)
            if n == 1:
                assert miss > float(rem) / 1000, (s, p)


# every convergent index of weight 2 to 5, S(-1) left out, in the order of their text
_TO_WEIGHT5 = sorted((idx for idx in convergent_indices(5) if idx.weight > 1), key=str)


_REFERENCES = {}


def _reference(idx):
    from eulersums.expansion import expand_t1

    if idx not in _REFERENCES:
        _REFERENCES[idx] = eval_lincomb_best(expand_t1(idx))
    return _REFERENCES[idx]


def _worst_ratio(tol, n_cap=numerics.N_MAX):
    """Largest |series - Hoelder value of the expansion| / (sum of bounds)
    over every convergent index of weight <= 5."""
    ratios = []
    for idx in _TO_WEIGHT5:
        ref = _reference(idx)
        res = eval_euler_sum_best(idx, tol, n_cap=n_cap)
        ratios.append((abs(float(res.value - ref.value)) / (res.tail_bound + ref.tail_bound), str(idx)))
    return max(ratios, key=lambda pair: pair[0])


def test_series_within_bound_weight5():
    assert len(_TO_WEIGHT5) == 97
    ratio, text = _worst_ratio(1e-10)
    assert ratio <= 1.0, text


def test_series_encloses_the_expansion_exactly_weight7():
    # every convergent index of weight <= 7: the series at 1e-10 and the
    # Hoelder value of its expansion agree within their two bounds, compared
    # as exact rationals with no tolerance on top
    indices = sorted((idx for idx in convergent_indices(7) if idx.weight > 1), key=str)
    assert len(indices) == 422
    for idx in indices:
        assert numerics.agree(eval_euler_sum_best(idx, 1e-10), _reference(idx), 0)[0], idx


def test_printed_bounds_are_rounded_up_and_values_agree(capsys):
    # for every convergent index of weight <= 5, each bound that eval and
    # verify print, parsed back, is at least the certified one, and both
    # commands print the same digits of the series
    from eulersums import cli

    for idx in _TO_WEIGHT5:
        series, expansion = eval_euler_sum_best(idx, 1e-10), _reference(idx)
        assert cli.main(["eval", "--tol", "1e-10", str(idx)]) == 0
        eval_value, eval_bound, _ = capsys.readouterr().out.split()
        assert float(eval_bound.removeprefix("bound=")) >= series.tail_bound, idx
        assert cli.main(["verify", "--tol", "1e-10", str(idx)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[2] == eval_value, idx
        for line, res in ((lines[1], series), (lines[2], expansion)):
            printed = line.split("(bound ")[1].split(",")[0].split(";")[0]
            assert float(printed) >= res.tail_bound, (idx, line)


@pytest.mark.parametrize("mutation", ["alternating_remainder", "expansion_remainders"])
def test_mutated_bound_is_exceeded(monkeypatch, mutation):
    # the remainders are needed: without that of A, or without all of them,
    # some index of weight <= 5 ends up farther from its reference value
    # than its reported bound
    for idx in _TO_WEIGHT5:
        _reference(idx)
    if mutation == "alternating_remainder":
        em_sum = numerics._em_sum
        zeroed = lambda s, p, alt=False, k=K_EM: (em_sum(s, p, alt, k)[0], (0, 0)) if alt else em_sum(s, p, alt, k)
        monkeypatch.setattr(numerics, "_em_sum", zeroed)
    else:
        monkeypatch.setattr(numerics, "_rem_units", lambda *args: 0)
    for cached in (numerics._em_units, numerics._plain_factor):
        cached.cache_clear()
    ratio, text = _worst_ratio(1e-10, n_cap=10)
    for cached in (numerics._em_units, numerics._plain_factor):
        cached.cache_clear()
    assert ratio > 10.0, (mutation, text)


def test_series_small_n_encloses_reference():
    # at small N every remainder of the tail expansions counts, and the
    # enclosure still holds; a cap below 1 walks one term
    for text in ["S(3)", "S(-2)", "S(1,2)", "S(2,2)", "S(-2,-2)", "S(1,1,2)", "S(1,-2)",
                 "S(1,-1,-1)", "S(-1,-1,-1)", "S(2,-1,3)", "S(1,1,-1)", "S(3,-2,2)"]:
        idx = parse_index(text)
        ref = _reference(idx)
        for n in (0, 1, 2, 3, 5, 8, 13):
            res = eval_euler_sum_best(idx, 1e-10, n_cap=n)
            assert res.terms_used == max(n, 1)
            assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound, (text, n)


def test_log_tails_stop_early():
    # the weight-3 sums with a magnitude-1 entry meet 1e-6, and the two
    # slowest of them 1e-8, within 10^5 terms
    for text in ["S(2,-1)", "S(-2,-1)", "S(1,1,-1)", "S(1,-1,-1)", "S(-1,-1,-1)",
                 "S(1,2)", "S(-1,2)", "S(1,-2)", "S(-1,-2)"]:
        res = eval_euler_sum_best(parse_index(text), 1e-6)
        assert res.tail_bound <= 1e-6 and res.terms_used <= 10**5, text
    for text in ["S(1,1,-1)", "S(1,-1,-1)"]:
        res = eval_euler_sum_best(parse_index(text), 1e-8)
        assert res.tail_bound <= 1e-8 and res.terms_used <= 10**5, text


def test_method_names_the_bound(monkeypatch, capsys, tmp_path):
    assert _eval_atom(z(3, 2)).method == "holder"
    assert _eval_atom(li_half(4)).method == "holder"
    assert _eval_atom(li_half(2)).method == "holder"
    assert eval_lincomb_best(LinComb.of_atom(li_half(4))).method == "holder"
    mixed = LinComb.of_atom(li_half(4)) + LinComb.of_atom(z(-3))
    assert eval_lincomb_best(mixed).method == "holder"
    alternating = eval_euler_sum_best(parse_index("S(1,1,-1)"), 1e-6)
    assert alternating.method == "euler_maclaurin"
    assert eval_euler_sum_best(parse_index("S(-1,2)"), 1e-6).method == "euler_maclaurin"
    assert eval_euler_sum_best(parse_index("S(1,2)"), 1e-6).method == "euler_maclaurin"
    assert "method" not in repr(alternating) and "euler" not in repr(alternating)
    # every result the package builds, through the library and through each
    # command that evaluates, names one of the two methods
    from eulersums import cli

    made, build = [], numerics._fp_result

    def record(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(numerics, "_fp_result", record)
    table = tmp_path / "t.jsonl"
    table.write_text('{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}\n')
    dump = tmp_path / "d.json"
    dump.write_text('{"terms": [{"factors": ["Li(4,1/2)", "z(-3)"], "coeff": "2"}]}')
    _eval_atom(z(3, 2))
    eval_lincomb_best(LinComb.of_atom(li_half(4)))
    eval_euler_sum_best(parse_index("S(-1,2)"), 1e-6)
    for argv in (["eval", "S(1,1,-1)"], ["eval", "--json", str(dump)], ["table-check", str(table)],
                 ["verify", "--tol", "1e-6", "--table", str(table), "S(1,2)"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert {r.method for r in made} == {"holder", "euler_maclaurin"}


def test_an_infinite_bound_certifies_nothing():
    # 10^310 z(3) lies past the float range, but its bound, the atom's error
    # times 10^310, does not: a finite bound, which agrees with the same value
    huge = eval_lincomb_best(LinComb.of_atom(z(3), 10**310))
    assert repr(huge) == "NumericResult(1.20205690315959e+310 +- 2.3e+256, N=200)"
    assert numerics.agree(huge, huge, 1e-8)[0]
    ok, diff, budget = numerics.agree(_eval_atom(z(3)), huge, 0)
    assert not ok and diff > 10**309 and budget < 10**257
    # the bound of 10^400 z(3) is past every float: inf, which agrees with
    # nothing, not even the same value, and the budget is inf
    past = eval_lincomb_best(LinComb.of_atom(z(3), 10**400))
    assert past.tail_bound == math.inf
    assert numerics.agree(past, past, 1e-8) == (False, 0, math.inf)
    ok, diff, budget = numerics.agree(_eval_atom(z(3)), past, 0)
    assert (ok, budget) == (False, math.inf) and diff > 10**399
