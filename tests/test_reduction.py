import io
import itertools
import math
import random
from fractions import Fraction

import pytest

from eulersums.algebra import LinComb, SymbolicTerm, z
from eulersums.expansion import expand_t1, expand_t2
from eulersums.indices import make_index, parse_index
from eulersums.reduction import (
    IdentityTable,
    alt_depth1,
    build_starter_table,
    default_rules,
    depth2_odd,
    load_identity_table,
    log_integral,
    reduce_lincomb,
    reflection_pair_sum,
    reflection_triple_sum,
    save_table,
    symmetric_triple_sum,
    zeta_ones,
    zeta_repeated,
    zeta_repeated_bar,
)

from fixtures_closed_forms import CLOSED_S11_1_ALL_BAR, CLOSED_S33_3_ALL_BAR, CLOSED_WEIGHT5, lc


# -- the log-power integral and zeta(k+1,{1}_l) ---------------------------------


def test_log_integral_base_cases():
    for l in range(0, 8):
        assert log_integral(1, l) == lc(((-1) ** (l + 1) * math.factorial(l), [z(l + 2)]))
    for k in range(1, 8):
        assert log_integral(k, 0) == lc(((-1) ** k * math.factorial(k), [z(k + 1)]))


def test_log_integral_symmetry_exact():
    for k in range(1, 9):
        for l in range(1, 9):
            lhs = log_integral(k, l - 1).scale(
                Fraction(1, math.factorial(k) * math.factorial(l - 1))
            )
            rhs = log_integral(l, k - 1).scale(
                Fraction(1, math.factorial(l) * math.factorial(k - 1))
            )
            assert lhs == rhs, (k, l)


def test_log_integral_range():
    with pytest.raises(ValueError):
        log_integral(0, 3)
    with pytest.raises(ValueError):
        log_integral(20, 20)


def test_zeta_ones_small():
    assert zeta_ones(1, 1) == lc((1, [z(3)]))
    # zeta(2,1,1) = zeta(4)
    assert zeta_ones(1, 2) == lc((1, [z(4)]))


def _zeta_q1_display(q: int) -> LinComb:
    acc = lc((Fraction(q, 2), [z(q + 1)]))
    for i in range(1, q - 1):
        acc = acc + lc((Fraction(-1, 2), [z(i + 1), z(q - i)]))
    return acc


def _zeta_q11_display(q: int) -> LinComb:
    acc = lc((Fraction(q * (q + 1), 6), [z(q + 2)]), (Fraction(1, 2), [z(2), z(q)]))
    for j in range(0, q - 1):
        acc = acc + lc((Fraction(-q, 4), [z(j + 2), z(q - j)]))
    for j in range(2, q - 1):
        for i in range(0, j - 1):
            acc = acc + lc((Fraction(1, 6), [z(q - j), z(i + 2), z(j - i)]))
    return acc


def test_zeta_q1_closed_form():
    for q in range(2, 9):
        assert zeta_ones(q - 1, 1) == _zeta_q1_display(q), q


def test_zeta_q11_closed_form():
    for q in range(2, 8):
        assert zeta_ones(q - 1, 2) == _zeta_q11_display(q), q


# -- single-atom rules ------------------------------------------------------------


def test_alt_depth1_values():
    assert alt_depth1(2) == lc(("-1/2", [z(2)]))
    assert alt_depth1(5) == lc(("-15/16", [z(5)]))
    with pytest.raises(ValueError):
        alt_depth1(1)


def test_depth2_odd_zeta21():
    assert depth2_odd(z(2, 1)) == lc((1, [z(3)]))


def test_depth2_odd_zeta41():
    # zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    assert depth2_odd(z(4, 1)) == lc((2, [z(5)]), (-1, [z(2), z(3)]))


def test_depth2_odd_matches_zeta_ones():
    for q in (2, 4, 6, 8):
        assert depth2_odd(z(q, 1)) == zeta_ones(q - 1, 1), q


def test_depth2_odd_not_applicable():
    assert depth2_odd(z(3, 3)) is None
    assert depth2_odd(z(2, 2)) is None
    assert depth2_odd(z(4, 1, 2)) is None


def test_repeated_unsigned_displays():
    for r in (2, 3, 4):
        assert zeta_repeated(r, 2) == lc(
            ("1/2", [z(r), z(r)]), ("-1/2", [z(2 * r)])
        )
        assert zeta_repeated(r, 3) == lc(
            ("1/6", [z(r)] * 3), ("-1/2", [z(r), z(2 * r)]), ("1/3", [z(3 * r)])
        )
        assert zeta_repeated(r, 4) == lc(
            ("1/24", [z(r)] * 4),
            ("-1/4", [z(r), z(r), z(2 * r)]),
            ("1/3", [z(r), z(3 * r)]),
            ("1/8", [z(2 * r), z(2 * r)]),
            ("-1/4", [z(4 * r)]),
        )


def test_repeated_bar_displays():
    for r in (1, 2, 3):
        assert zeta_repeated_bar(r, 2) == lc(
            ("-1/2", [z(2 * r)]), ("1/2", [z(-r), z(-r)])
        )
        assert zeta_repeated_bar(r, 3) == lc(
            ("1/3", [z(-3 * r)]),
            ("-1/2", [z(-r), z(2 * r)]),
            ("1/6", [z(-r)] * 3),
        )
        assert zeta_repeated_bar(r, 4) == lc(
            ("-1/4", [z(4 * r)]),
            ("1/3", [z(-r), z(-3 * r)]),
            ("1/8", [z(2 * r), z(2 * r)]),
            ("-1/4", [z(2 * r), z(-r), z(-r)]),
            ("1/24", [z(-r)] * 4),
        )


# -- symmetric-sum identities -------------------------------------------------------


def test_reflection_pair_from_engine_agreement():
    # t2 minus t1 on a linear sum recovers the reflection identity exactly
    for p, q in [(2, 3), (4, 2), (3, 3)]:
        idx = make_index([p], q)
        delta = expand_t2(idx) - expand_t1(idx)
        expect = reflection_pair_sum(p, q) - lc((1, [z(p, q)]), (1, [z(q, p)]))
        assert delta == expect, (p, q)


def test_reflection_pair_alternating():
    # zeta(a bar, b) + zeta(b, a bar) = zeta(a bar) zeta(b) - zeta((a+b) bar)
    got = reflection_pair_sum(-3, 6)
    assert got == lc((1, [z(-3), z(6)]), (-1, [z(-9)]))


def test_reflection_triple_form():
    got = reflection_triple_sum(2, 3, 4)
    assert got == lc(
        (1, [z(2), z(3), z(4)]),
        (2, [z(9)]),
        (-1, [z(2), z(7)]),
        (-1, [z(3), z(6)]),
        (-1, [z(4), z(5)]),
    )


def test_symmetric_triple_is_exact_pair():
    # with the Euler sums expanded, the identity returns exactly the pair sum
    for i, j, k in [(1, 2, 9), (1, 1, 3), (2, 3, 4), (2, 2, 2)]:
        got = symmetric_triple_sum(i, j, k)
        expect = lc((1, [z(k, i, j)]), (1, [z(k, j, i)]))
        assert got == expect, (i, j, k)


def test_triple_pass_distinct_orderings():
    # the rewrite engine sums each distinct ordering once: a repeated slot
    # halves the six-permutation identity
    for slots, g in [((2, 3, 4), 1), ((2, 2, 3), 2)]:
        orderings = set(itertools.permutations(slots))
        lhs = sum((LinComb.of_atom(z(*o)) for o in orderings), LinComb.zero())
        got = reduce_lincomb(lhs)
        assert got.value == reflection_triple_sum(*slots).scale(Fraction(1, g))
        assert [t.split(":")[0] for t in got.trace] == ["reflection_triple"]


def test_cubic_ones_rewrite_via_triple():
    # S_{1^3,q} = 3 S_{12,q} - 2 S_{3,q} + 6 zeta(q,{1}_3) + 6 zeta(q+1,1,1)
    for q in (3, 9):
        lhs = expand_t1(make_index([1, 1, 1], q))
        rhs = (
            expand_t1(make_index([1, 2], q)).scale(3)
            - expand_t1(make_index([3], q)).scale(2)
            + lc((6, [z(q, 1, 1, 1)]), (6, [z(q + 1, 1, 1)]))
        )
        assert lhs == rhs, q


# -- the rewrite engine ----------------------------------------------------------------


def test_reduce_quadratic_repeated():
    # S_{r^2,r} -> 1/3 zeta^3(r) + 2/3 zeta(3r) + zeta(2r,r) for even weight
    got = reduce_lincomb(expand_t1(make_index([2, 2], 2)))
    assert got.value == lc(
        ("1/3", [z(2)] * 3), ("2/3", [z(6)]), (1, [z(4, 2)])
    )
    assert got.trace


def test_reduce_all_bar_cubics():
    got = reduce_lincomb(expand_t1(parse_index("S(-1,-1,-1)")))
    assert got.value == CLOSED_S11_1_ALL_BAR
    got = reduce_lincomb(expand_t1(parse_index("S(-3,-3,-3)")))
    assert got.value == CLOSED_S33_3_ALL_BAR


def _odd_weight_linear_closed_form(p: int, q: int) -> LinComb:
    # the odd-weight closed form of S_{p,q} over zeta products, with any
    # unsigned zeta(1) read as zero
    w = p + q
    assert w % 2 == 1
    acc = LinComb.zero()
    if p % 2 == 1:
        acc = acc + lc((1, [z(p), z(q)])) if p > 1 else acc
    coeff = Fraction(1, 2) * (1 - (-1) ** p * (math.comb(w - 1, q) + math.comb(w - 1, p)))
    acc = acc + lc((coeff, [z(w)]))
    for k in range(1, (w - 1) // 2 + 1):
        c = (-1) ** p * (math.comb(w - 2 * k - 1, p - 1) + math.comb(w - 2 * k - 1, q - 1))
        if w - 2 * k == 1:
            continue
        acc = acc + lc((c, [z(2 * k), z(w - 2 * k)]))
    return acc


def test_reduce_linear_odd_weight_matches_closed_form():
    for p, q in [(8, 9), (2, 3), (1, 2), (6, 5), (3, 8)]:
        got = reduce_lincomb(expand_t1(make_index([p], q))).value
        assert got == _odd_weight_linear_closed_form(p, q), (p, q)


def test_reduce_even_weight_leaves_basis_atom():
    got = reduce_lincomb(expand_t1(make_index([2], 6))).value
    assert got.coeff(SymbolicTerm.of(z(6, 2))) == 1  # irreducible here


def test_reduce_weight_homogeneous():
    for text in ["S(1,1,-3)", "S(2,2,2)", "S(-1,2,4)"]:
        idx = parse_index(text)
        out = reduce_lincomb(expand_t1(idx)).value
        assert out.weights() == {idx.weight}


def test_reduce_idempotent():
    rng = random.Random(8)
    for text in ["S(2,2,2)", "S(1,1,-3)", "S(-2,-2,3)", "S(3,5)"]:
        once = reduce_lincomb(expand_t1(parse_index(text))).value
        twice = reduce_lincomb(once)
        assert twice.value == once
        assert not twice.trace


def test_reduce_rule_order_independent_fixpoint():
    rules = default_rules()
    reordered = rules[::-1]
    for text in ["S(2,2,2)", "S(1,1,-3)", "S(8,9)", "S(-1,-1,-1)"]:
        a = reduce_lincomb(expand_t1(parse_index(text)), rules=rules).value
        b = reduce_lincomb(expand_t1(parse_index(text)), rules=reordered).value
        assert a == b, text


def test_trace_records_rule_names():
    got = reduce_lincomb(expand_t1(parse_index("S(8,9)")))
    assert any("depth2_odd" in t for t in got.trace)


# -- identity tables --------------------------------------------------------------------


def test_table_accepts_and_rejects(tmp_path):
    path = tmp_path / "t.jsonl"
    lines = [
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}',
        '{"lhs": "z(4,1)", "rhs": [{"factors": ["z(5)"], "coeff": "2"}, '
        '{"factors": ["z(2)", "z(3)"], "coeff": "-1"}], "weight": 5}',
        # wrong value: rejected only under verification
        '{"lhs": "z(3,1)", "rhs": [{"factors": ["z(4)"], "coeff": "2"}], "weight": 4}',
        # weight-inhomogeneous: always rejected
        '{"lhs": "z(5,1)", "rhs": [{"factors": ["z(4)"], "coeff": "1"}], "weight": 6}',
        "not json at all",
    ]
    path.write_text("\n".join(lines) + "\n")
    table = load_identity_table(str(path))
    assert len(table) == 3 and len(table.report) == 2
    table_v = load_identity_table(str(path), verify=True, tol=1e-8)
    assert len(table_v) == 2
    assert any("z(3,1)" in r for r in table_v.report)
    assert table_v.lookup(z(2, 1)) == lc((1, [z(3)]))
    assert table_v.lookup(z(9, 9)) is None


def test_empty_table_is_valid():
    table = load_identity_table(io.StringIO(""))
    assert len(table) == 0
    out = reduce_lincomb(expand_t1(parse_index("S(8,9)")), tables=[table])
    assert out.value == _odd_weight_linear_closed_form(8, 9)


def test_missing_table_path_raises(tmp_path):
    # a path is never reinterpreted as inline table text
    with pytest.raises(OSError):
        load_identity_table(str(tmp_path / "missing.jsonl"))


def test_table_preempts_rules():
    table = IdentityTable("test")
    table.add(z(2, 1), lc((1, [z(3)])))
    out = reduce_lincomb(LinComb.of_atom(z(2, 1)), tables=[table])
    assert out.value == lc((1, [z(3)]))
    assert out.trace[0].startswith("table[test]")


def test_starter_table_roundtrip(tmp_path):
    table = build_starter_table(8)
    assert len(table) > 40
    path = tmp_path / "starter.jsonl"
    save_table(table, path)
    again = load_identity_table(str(path))
    assert not again.report
    assert again.entries.keys() == table.entries.keys()
    assert all(again.entries[k] == table.entries[k] for k in table.entries)


def test_bundled_table_matches_generator():
    import importlib.resources as res

    bundled = load_identity_table(
        str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
    )
    fresh = build_starter_table(12)
    assert bundled.entries.keys() == fresh.entries.keys()
    assert all(bundled.entries[k] == fresh.entries[k] for k in fresh.entries)


def test_reduce_full_catalog_terminates():
    # every non-alternating sum of weight <= 8 reduces to a weight-homogeneous
    # fixpoint without tripping the step cap
    def partitions(total):
        def rec(remaining, lo):
            if remaining == 0:
                yield ()
                return
            for first in range(lo, remaining + 1):
                for rest in rec(remaining - first, first):
                    yield (first,) + rest
        return rec(total, 1)

    count = 0
    for w in range(3, 9):
        for p in range(1, w - 1):
            q = w - p
            if q < 2:
                continue
            for part in partitions(p):
                idx = make_index(list(part), q)
                out = reduce_lincomb(expand_t1(idx))
                assert out.value.weights() in ({w}, set())
                count += 1
    assert count == 68  # 1 + 3 + 6 + 11 + 18 + 29


def test_reduce_pipeline_numerically_sound():
    # the composed pipeline (expansion, then reduction with the starter
    # table) must agree numerically with the defining series
    from eulersums.numerics import eval_euler_sum_best, eval_lincomb_best

    table = build_starter_table(9)
    for text in ["S(2,5)", "S(1,1,5)", "S(-2,3)", "S(1,-1,-2)", "S(2,2,3)", "S(-1,-1,-1)"]:
        idx = parse_index(text)
        reduced = reduce_lincomb(expand_t1(idx), tables=[table]).value
        a = eval_euler_sum_best(idx, 1e-8, n_cap=10**6)
        b = eval_lincomb_best(reduced, 1e-9, n_cap=10**6)
        diff = abs(float(a.value) - float(b.value))
        assert diff <= a.tail_bound + b.tail_bound + 1e-8, (text, diff)


def test_table_driven_full_reduction_weight5(tmp_path):
    # Back-solve the one missing deep atom from the published closed form of
    # S_{1^2,3bar}, ingest it as a user table, and check the reduction then
    # reproduces the closed form exactly.
    idx = parse_index("S(1,1,-3)")
    closed = CLOSED_WEIGHT5["S(1,1,-3)"]
    expansion = expand_t1(idx)
    target = z(-3, 1, 1)
    coeff = expansion.coeff(SymbolicTerm.of(target))
    assert coeff == -2
    rest = expansion - LinComb.of_atom(target, coeff)
    solved = (closed - reduce_lincomb(rest).value).scale(Fraction(1, coeff))
    table = IdentityTable("backsolved")
    table.add(target, solved)
    path = tmp_path / "w5.jsonl"
    save_table(table, path)
    loaded = load_identity_table(str(path), verify=True, tol=1e-7)
    assert not loaded.report
    out = reduce_lincomb(expansion, tables=[loaded]).value
    assert out == closed
