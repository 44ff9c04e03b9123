import collections
import hashlib
import heapq
import io
import itertools
import json
import math
import os
import random
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eulersums import algebra, clear_caches, reduction
from eulersums.algebra import LinComb, MzvAtom, SymbolicTerm, li_half, parse_atom, z
from eulersums.expansion import expand_t1, expand_t2, linearize
from eulersums.indices import make_index, parse_index
from eulersums.reduction import (
    TRACE_CAP,
    IdentityTable,
    _term_without,
    alt_depth1,
    build_starter_table,
    default_rules,
    depth2_odd,
    load_identity_table,
    log_integral,
    reduce_lincomb,
    save_table,
    symmetric_sum,
    zeta_ones,
)

from fixtures_closed_forms import CLOSED_S11_1_ALL_BAR, CLOSED_S33_3_ALL_BAR, CLOSED_WEIGHT5, lc
from reference_oracles import (
    _reference_depth2_odd,
    _reference_pair_reflectable,
    _reference_triple_reflectable,
    convergent_indices,
    reference_rules,
)


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
    # zeta_ones checks its own range, ahead of the log integral
    with pytest.raises(ValueError, match=r"^need k >= 1, l >= 0, got \(0, 1\)$"):
        zeta_ones(0, 1)


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


def test_depth2_odd_refuses_past_the_step_cap(monkeypatch):
    # the closed form has up to w - 1 products, all made in one rewrite: past
    # the step cap it is refused before any is made; at the cap it is made
    with pytest.raises(reduction.StepCapError, match=r"^depth2_odd on z\(100001,2\) would emit "):
        depth2_odd(z(reduction.STEP_CAP + 1, 2))
    with pytest.raises(reduction.StepCapError):
        depth2_odd(z(10**15 + 1, 2))
    monkeypatch.setattr(reduction, "STEP_CAP", 20)
    assert depth2_odd(z(19, 2)).weights() == {21}
    with pytest.raises(reduction.StepCapError):
        depth2_odd(z(-21, 2))


def test_alt_depth1_refuses_past_the_step_cap(monkeypatch):
    # the coefficient 2^(1-w) - 1 has the denominator 2^(w-1): past the step
    # cap the rule refuses before the power is built; at the cap it is built
    (rewrite,) = [rewrite for name, rewrite in default_rules() if name == "alt_depth1"]
    cap = reduction.STEP_CAP
    assert rewrite(z(-(cap + 1))) == LinComb.of_atom(z(cap + 1), Fraction(1, 2**cap) - 1)
    with pytest.raises(reduction.StepCapError) as refused:
        rewrite(z(-(cap + 2)))
    assert str(refused.value) == (
        f"alt_depth1 on z({-(cap + 2)}) would make a coefficient over 2^{cap + 1}, above the step cap {cap}"
    )
    with pytest.raises(reduction.StepCapError, match=r"^alt_depth1 on z\(-1000000000000\) "):
        reduce_lincomb(LinComb({SymbolicTerm.of(z(3), z(-10**12)): 1}))
    monkeypatch.setattr(reduction, "STEP_CAP", 20)
    assert rewrite(z(-21)).weights() == {21}
    with pytest.raises(reduction.StepCapError):
        rewrite(z(-22))


def test_depth2_odd_matches_reference_kernel():
    # every admissible signed pair up to weight 33, past the reduce benchmark's
    # 32: slots of 1, barred or not, included; even weights give None on both
    # sides.  depth2_odd builds its atoms and products without the checks and
    # the sort of their constructors, so each must be the one they would build.
    seen = 0
    for w in range(2, 34):
        for s in range(1, w):
            for sg, tg in itertools.product((1, -1), repeat=2):
                if (s, sg) == (1, 1):
                    continue
                atom = z(sg * s, tg * (w - s))
                got = depth2_odd(atom)
                assert got == _reference_depth2_odd(atom), atom
                if got is not None:
                    assert all(type(c) is Fraction for _, c in got.items()), atom
                    for term in got._d:
                        if type(term) is not MzvAtom:
                            assert type(term) is SymbolicTerm and term == SymbolicTerm.of(*term), (atom, term)
                        for a in term.factors:
                            assert type(a) is MzvAtom and a == MzvAtom(args=a.args), (atom, a)
                    seen += 1
    assert seen == 1056
    for atom in (z(5), z(2, 2, 3), z(-3, 1, 1), li_half(5)):
        assert depth2_odd(atom) is None and _reference_depth2_odd(atom) is None, atom


def _signed_words(max_weight: int):
    """Every slot tuple of weight <= ``max_weight``, signs included, that is
    not led by an unsigned 1."""
    words = [()]
    for word in words:  # grows as it is walked, shortest words first
        room = max_weight - sum(map(abs, word))
        words += [word + (v,) for m in range(1, room + 1) for v in (m, -m)]
    return [w for w in words[1:] if w[0] != 1]


def _atom_rewrite(atom, rules):
    """``(rhs, rule name)`` for the first rule that rewrites ``atom``; None
    if none does: what a working sum notes for the atom as it enters."""
    return reduction._WorkingSum(LinComb.of_atom(atom), rules).memo[atom][0]


def test_rule_guards_match_reference():
    # the guards read each atom's slots once, by index; the reference reads them
    # through depth and args: the same hit or miss, rule name and rhs on every atom
    cap = reduction.LOG_INTEGRAL_CAP
    atoms = [MzvAtom(args=w) for w in _signed_words(8)]
    assert len(atoms) == 4373 and z(-1) in atoms
    atoms += [li_half(q) for q in range(1, 9)]
    # z(k+1,{1}_l) at k + l = cap and one past it, for the k at both ends, whose
    # log integrals are quick to build (a middle k takes seconds)
    atoms += [z(k + 1, *[1] * (n - k)) for n in (cap, cap + 1) for k in (1, 2, n - 2, n - 1)]
    rules, reference = default_rules(), reference_rules()
    hits = collections.Counter()
    for atom in atoms:
        for (name, rewrite), (ref_name, ref_rewrite) in zip(rules, reference):
            assert name == ref_name
            assert rewrite(atom) == ref_rewrite(atom), (name, atom)
        got = _atom_rewrite(atom, rules)
        assert got == _atom_rewrite(atom, reference), atom
        hits[got[1] if got else None] += 1
        assert reduction._pair_reflectable(atom) == _reference_pair_reflectable(atom), atom
        assert reduction._triple_reflectable(atom) == _reference_triple_reflectable(atom), atom
    # every rule fires, the log integral at the cap and not one past it
    assert set(hits) == {None, "alt_depth1", "repeated", "zeta_ones", "depth2_odd"}
    assert _atom_rewrite(z(cap + 1, 1), rules) is None
    assert _atom_rewrite(z(cap, 1), rules)[1] == "zeta_ones"
    assert _atom_rewrite(z(2, *[1] * cap), rules) is None
    assert _atom_rewrite(z(2, *[1] * (cap - 1)), rules)[1] == "zeta_ones"


def test_repeated_unsigned_displays():
    for r in (2, 3, 4):
        assert symmetric_sum((r,) * 2).scale(Fraction(1, 2)) == lc(
            ("1/2", [z(r), z(r)]), ("-1/2", [z(2 * r)])
        )
        assert symmetric_sum((r,) * 3).scale(Fraction(1, 6)) == lc(
            ("1/6", [z(r)] * 3), ("-1/2", [z(r), z(2 * r)]), ("1/3", [z(3 * r)])
        )
        assert symmetric_sum((r,) * 4).scale(Fraction(1, 24)) == lc(
            ("1/24", [z(r)] * 4),
            ("-1/4", [z(r), z(r), z(2 * r)]),
            ("1/3", [z(r), z(3 * r)]),
            ("1/8", [z(2 * r), z(2 * r)]),
            ("-1/4", [z(4 * r)]),
        )


def test_repeated_bar_displays():
    for r in (1, 2, 3):
        assert symmetric_sum((-r,) * 2).scale(Fraction(1, 2)) == lc(
            ("-1/2", [z(2 * r)]), ("1/2", [z(-r), z(-r)])
        )
        assert symmetric_sum((-r,) * 3).scale(Fraction(1, 6)) == lc(
            ("1/3", [z(-3 * r)]),
            ("-1/2", [z(-r), z(2 * r)]),
            ("1/6", [z(-r)] * 3),
        )
        assert symmetric_sum((-r,) * 4).scale(Fraction(1, 24)) == lc(
            ("-1/4", [z(4 * r)]),
            ("1/3", [z(-r), z(-3 * r)]),
            ("1/8", [z(2 * r), z(2 * r)]),
            ("-1/4", [z(2 * r), z(-r), z(-r)]),
            ("1/24", [z(-r)] * 4),
        )


# -- symmetric-sum identities -------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([-1, *range(2, 7), *range(-6, -1)]), max_size=5))
def test_symmetric_sum_is_sum_of_orderings(slots):
    # exact: the stuffle-linearized closed form is the sum over all k!
    # orderings, repeated orderings counted each time
    orderings = collections.Counter(itertools.permutations(slots))
    expect = LinComb({(MzvAtom(o) if o else algebra.UNIT_TERM): c for o, c in orderings.items()})
    assert linearize(symmetric_sum(tuple(sorted(slots)))) == expect
    assert symmetric_sum(tuple(slots)) == symmetric_sum(tuple(sorted(slots)))


def test_symmetric_sum_rejects_unsigned_one():
    with pytest.raises(ValueError, match="divergent"):
        symmetric_sum((1, 2))


def test_reflection_pair_from_engine_agreement():
    # t2 minus t1 on a linear sum recovers the reflection identity exactly
    for p, q in [(2, 3), (4, 2), (3, 3)]:
        idx = make_index([p], q)
        delta = expand_t2(idx) - expand_t1(idx)
        expect = symmetric_sum(tuple(sorted((p, q)))) - lc((1, [z(p, q)]), (1, [z(q, p)]))
        assert delta == expect, (p, q)


def test_reflection_pair_alternating():
    # zeta(a bar, b) + zeta(b, a bar) = zeta(a bar) zeta(b) - zeta((a+b) bar)
    got = symmetric_sum((-3, 6))
    assert got == lc((1, [z(-3), z(6)]), (-1, [z(-9)]))


def test_reflection_triple_form():
    got = symmetric_sum((2, 3, 4))
    assert got == lc(
        (1, [z(2), z(3), z(4)]),
        (2, [z(9)]),
        (-1, [z(2), z(7)]),
        (-1, [z(3), z(6)]),
        (-1, [z(4), z(5)]),
    )


def test_triple_pass_distinct_orderings():
    # the rewrite engine sums each distinct ordering once: a repeated slot
    # halves the six-permutation identity
    for slots, g in [((2, 3, 4), 1), ((2, 2, 3), 2)]:
        orderings = set(itertools.permutations(slots))
        lhs = sum((LinComb.of_atom(z(*o)) for o in orderings), LinComb())
        got = reduce_lincomb(lhs)
        assert got.value == symmetric_sum(slots).scale(Fraction(1, g))
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
    acc = LinComb()
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
    assert table_v.entries.get(z(2, 1)) == lc((1, [z(3)]))
    assert table_v.entries.get(z(9, 9)) is None


def test_table_rejects_repeated_lhs():
    # every repeat of an lhs is rejected on its own line; the first stands
    text = "\n".join([
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}',
        '{"lhs": "z(3,1)", "rhs": [{"factors": ["z(4)"], "coeff": "1/4"}], "weight": 4}',
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}',
        '{"lhs": "z( 2, 1 )", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}',
    ])
    for verify in (False, True):
        table = load_identity_table(io.StringIO(text), verify=verify, label="dup")
        assert table.entries.get(z(2, 1)) == LinComb.of_atom(z(3))
        assert len(table) == 2
        assert table.report == [
            "dup:3: rejected: duplicate lhs z(2,1) (first on line 1)",
            "dup:4: rejected: duplicate lhs z(2,1) (first on line 1)",
        ]


def test_table_rejects_bool_coeff_and_non_integer_weight():
    # each bad line is rejected on its own line, a weight that is not the
    # atom's and an entry on its own right side too; the good ones stand
    text = "\n".join([
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": true}], "weight": 3}',
        '{"lhs": "z(-1)", "rhs": [], "weight": true}',
        '{"lhs": "z(4,1)", "rhs": [{"factors": ["z(5)"], "coeff": "2"}], "weight": 5.0}',
        '{"lhs": "z(3,1)", "rhs": [{"factors": ["z(4)"], "coeff": "1/4"}], "weight": 5}',
        '{"lhs": "z(3,2)", "rhs": [{"factors": ["z(3,2)"], "coeff": "2"}], "weight": 5}',
        '{"lhs": "z(2,2)", "rhs": [{"factors": ["z(4)"], "coeff": "3/4"}], "weight": 4}',
    ])
    table = load_identity_table(io.StringIO(text), label="t")
    assert list(table.entries) == [z(2, 2)]
    assert table.report == [
        "t:1: rejected: cannot interpret True as an exact rational",
        "t:2: rejected: declared weight true is not an integer",
        "t:3: rejected: declared weight 5.0 is not an integer",
        "t:4: rejected: declared weight 5 != atom weight 4",
        "t:5: rejected: self-referential entry z(3,2)",
    ]


def test_table_rejects_malformed_rhs_with_the_shape_message():
    # a string of factors, an rhs that is one term rather than a list, and a
    # term without a coefficient are each rejected with the term-list shape
    text = "\n".join([
        '{"lhs": "z(2,1)", "rhs": [{"factors": "z(3)", "coeff": "1"}], "weight": 3}',
        '{"lhs": "z(3,1)", "rhs": {"factors": ["z(4)"], "coeff": "1/4"}, "weight": 4}',
        '{"lhs": "z(2,2)", "rhs": [{"factors": ["z(4)"]}], "weight": 4}',
        '{"lhs": "z(2,1,1)", "rhs": [{"factors": ["z(4)"], "coeff": "1"}], "weight": 4}',
    ])
    table = load_identity_table(io.StringIO(text), label="t")
    assert list(table.entries) == [z(2, 1, 1)]
    shape = 'expected terms [{"factors": [ATOM, ...], "coeff": RATIONAL}, ...]'
    assert table.report == [f"t:{i}: rejected: {shape}" for i in (1, 2, 3)]


def test_empty_table_is_valid():
    table = load_identity_table(io.StringIO(""))
    assert len(table) == 0
    out = reduce_lincomb(expand_t1(parse_index("S(8,9)")), tables=[table])
    assert out.value == _odd_weight_linear_closed_form(8, 9)


def test_missing_table_path_raises(tmp_path):
    # a path is never reinterpreted as inline table text
    with pytest.raises(OSError):
        load_identity_table(str(tmp_path / "missing.jsonl"))


def _count_atom_parses(monkeypatch) -> list:
    calls = []
    original = parse_atom

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(reduction, "parse_atom", counting)
    monkeypatch.setattr(algebra, "parse_atom", counting)
    return calls


def test_table_memo_second_load_parses_nothing(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    save_table(build_starter_table(5), path)
    calls = _count_atom_parses(monkeypatch)
    first = load_identity_table(str(path))
    parsed = len(calls)
    assert parsed > 0
    second = load_identity_table(str(path))
    assert len(calls) == parsed
    assert second is not first and second.entries is not first.entries
    assert second.entries == first.entries and second.max_weight == first.max_weight
    clear_caches()
    load_identity_table(str(path))
    assert len(calls) == 2 * parsed


def test_table_memo_sees_same_size_edit_with_same_mtime(tmp_path):
    path = tmp_path / "t.jsonl"
    entry = '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "%s"}], "weight": 3}\n'
    path.write_text(entry % "1")
    before = path.stat()
    assert load_identity_table(str(path)).entries.get(z(2, 1)) == lc((1, [z(3)]))
    path.write_text(entry % "2")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_identity_table(str(path)).entries.get(z(2, 1)) == lc((2, [z(3)]))


def test_table_memo_not_changed_by_caller(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}\n')
    table = load_identity_table(str(path))
    table.add(z(3, 1), lc((Fraction(1, 4), [z(4)])))
    table.report.append("caller's note")
    again = load_identity_table(str(path))
    assert list(again.entries) == [z(2, 1)] and again.max_weight == 3
    assert again.report == []


def test_table_memo_reports_name_each_source(tmp_path):
    text = (
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}\n'
        "# a comment\n"
        "\n"
        "not json at all\n"
    )
    message = "4: rejected: Expecting value: line 1 column 1 (char 0)"
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        path.write_text(text)
        table = load_identity_table(str(path))
        assert len(table) == 1 and table.report == [f"{path}:{message}"]
    assert load_identity_table(io.StringIO(text)).report == [f"stream:{message}"]
    labelled = load_identity_table(str(paths[0]), label="mine")
    assert labelled.label == "mine" and labelled.report == [f"mine:{message}"]


def test_table_memo_keeps_verify_apart(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"lhs": "z(3,1)", "rhs": [{"factors": ["z(4)"], "coeff": "2"}], "weight": 4}\n')
    assert len(load_identity_table(str(path))) == 1
    checked = load_identity_table(str(path), verify=True, tol=1e-8)
    assert len(checked) == 0
    assert len(checked.report) == 1 and "numeric mismatch for z(3,1)" in checked.report[0]
    assert len(load_identity_table(str(path))) == 1


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


def test_bundled_table_regenerates_byte_for_byte(tmp_path):
    # entry order and JSON layout are part of the shipped file, not only its entries
    import importlib.resources as res

    path = tmp_path / "starter.jsonl"
    save_table(build_starter_table(12), path)
    shipped = res.files("eulersums").joinpath("tables/starter_weight12.jsonl").read_bytes()
    assert path.read_bytes() == shipped


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
    from eulersums.numerics import agree, eval_euler_sum_best, eval_lincomb_best

    table = build_starter_table(9)
    for text in ["S(2,5)", "S(1,1,5)", "S(-2,3)", "S(1,-1,-2)", "S(2,2,3)", "S(-1,-1,-1)"]:
        idx = parse_index(text)
        reduced = reduce_lincomb(expand_t1(idx), tables=[table]).value
        a = eval_euler_sum_best(idx, 1e-8)
        b = eval_lincomb_best(reduced, 1e-9)
        ok, diff, budget = agree(a, b, 0)
        assert ok, (text, float(diff), float(budget))


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


# -- the rewrite engine against the loop it replaced ----------------------------------
#
# ``_reference_reduce`` is the engine as it was before the heap of terms that
# can rewrite: every step re-sorts the whole combination and rebuilds it
# immutably, and by default it matches atoms with ``reference_rules()``, the
# rule guards as they read slots through properties.  The heap engine must
# take exactly the same steps, so value, step count and trace are compared
# with zero tolerance.


def _ref_substitute(lc: LinComb, term: SymbolicTerm, atom: MzvAtom, replacement: LinComb) -> LinComb:
    """Replace one occurrence of ``atom`` inside ``term`` by ``replacement``."""
    assert replacement.weights() in ({atom.weight}, set()), (
        f"weight leak rewriting {atom}: {sorted(replacement.weights())} != {atom.weight}"
    )
    c = lc.coeff(term)
    rest = LinComb({_term_without(term, atom): c})
    return lc - LinComb({term: c}) + rest * replacement


def _ref_swap_partner(atom: MzvAtom) -> MzvAtom | None:
    a, b = atom.args
    if a == b or b == 1:
        return None
    return MzvAtom(args=(b, a))


def _ref_pair_pass(lc: LinComb, trace: list[str]) -> LinComb | None:
    """One application of the two-slot reflection across matching cofactors."""
    seen: dict[tuple, Fraction] = {}
    for term, c in lc.items():
        for atom in term.factors:
            if atom.li or atom.depth != 2:
                continue
            seen[(_term_without(term, atom).term_key(), atom)] = c
    for term, c in lc.items():
        for atom in sorted(set(term.factors)):
            if atom.li or atom.depth != 2:
                continue
            partner = _ref_swap_partner(atom)
            if partner is None or partner <= atom:
                continue
            rest = _term_without(term, atom)
            pc = seen.get((rest.term_key(), partner))
            if pc is None or pc == 0:
                continue
            # c1*A + c2*B -> c1*(pair sum) + (c2 - c1)*B: eliminate the
            # ascending-slot atom, keeping the descending-slot basis form.
            t_amt = lc.coeff(rest.mul(SymbolicTerm.of(atom)))
            rhs = symmetric_sum(tuple(sorted(atom.args)))
            partner_term = rest.mul(SymbolicTerm.of(partner))
            out = (
                lc
                - LinComb({partner_term: t_amt})
                - LinComb({rest.mul(SymbolicTerm.of(atom)): t_amt})
                + LinComb({rest: t_amt}) * rhs
            )
            if len(trace) < TRACE_CAP:
                trace.append(
                    f"reflection_pair: {atom.render()} + {partner.render()}"
                    + (f" (cofactor {rest.render()})" if not rest.is_unit() else "")
                )
            return out
    return None


def _ref_triple_pass(lc: LinComb, trace: list[str]) -> LinComb | None:
    """One application of the three-slot reflection (unsigned slots >= 2)."""
    by_cofactor: dict[tuple, dict[MzvAtom, Fraction]] = {}
    for term, c in lc.items():
        for atom in term.factors:
            if atom.li or atom.depth != 3 or any(t < 2 for t in atom.args):
                continue
            key = _term_without(term, atom).term_key()
            by_cofactor.setdefault(key, {})[atom] = c
    for term, c in lc.items():
        for atom in sorted(set(term.factors)):
            if atom.li or atom.depth != 3 or any(t < 2 for t in atom.args):
                continue
            slots = atom.args
            if len(set(slots)) == 1:
                continue  # fully repeated: the repeated-slot rule covers it
            rest = _term_without(term, atom)
            group = by_cofactor.get(rest.term_key(), {})
            orderings = [MzvAtom(args=o) for o in sorted(set(itertools.permutations(slots)))]
            if any(group.get(o, Fraction(0)) == 0 for o in orderings):
                continue
            last = max(orderings)
            t_amt = group[last]
            # The identity sums all six permutations; each distinct ordering
            # is 6 / len(orderings) of them.
            rhs = symmetric_sum(tuple(sorted(slots))).scale(Fraction(len(orderings), 6))
            out = lc
            for o in orderings:
                out = out - LinComb({rest.mul(SymbolicTerm.of(o)): t_amt})
            out = out + LinComb({rest: t_amt}) * rhs
            if len(trace) < TRACE_CAP:
                trace.append(
                    f"reflection_triple: orderings of {atom.render()} eliminated via {last.render()}"
                )
            return out
    return None


def _reference_reduce(lc, tables=(), rules=None, max_steps=reduction.STEP_CAP):
    if rules is None:
        rules = reference_rules()
    tables = list(tables)
    trace: list[str] = []
    steps = 0
    current = lc
    while steps < max_steps:
        progressed = False
        # Atom-level rewrites, tables first.
        for term, _c in current.items():
            hit = None
            for atom in sorted(set(term.factors)):
                for table in tables:
                    rhs = table.entries.get(atom)
                    if rhs is not None:
                        hit = (atom, rhs, f"table[{table.label}]")
                        break
                if hit:
                    break
                for name, rewrite in rules:
                    rhs = rewrite(atom)
                    if rhs is not None:
                        hit = (atom, rhs, name)
                        break
                if hit:
                    break
            if hit:
                atom, rhs, name = hit
                current = _ref_substitute(current, term, atom, rhs)
                if len(trace) < TRACE_CAP:
                    trace.append(f"{name}: {atom.render()}")
                steps += 1
                progressed = True
                break
        if progressed:
            continue
        out = _ref_pair_pass(current, trace)
        if out is not None:
            current = out
            steps += 1
            continue
        out = _ref_triple_pass(current, trace)
        if out is not None:
            current = out
            steps += 1
            continue
        break
    else:
        raise reduction.StepCapError(f"reduction did not reach a fixpoint within {max_steps} steps")
    return types.SimpleNamespace(value=current, trace=trace, steps=steps)


@pytest.fixture(scope="module")
def starter12():
    return build_starter_table(12)


ENGINE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
signed_slots = st.integers(-4, 4).filter(bool)


@st.composite
def signed_atoms(draw, depth):
    args = draw(st.lists(signed_slots, min_size=depth, max_size=depth))
    if args[0] == 1:
        args[0] = 2  # an unsigned leading 1 diverges
    return MzvAtom(args=tuple(args))


@st.composite
def atom_families(draw):
    """One signed atom of depth 1-3, its swap pair, or every ordering of three
    unsigned slots, all under one cofactor (possibly the unit)."""
    kind = draw(st.sampled_from(["single", "pair", "orderings"]))
    if kind == "single":
        family = [draw(signed_atoms(draw(st.integers(1, 3))))]
    elif kind == "pair":
        a, b = draw(signed_atoms(2)).args
        family = [z(a, b)] + ([z(b, a)] if b != 1 else [])
    else:
        slots = draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))
        family = [MzvAtom(args=o) for o in sorted(set(itertools.permutations(slots)))]
    cofactor = draw(
        st.lists(st.one_of(signed_atoms(1), signed_atoms(2), st.just(li_half(4))), max_size=2)
    )
    return [(SymbolicTerm.of(*cofactor, atom), draw(coefficients)) for atom in family]


small_lincombs = st.lists(atom_families(), min_size=1, max_size=5).map(
    lambda families: sum(
        (LinComb({t: c}) for family in families for t, c in family), LinComb()
    )
)


def _outcome(engine, lc, tables, max_steps=500):
    try:
        r = engine(lc, tables=tables, max_steps=max_steps)
    except (RuntimeError, ValueError, AssertionError) as e:
        return type(e).__name__, str(e)
    return r.value, r.steps, r.trace


@ENGINE_SETTINGS
@given(small_lincombs, st.booleans())
def test_engine_matches_reference_loop(starter12, lc, use_table):
    tables = [starter12] if use_table else []
    assert _outcome(reduce_lincomb, lc, tables) == _outcome(_reference_reduce, lc, tables)


def test_engine_matches_reference_on_expansions(starter12):
    texts = ["S(2,2,3,3,2)", "S(-1,-1,-1)", "S(1,1,-3)", "S(3,3,3,3)", "S(2,-3,4)"]
    # two degree-5 expansions of the shape the reduce benchmark draws
    texts += ["S(8,-1,-3,-6,-7,3)", "S(2,8,-1,-4,-7,2)"]
    combinations = [expand_t1(parse_index(text)) for text in texts]
    # products whose first factor may not rewrite while a later one does
    combinations.append(expand_t2(parse_index("S(2,2,3,3,2)")))
    for lc in combinations:
        for tables in ([], [starter12]):
            assert _outcome(reduce_lincomb, lc, tables) == _outcome(_reference_reduce, lc, tables)


def test_engine_queues_only_rewritable_terms_and_matches_each_atom_once(starter12, monkeypatch):
    queued = []

    class RecordingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            queued.append(item[1])
            heapq.heappush(heap, item)

        @staticmethod
        def heapify(heap):
            queued.extend(item[1] for item in heap)
            heapq.heapify(heap)

    seen = collections.Counter()

    def counting(name, rewrite):
        def wrapped(atom):
            seen[name, atom] += 1
            return rewrite(atom)

        return wrapped

    class CountedEntries(dict):
        def get(self, atom):
            seen["table", atom] += 1
            return dict.get(self, atom)

    table = IdentityTable(starter12.label)
    table.entries = CountedEntries(starter12.entries)
    rules = [(name, counting(name, rewrite)) for name, rewrite in default_rules()]
    lc = expand_t1(parse_index("S(1,2,3,5,-8,3)"))
    monkeypatch.setattr(reduction, "heapq", RecordingHeapq)
    r = reduce_lincomb(lc, tables=[table], rules=rules)
    monkeypatch.undo()
    plain = reduce_lincomb(lc, tables=[starter12])
    assert (r.value, r.steps, r.trace) == (plain.value, plain.steps, plain.trace)

    matchers = [starter12.entries.get] + [rewrite for _name, rewrite in default_rules()]

    def rewritable(term):
        return any(match(a) is not None for a in term.factors for match in matchers)

    atom_steps = sum(not line.startswith("reflection") for line in r.trace)
    assert len(r.trace) == r.steps
    # each atom step pops one queued term; every queued term holds an atom that rewrites
    assert atom_steps <= len(queued) < len(lc)
    assert all(rewritable(term) for term in queued)
    # every distinct atom reaches each rule at most once in the call
    assert seen and max(seen.values()) == 1


def test_leaking_rule_fails_loudly():
    leak = ("leak", lambda a: LinComb.of_atom(z(2)) if a == z(2, 3) else None)
    product = SymbolicTerm.of(z(-1), z(2, 3))
    assert product.factors[1] == z(2, 3)
    for term in (z(2, 3), product):
        with pytest.raises(AssertionError, match=r"weight leak rewriting z\(2,3\)"):
            reduce_lincomb(LinComb({term: 1}), rules=[leak])


# Combinations whose reflection candidates change only through atom rewrites:
#   * z(-3) and z(-2) rewrite to z(3) and z(2), so every term the passes
#     eliminate is created by a rewrite and must enter their index when it
#     is added;
#   * z(3)*z(2,4) is present from the start and becomes a candidate when the
#     rewrite of z(-3)*z(4,2) adds its partner;
#   * the table rewrites z(2,4) itself, so a pass must not see it once it is
#     gone, although its partner z(4,2) stays.
Z24 = LinComb.of_atom(z(6), Fraction(25, 12)) - LinComb({SymbolicTerm.of(z(3), z(3)): 1})
ORDERINGS_234 = [MzvAtom(args=o) for o in itertools.permutations((2, 3, 4))]
REWRITE_THEN_REFLECT = [
    (lc((1, [z(-3), z(2, 4)]), (5, [z(-3), z(4, 2)])), False, {"reflection_pair"}),
    (lc(*[(k, [z(-2), a]) for k, a in enumerate(ORDERINGS_234, 1)]), False, {"reflection_triple"}),
    (lc((1, [z(3), z(2, 4)]), ("-4/3", [z(-3), z(4, 2)])), False, {"reflection_pair"}),
    (lc((1, [z(2, 4)]), (2, [z(4, 2)])), True, set()),
]


@pytest.mark.parametrize("combination,use_table,passes", REWRITE_THEN_REFLECT)
def test_reflection_candidates_after_rewrites(combination, use_table, passes):
    tables = []
    if use_table:
        tables = [IdentityTable("z24")]
        tables[0].add(z(2, 4), Z24)
    got = _outcome(reduce_lincomb, combination, tables)
    assert got == _outcome(_reference_reduce, combination, tables)
    assert {line.split(":")[0] for line in got[2]} & {"reflection_pair", "reflection_triple"} == passes


# (index, with the bundled starter table, steps, sha256 of [render, steps, trace])
# as the re-sorting engine produced them.
PINNED_REDUCTIONS = [
    ("S(1,2,3,5,-8,3)", True, 28, "9439b640df87c524a20d7bfab7744465171d26a0e786579cf64fc53ceddd0208"),
    ("S(-1,-2,-3,-4,-5,-3)", False, 25, "696650d4cb5d1c786b81f1b41a2873730ec978179442cfc26bde4aed400b4d69"),
    ("S(1,4,5,7,8,2)", False, 24, "4a8943c95751457124ce755b07d8946b47504c51da106707c08ae2ac6753441c"),
    ("S(2,3,4,5,3)", True, 15, "fb3e30f8c1eebbe1810afde0b3c1f6e4faf5e4eefcd651b3ba73ef693edf8f5d"),
    ("S(1,1,2,-3,4)", True, 10, "7e542fce16a45cae71d6d24f38338895e07636af31ccb6a3e27975372942885a"),
    ("S(2,2,3,3,2)", False, 6, "ac7a5d7014652b0be597327feeaba970dc01b9ae4a66a878d90c56688530e0ed"),
]


@pytest.mark.parametrize("text,use_table,steps,digest", PINNED_REDUCTIONS)
def test_reduction_pinned_digest(text, use_table, steps, digest):
    import importlib.resources as res

    tables = []
    if use_table:
        path = str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
        tables = [load_identity_table(path, label="starter")]
    r = reduce_lincomb(expand_t1(parse_index(text)), tables=tables)
    assert r.steps == steps
    got = hashlib.sha256(json.dumps([r.value.render(), r.steps, r.trace]).encode()).hexdigest()
    assert got == digest


# -- the step and trace caps --------------------------------------------------------------


def test_max_steps_raises_before_fixpoint():
    lc = expand_t1(parse_index("S(2,2,3,3,2)"))
    full = reduce_lincomb(lc)
    assert full.steps == 6
    for k in (0, 1, full.steps - 1):
        with pytest.raises(RuntimeError, match=f"within {k} steps"):
            reduce_lincomb(lc, max_steps=k)
    again = reduce_lincomb(lc, max_steps=full.steps + 1)
    assert (again.value, again.steps, again.trace) == (full.value, full.steps, full.trace)
    # the cap is checked before each step, as in the reference loop
    for k in range(full.steps + 2):
        assert _outcome(reduce_lincomb, lc, [], k) == _outcome(_reference_reduce, lc, [], k), k


def test_trace_never_exceeds_cap(monkeypatch):
    # atom rewrites, pair and triple reflections all append to one capped trace
    lc = expand_t1(parse_index("S(2,2,3,3,2)")) + LinComb.of_atom(z(-3))
    full = reduce_lincomb(lc)
    assert {t.split(":")[0] for t in full.trace} >= {"alt_depth1", "reflection_pair", "reflection_triple"}
    assert len(full.trace) == full.steps <= TRACE_CAP
    for cap in (0, 1, 4, full.steps - 1):
        monkeypatch.setattr(reduction, "TRACE_CAP", cap)
        capped = reduce_lincomb(lc)
        assert capped.steps == full.steps and capped.value == full.value
        assert capped.trace == full.trace[:cap]


# -- the step records ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def weight7_expansions():
    """The t1 expansion of every convergent index of weight <= 7."""
    return [expand_t1(idx) for idx in convergent_indices(7)]


def test_reduction_writes_no_text(starter12, weight7_expansions, monkeypatch):
    # a step is a record of atoms, terms and numbers; no text is written until
    # ``trace`` is read
    def no_text(self):
        raise AssertionError("text written during a reduction")

    monkeypatch.setattr(MzvAtom, "render", no_text)
    monkeypatch.setattr(SymbolicTerm, "render", no_text)
    steps = 0
    for expansion in weight7_expansions:
        for tables in ([], [starter12]):
            steps += reduce_lincomb(expansion, tables=tables).steps
    assert steps > 1000


def _replay(lc: LinComb, log) -> LinComb:
    """``lc`` plus c * rest * (rhs - lhs) for each record of ``log``; lhs is
    the record's atom, or the sum of a reflection's orderings."""
    for _rule, atom, rest, c, rhs, *orderings in log:
        lhs = sum(map(LinComb.of_atom, orderings[0] if orderings else [atom]), LinComb())
        lc = lc + LinComb({rest: c}) * (rhs - lhs)
    return lc


def test_replaying_the_records_gives_the_value(starter12, weight7_expansions):
    rules = set()
    for expansion in weight7_expansions:
        for tables in ([], [starter12]):
            r = reduce_lincomb(expansion, tables=tables)
            assert _replay(expansion, r.log) == r.value
            assert r.steps == len(r.log) and len(r.trace) == r.steps
            rules.update((record[0], len(record)) for record in r.log)
    assert {("reflection_pair", 6), ("reflection_triple", 6), ("alt_depth1", 5)} <= rules
    assert ("table[starter<=w12]", 5) in rules


# -- table save -> load ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_save_load_roundtrip_subsets(starter12, data):
    atoms = sorted(starter12.entries, key=MzvAtom.render)
    keys = data.draw(st.lists(st.sampled_from(atoms), unique=True))
    subset = IdentityTable("subset")
    for k in keys:
        subset.add(k, starter12.entries[k])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "subset.jsonl"
        save_table(subset, path)
        again = load_identity_table(str(path))
    assert not again.report
    assert again.entries == subset.entries
    assert again.max_weight == subset.max_weight
