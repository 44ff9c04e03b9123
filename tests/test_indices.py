import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from eulersums.indices import (
    ConvergenceError,
    EulerSumIndex,
    IndexParseError,
    make_index,
    parse_index,
    render_index,
)


def test_parse_examples():
    idx = parse_index("S(1,1,-3)")
    assert idx.inner == (1, 1) and idx.outer == -3
    idx = parse_index("2,1,5")
    assert idx.inner == (1, 2) and idx.outer == 5
    with pytest.raises(ConvergenceError):
        parse_index("S(1,1)")


def test_parse_errors_carry_position():
    with pytest.raises(IndexParseError):
        parse_index("")
    with pytest.raises(IndexParseError):
        parse_index("S(2,)")
    with pytest.raises(IndexParseError):
        parse_index("S(2,,3)")
    with pytest.raises(IndexParseError):
        parse_index("S(02,3)")  # leading zero not in the grammar
    with pytest.raises(IndexParseError):
        parse_index("S(2 3)")
    with pytest.raises(IndexParseError) as ei:
        parse_index("S(1,x)")
    assert ei.value.position >= 0
    with pytest.raises(ValueError):
        parse_index("S(0,3)")


@pytest.mark.parametrize("text, message", [
    ("S()", "empty list (at position 3)"),
    ("S( )", "empty list (at position 4)"),
    ("S(2,3) x", "unexpected trailing text 'x' (at position 7)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(IndexParseError) as ei:
        parse_index(text)
    assert str(ei.value) == message


@pytest.mark.parametrize("text, found", [("S", "S"), ("S ", "S "), ("s  ", "s  "), (" S\t", "S\t")])
def test_bare_s_is_a_parse_error(text, found):
    # an S with no parenthesis after it, at the end of the text, is read as
    # an entry and refused like any other non-integer
    with pytest.raises(IndexParseError) as ei:
        parse_index(text)
    assert str(ei.value).startswith(f"expected a nonzero integer, found {found!r}")


def test_convergence_rules():
    with pytest.raises(ConvergenceError):
        make_index([2], 1)
    make_index([2], -1)  # alternating outer 1 is conditionally convergent
    make_index([], 5)
    make_index([], -1)
    # a zero entry is refused, not dropped by the canonical order
    for inner, outer in (([0], 2), ([3, 0], 2), ([2], 0)):
        with pytest.raises(ValueError, match="^index entries must be nonzero$"):
            make_index(inner, outer)


def test_weight_degree():
    idx = make_index([1, 1, 2, 2, 2, 5], 2)
    assert idx.weight == 15 and idx.degree == 6
    assert make_index([3], 4).degree == 1
    idx = parse_index("S(1,1,-3)")
    assert idx.weight == 5 and idx.degree == 2
    assert make_index([], 5).degree == 0


def test_canonical_form_order_insensitive():
    rng = random.Random(42)
    entries = [3, 1, -2, 2, -1, 1, -2]
    ref = make_index(entries, 4)
    assert ref.inner == (1, 1, 2, 3, -1, -2, -2)
    for _ in range(30):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert make_index(shuffled, 4) == ref


def test_noncanonical_direct_construction_rejected():
    with pytest.raises(ValueError):
        EulerSumIndex((2, 1), 3)


def _signed(lo: int, hi: int):
    return st.tuples(st.integers(lo, hi), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_signed(1, 5), max_size=4), _signed(2, 6))
def test_render_roundtrip_random(inner, outer):
    idx = make_index(inner, outer)
    assert parse_index(render_index(idx, "plain")) == idx


def test_render_styles():
    assert render_index(parse_index("S(1,1,-3)"), "plain") == "S(1,1,-3)"
    assert render_index(make_index([2, 2, 2], 2), "latex") == r"S_{2^{3},2}"
    assert render_index(make_index([1, -1], 3), "latex") == r"S_{1\bar{1},3}"
    assert render_index(make_index([], 5), "plain") == "S(5)"
    assert render_index(make_index([], 5), "latex") == r"\zeta(5)"
    # power grouping with mixed alternation and an alternating outer
    assert (
        render_index(make_index([1, 1, -2, -2, -2, 5], -2), "latex")
        == r"S_{1^{2}5\bar{2}^{3},\bar{2}}"
    )
    for style in ("html", "json"):
        with pytest.raises(ValueError, match="^unknown style"):
            render_index(make_index([], 5), style)


def test_latex_parenthesizes_multi_digit_entries():
    # an unbarred inner entry of two or more digits is set apart; a barred one
    # is by its \bar{...}, and the outer by the comma
    assert render_index(parse_index("S(12,3)"), "latex") == r"S_{(12),3}"
    assert render_index(parse_index("S(1,2,3)"), "latex") == r"S_{12,3}"
    assert render_index(parse_index("S(1,12,3)"), "latex") == r"S_{1(12),3}"
    assert render_index(parse_index("S(12,12,3)"), "latex") == r"S_{(12)^{2},3}"
    assert render_index(parse_index("S(9,10,-10,-12)"), "latex") == r"S_{9(10)\bar{10},\bar{12}}"


def test_latex_renderings_are_distinct():
    # every index with inner magnitudes <= 13, degree <= 3 and |outer| <= 3 (outer 1 diverges)
    values = list(range(1, 14)) + list(range(-13, 0))
    inners = [()] + [c for d in (1, 2, 3) for c in itertools.combinations_with_replacement(values, d)]
    indices = {make_index(inner, outer) for inner in inners for outer in (-3, -2, -1, 2, 3)}
    assert len(indices) == 5 * (1 + 26 + 351 + 3276)
    assert len({render_index(idx, "latex") for idx in indices}) == len(indices)
