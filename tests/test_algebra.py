import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulersums.algebra import (
    LinComb,
    MzvAtom,
    SymbolicTerm,
    as_fraction,
    li_half,
    parse_atom,
    z,
)
from eulersums.expansion import expand_t1
from eulersums.indices import parse_index


def test_atom_basics():
    a = z(-5, 1)
    assert a.weight == 6 and a.depth == 2 and a.is_alternating
    assert z(2).weight == 2 and not z(2).is_alternating
    assert li_half(4).weight == 4 and li_half(4).depth == 0


def test_atom_admissibility():
    with pytest.raises(ValueError):
        z(1, 2)  # unsigned leading 1 diverges
    with pytest.raises(ValueError):
        z(2, 0)
    with pytest.raises(ValueError):
        MzvAtom()
    z(-1)  # the -ln 2 atom is fine
    z(-1, 1)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

signed_slots = st.tuples(st.integers(1, 6), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])
atoms = st.one_of(
    st.lists(signed_slots, min_size=1, max_size=4).filter(lambda s: s[0] != 1).map(lambda s: z(*s)),
    st.integers(1, 12).map(li_half),
)


@SETTINGS
@given(atoms)
def test_atom_render_and_parse_roundtrip(atom):
    for example in (z(-5, -1), z(2), z(3, 1, 1), z(-1), li_half(4), atom):
        assert parse_atom(example.render()) == example
    assert z(-5, -1).render() == "z(-5,-1)"
    assert li_half(4).render() == "Li(4,1/2)"
    with pytest.raises(ValueError):
        parse_atom("Li(4,1/3)")
    with pytest.raises(ValueError):
        parse_atom("w(2)")


def test_term_canonical_order():
    rng = random.Random(7)
    atoms = [z(3), z(2), li_half(4), z(-1), z(2), z(5, 3)]
    ref = SymbolicTerm.of(*atoms)
    for _ in range(20):
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        assert SymbolicTerm.of(*shuffled) == ref
    assert SymbolicTerm().is_unit()
    assert SymbolicTerm.of(z(2), z(3)).weight == 5


def test_lincomb_add_examples():
    z3 = LinComb.of_atom(z(3))
    assert (z3 + z3.scale(-1)).is_zero()
    assert z3.scale("1/2") + z3.scale("1/2") == z3
    mixed = LinComb.of_term(SymbolicTerm.of(z(2), z(3)), 2) + LinComb.of_atom(z(5), 3)
    assert len(mixed) == 2
    assert mixed.coeff(SymbolicTerm.of(z(2), z(3))) == 2
    assert mixed.coeff(SymbolicTerm.of(z(5))) == 3


def test_lincomb_mul_examples():
    one = LinComb.scalar(1)
    x = LinComb.of_atom(z(2)) + LinComb.of_atom(z(3), "1/3")
    assert one * x == x
    sq = LinComb.of_atom(z(3), 2) * LinComb.of_atom(z(3), 3)
    assert sq == LinComb.of_term(SymbolicTerm.of(z(3), z(3)), 6)
    lhs = (LinComb.of_atom(z(2)) + LinComb.of_atom(z(3))) * LinComb.of_atom(z(2))
    rhs = LinComb.of_term(SymbolicTerm.of(z(2), z(2)), 1) + LinComb.of_term(
        SymbolicTerm.of(z(2), z(3)), 1
    )
    assert lhs == rhs


LINCOMB_ATOMS = [z(2), z(3), z(-1), z(5, 3), li_half(4), z(-2, 1)]


def _random_lincomb(rng) -> LinComb:
    acc = LinComb.zero()
    for _ in range(rng.randrange(4)):
        picked = [rng.choice(LINCOMB_ATOMS) for _ in range(rng.randrange(3))]
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        acc = acc + LinComb.of_term(SymbolicTerm.of(*picked), coeff)
    return acc


lincomb_terms = st.builds(
    lambda picked, p, q: LinComb.of_term(SymbolicTerm.of(*picked), Fraction(p, q)),
    st.lists(st.sampled_from(LINCOMB_ATOMS), max_size=2),
    st.integers(-6, 6),
    st.integers(1, 4),
)
lincombs = st.lists(lincomb_terms, max_size=3).map(lambda terms: sum(terms, LinComb.zero()))


@SETTINGS
@given(lincombs, lincombs, lincombs)
def test_lincomb_algebra_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + a.scale(-1)).is_zero() and (a - a).is_zero()
    assert a * LinComb.scalar(1) == a == LinComb.scalar(1) * a


def test_zero_pruning():
    t = SymbolicTerm.of(z(3))
    x = LinComb({t: Fraction(2)}) + LinComb({t: Fraction(-2)})
    assert x.is_zero() and len(x) == 0 and not x


def test_rational_normalization():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.randrange(-40, 40)
        q = rng.randrange(1, 40)
        k = rng.randrange(1, 12)
        assert as_fraction(f"{p * k}/{q * k}") == Fraction(p, q)
    assert as_fraction("3/4").denominator == 4
    with pytest.raises(TypeError):
        as_fraction(1.5)


def test_json_terms_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        x = _random_lincomb(rng)
        assert LinComb.from_json_terms(x.to_json_terms()) == x


def test_json_terms_roundtrip_large_expansion():
    lc = expand_t1(parse_index("S(2,3,4,5,6,7,2)"))
    assert len(lc) == 7218
    assert LinComb.from_json_terms(lc.to_json_terms()) == lc


def test_render_latex_ln2_sign_fold():
    # z(-1) = -ln 2, so a term with one ln-2 factor flips its displayed sign
    x = LinComb.of_term(SymbolicTerm.of(z(2), z(-1)), Fraction(-3, 2))
    assert "ln" in x.latex()
    assert x.latex().startswith(r"\frac{3}{2}")
