import copy
import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eulersums.algebra import (
    UNIT_TERM,
    LinComb,
    MzvAtom,
    SymbolicTerm,
    as_fraction,
    json_pieces,
    li_half,
    parse_atom,
    z,
)
from eulersums.expansion import UnsupportedHypothesisError, expand_t1, expand_t2, linearize, t1_terms
from eulersums.indices import make_index, parse_index
from eulersums.reduction import reduce_lincomb

from reference_oracles import reference_atom_text, reference_json_terms, reference_render


def test_atom_basics():
    a = z(-5, 1)
    assert a.weight == 6 and a.depth == 2 and a.args == (-5, 1)
    assert z(2).weight == 2 and z(2).args == (2,)
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


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: z(2, 0), "zero slot in (2, 0)"),
        (lambda: z(0), "zero slot in (0,)"),
        (lambda: z(1, 2), "divergent atom: leading unsigned 1 in (1, 2)"),
        (lambda: MzvAtom(), "zeta atom needs at least one slot"),
        (lambda: MzvAtom(args=(2,), li=3), "Li atom carries no zeta slots"),
        (lambda: MzvAtom(li=-1), "Li order must be a positive integer"),
    ],
)
def test_atom_admissibility_messages(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


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


@pytest.mark.parametrize(
    "text",
    [
        "Li(0,1/2)", "Li(-1,1/2)", "Li(x,1/2)", "Li(,1/2)", "Li(4)", "Li(4,1/2,1)", "Li(4,1/3)",
        "Li(1_0,1/2)", "Li(04,1/2)", "Li(+4,1/2)", "Li(\u0663,1/2)",
    ],
)
def test_malformed_li_atom_message(text):
    with pytest.raises(ValueError, match=r"^malformed Li atom: " + re.escape(repr(text)) + "$"):
        parse_atom(text)


@pytest.mark.parametrize(
    "text",
    [
        "z()", "z(x)", "z(2,)", "z(2.0)", "z(0)", "z(2,-0)",
        "z(2_0)", "z(2,-0_1)", "z(02)", "z(+2)", "z(\u0663)", "z(2,- 1)",
    ],
)
def test_malformed_zeta_atom_message(text):
    # a slot is a nonzero ASCII integer as in an index, never reinterpreted
    with pytest.raises(ValueError, match=r"^malformed zeta atom: " + re.escape(repr(text)) + "$"):
        parse_atom(text)


def test_atom_slots_allow_whitespace():
    assert parse_atom(" z( 2 ,-3 ) ") == z(2, -3)
    assert parse_atom("Li( 4 , 1/2 )") == li_half(4)


@SETTINGS
@given(atoms)
def test_atom_weight_is_part_of_its_value(atom):
    # the weight is stored in the atom's tuple, so every way of building one
    # atom must store the same weight: it is a function of the slots
    assert atom.weight == (atom.li or sum(abs(a) for a in atom.args))
    built = [MzvAtom(args=atom.args, li=atom.li), parse_atom(atom.render())]
    built.append(li_half(atom.li) if atom.li else MzvAtom._of_word(atom.args, atom.weight))
    for twin in built:
        assert twin == atom and hash(twin) == hash(atom)
        assert twin.weight == atom.weight and {atom: 1}[twin] == 1
        assert tuple(twin) == (atom.li, atom.weight, atom.args)
    with pytest.raises(AttributeError):
        atom.weight = atom.weight + 1


@pytest.mark.parametrize("copy_of", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)),
    copy.copy,
    copy.deepcopy,
])
def test_values_survive_pickle_and_copy(copy_of):
    product = SymbolicTerm.of(z(-1), z(3, 1), li_half(2))
    values = [z(2), z(-5, 1), z(-1), li_half(4), product, UNIT_TERM]
    values.append(LinComb({z(3): Fraction(-1, 2), product: 2, UNIT_TERM: 3, li_half(4): 1}))
    for value in values:
        twin = copy_of(value)
        assert twin == value and type(twin) is type(value) and twin.render() == value.render()
        if not isinstance(value, LinComb):
            assert hash(twin) == hash(value) and twin.weight == value.weight
    atom = copy_of(z(-5, 1))
    assert (atom.args, atom.li, atom.weight) == ((-5, 1), 0, 6)


def _atom_order(a: MzvAtom):
    """The atom order as (kind, weight or Li order, slots)."""
    return (1, a.li, ()) if a.li else (0, a.weight, a.args)


def _nested_sort_key(term: SymbolicTerm):
    """The term order as nested tuples: factor count, then each factor's
    (kind, weight, slots)."""
    return (len(term.factors), tuple(map(_atom_order, term.factors)))


# Slots from a small alphabet, so that one factor's slots are often a prefix
# of another's.
prefix_atoms = st.one_of(
    st.lists(st.sampled_from([2, 1, -1]), min_size=1, max_size=3).filter(
        lambda s: s[0] != 1
    ).map(lambda s: z(*s)),
    st.integers(1, 3).map(li_half),
)
terms = st.lists(prefix_atoms, max_size=3).map(lambda fs: SymbolicTerm.of(*fs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(terms, terms)
def test_flat_sort_key_orders_as_nested_key(s, t):
    assert (s.term_key() < t.term_key()) == (_nested_sort_key(s) < _nested_sort_key(t))
    assert (s.term_key() == t.term_key()) == (s == t)


def test_one_atom_term_is_the_atom():
    for a in (z(3), z(-5, 1), li_half(4)):
        assert SymbolicTerm.of(a) is a
        assert UNIT_TERM.mul(a) is a and a.mul(UNIT_TERM) is a
        assert a.factors == (a,) and not a.is_unit()
        assert a.term_key() == (1, a)
        with pytest.raises(ValueError, match="one-atom term"):
            SymbolicTerm((a,))
    assert SymbolicTerm.of() == UNIT_TERM and UNIT_TERM.is_unit()
    assert z(2).mul(z(3)) == SymbolicTerm((z(2), z(3)))
    assert z(-1).latex() == r"-\ln(2)" and SymbolicTerm.of(z(-1), z(-1)).latex() == r"\ln^{2}(2)"


def test_product_built_unsorted_is_the_sorted_product():
    # a product has one key however its factors come in, so the difference
    # of the two spellings is zero, and so is its reduction
    from eulersums.reduction import reduce_lincomb

    unsorted, product = SymbolicTerm((z(3), z(2))), SymbolicTerm.of(z(2), z(3))
    assert unsorted == product and unsorted.factors == (z(2), z(3))
    assert len(LinComb({unsorted: 1, product: -1})) == 1  # one key, the last value
    lc = LinComb({unsorted: 1}) - LinComb({product: 1})
    assert lc == LinComb() and lc.render() == "0"
    assert reduce_lincomb(lc).value == LinComb()


@SETTINGS
@given(st.lists(atoms, min_size=2, max_size=4), st.integers(1, 12), st.randoms(use_true_random=False))
def test_products_are_sorted_tuples_of_their_factors(factors, q, rnd):
    # any permutation of the factors builds one key with one hash
    product = SymbolicTerm(factors)
    shuffled = factors[:]
    rnd.shuffle(shuffled)
    twin = SymbolicTerm.of(*shuffled)
    assert twin == product and hash(twin) == hash(product) and {product: 1}[twin] == 1
    assert twin.term_key() == product.term_key() == (len(factors), *product.factors)
    assert list(map(_atom_order, product.factors)) == sorted(map(_atom_order, factors))
    # no product or unit term equals any atom, so one dict holds them apart
    with_li = SymbolicTerm((li_half(q), *factors[:3]))
    for atom in [*factors, li_half(q)]:
        for term in (product, with_li, UNIT_TERM):
            assert term != atom and atom != term
        with pytest.raises(ValueError, match="one-atom term"):
            SymbolicTerm((atom,))
    keys = {product: 1, with_li: 2, UNIT_TERM: 3, **dict.fromkeys(factors, 4)}
    assert len(keys) == len({product, with_li}) + 1 + len(set(factors))
    # pickle and copy give back the same sorted product, of 0 and 2-4 factors
    for value in (UNIT_TERM, product, with_li):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies:
            assert type(back) is SymbolicTerm and back == value and hash(back) == hash(value)
            assert all(type(a) is MzvAtom for a in back.factors)
            assert back.factors == value.factors and back.render() == value.render()


def _check_terms(lc: LinComb):
    """Each key is an atom, the unit term or a product of two or more atoms,
    and ``items()`` runs in the order of the nested term key, each term with
    its own coefficient."""
    pairs = list(lc.items())
    assert dict(pairs) == lc._d and len(pairs) == len(lc)
    keys = [t for t, _ in pairs]
    for t in keys:
        assert type(t) is MzvAtom or t == UNIT_TERM or (
            type(t) is SymbolicTerm and len(t.factors) >= 2
        ), repr(t)
    assert keys == sorted(keys, key=_nested_sort_key)


# One term of each group that items() lays out: the unit, zeta atoms of
# weights 1, 2 and 3, a Li atom and products, some with a Li factor.
_EVERY_GROUP = [
    UNIT_TERM, z(-1), z(2), z(-2), z(3), z(2, 1), li_half(2),
    SymbolicTerm.of(z(2), li_half(1)), SymbolicTerm.of(z(-1), z(-1)),
]


@SETTINGS
@given(st.lists(terms, max_size=12), st.randoms(use_true_random=False))
def test_items_order_across_groups(extra, rnd):
    # zeta atoms of several weights, built both ways, among the unit, Li
    # atoms and products, inserted in any order
    trusted = [MzvAtom._of_word(t.args, t.weight) for t in extra if type(t) is MzvAtom and not t.li]
    entries = _EVERY_GROUP + extra + trusted
    rnd.shuffle(entries)
    lc = LinComb({t: Fraction(i + 1, 3) for i, t in enumerate(entries)})
    weights = {t.weight for t in lc.atoms() if not t.li}
    assert len(weights) >= 3 and UNIT_TERM in lc._d
    _check_terms(lc)
    assert lc.json_terms() == json.dumps(lc.to_json_terms())


@SETTINGS
@given(atoms.filter(lambda a: not a.li))
def test_trusted_constructor_builds_the_checked_atom(atom):
    trusted = MzvAtom._of_word(atom.args, sum(abs(a) for a in atom.args))
    assert trusted == atom and hash(trusted) == hash(atom)
    assert trusted.weight == atom.weight and trusted.li == 0
    assert trusted.term_key() == atom.term_key() and trusted.render() == atom.render()
    assert {atom: 1}[trusted] == 1


small_indices = st.builds(
    make_index,
    st.lists(st.sampled_from([1, 2, 3, -1, -2]), max_size=3),
    st.sampled_from([2, 3, -1, -2]),
)


@SETTINGS
@given(small_indices)
def test_expansions_keep_one_object_per_term(idx):
    t1 = expand_t1(idx)
    _check_terms(t1)
    _check_terms(reduce_lincomb(t1).value)
    try:
        t2 = expand_t2(idx)
    except UnsupportedHypothesisError:
        return
    _check_terms(t2)
    _check_terms(linearize(t2))
    assert linearize(t2) == t1


@SETTINGS
@given(st.lists(st.lists(atoms, max_size=3), max_size=4))
def test_lincomb_operations_keep_one_object_per_term(factor_lists):
    terms = [SymbolicTerm.of(*fs) for fs in factor_lists]
    a = LinComb({t: i + 1 for i, t in enumerate(terms)})
    b = LinComb({t: -1 for t in terms[1:]}) + LinComb.of_atom(z(3))
    for lc in (a, b, a + b, a - b, b - b, a * b, b * b, a.scale(Fraction(-2, 3)), a.scale(0)):
        _check_terms(lc)
        _check_terms(LinComb.from_json_terms(lc.to_json_terms()))


# Coefficients up to 400 digits over up to 400 digits, of either sign.
big_coeffs = st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400))


@SETTINGS
@given(st.lists(st.tuples(st.lists(atoms, max_size=3), big_coeffs | st.integers(-3, 3)), max_size=6))
def test_json_terms_text_is_json_dumps(entries):
    lc = LinComb({SymbolicTerm.of(*fs): c for fs, c in entries})
    text = lc.json_terms()
    assert text == json.dumps(lc.to_json_terms())
    again = LinComb.from_json_terms(json.loads(text))
    assert again == lc
    _check_terms(again)


render_coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    big_coeffs,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.lists(atoms, max_size=3), render_coeffs), max_size=6))
@example([([], Fraction(-3, 4)), ([z(2)], 1)])  # the unit term first, negative
@example([([], -1), ([z(2), z(3)], -1), ([z(5)], 7)])
@example([([z(2)], Fraction(-1, 2)), ([], 1), ([z(-1), li_half(4)], Fraction(5, 3))])
def test_render_matches_reference(entries):
    lc = LinComb({SymbolicTerm.of(*fs): c for fs, c in entries})
    assert lc.render() == reference_render(lc)


# Slots of up to 31 digits, either sign, at depth 1-40: each text is made from
# its depth's template, which the reference does not use.
wide_slots = st.integers(-(10**30), 10**30).filter(bool)
wide_atoms = (
    st.integers(1, 40)
    .flatmap(lambda n: st.lists(wide_slots, min_size=n, max_size=n))
    .map(lambda s: MzvAtom(args=(2 if s[0] == 1 else s[0], *s[1:])))
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_atoms)
@example(z(-1))
@example(z(-(10**30), 10**30, -7))
def test_atom_text_matches_reference(atom):
    text = reference_atom_text(atom)
    assert atom.render() == text
    assert LinComb.of_atom(atom).render() == text
    assert LinComb.of_atom(atom, -1).render() == "-" + text
    assert parse_atom(text) == atom


# A few coefficient objects shared among many terms, as the expansion
# engines share them, beside coefficients made afresh.
_SHARED = [Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(10**40, 3)]
mixed_terms = st.one_of(
    wide_atoms,
    st.integers(1, 12).map(li_half),
    st.lists(st.one_of(wide_atoms, atoms), min_size=2, max_size=3).map(lambda fs: SymbolicTerm.of(*fs)),
    st.just(UNIT_TERM),
)
mixed_coeffs = st.one_of(st.sampled_from(_SHARED), render_coeffs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(mixed_terms, mixed_coeffs), max_size=12))
@example([(z(2), _SHARED[2]), (z(3, -1), _SHARED[2]), (li_half(4), _SHARED[2]),
          (SymbolicTerm.of(z(2), li_half(4)), _SHARED[2]), (UNIT_TERM, _SHARED[2])])
def test_json_terms_and_render_match_reference(entries):
    lc = LinComb(dict(entries))
    text = lc.json_terms()
    assert text == reference_json_terms(lc)
    assert lc.render() == reference_render(lc)
    assert LinComb.from_json_terms(json.loads(text)) == lc


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
    assert not (z3 + z3.scale(-1))
    assert z3.scale("1/2") + z3.scale("1/2") == z3
    mixed = LinComb({SymbolicTerm.of(z(2), z(3)): 2}) + LinComb.of_atom(z(5), 3)
    assert len(mixed) == 2
    assert mixed.coeff(SymbolicTerm.of(z(2), z(3))) == 2
    assert mixed.coeff(SymbolicTerm.of(z(5))) == 3


def test_lincomb_mul_examples():
    one = LinComb.scalar(1)
    x = LinComb.of_atom(z(2)) + LinComb.of_atom(z(3), "1/3")
    assert one * x == x
    sq = LinComb.of_atom(z(3), 2) * LinComb.of_atom(z(3), 3)
    assert sq == LinComb({SymbolicTerm.of(z(3), z(3)): 6})
    lhs = (LinComb.of_atom(z(2)) + LinComb.of_atom(z(3))) * LinComb.of_atom(z(2))
    rhs = LinComb({SymbolicTerm.of(z(2), z(2)): 1}) + LinComb({SymbolicTerm.of(z(2), z(3)): 1})
    assert lhs == rhs
    # (A + B)(A - B): A*B and -B*A are one term, set and then cancelled
    a, b = LinComb.of_atom(z(2)), LinComb.of_atom(z(3))
    assert (a + b) * (a - b) == LinComb({SymbolicTerm.of(z(2), z(2)): 1, SymbolicTerm.of(z(3), z(3)): -1})


@pytest.mark.parametrize("other", [1, Fraction(1, 2), "1"])
def test_lincomb_arithmetic_refuses_a_number(other):
    # +, - and * take two combinations; a rational multiple is scale()
    x = LinComb.of_atom(z(3))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(left, right)


LINCOMB_ATOMS = [z(2), z(3), z(-1), z(5, 3), li_half(4), z(-2, 1)]


def _random_lincomb(rng) -> LinComb:
    acc = LinComb()
    for _ in range(rng.randrange(4)):
        picked = [rng.choice(LINCOMB_ATOMS) for _ in range(rng.randrange(3))]
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        acc = acc + LinComb({SymbolicTerm.of(*picked): coeff})
    return acc


lincomb_terms = st.builds(
    lambda picked, p, q: LinComb({SymbolicTerm.of(*picked): Fraction(p, q)}),
    st.lists(st.sampled_from(LINCOMB_ATOMS), max_size=2),
    st.integers(-6, 6),
    st.integers(1, 4),
)
lincombs = st.lists(lincomb_terms, max_size=3).map(lambda terms: sum(terms, LinComb()))


@SETTINGS
@given(lincombs, lincombs, lincombs)
def test_lincomb_algebra_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + a.scale(-1) == LinComb() == a - a
    assert a * LinComb.scalar(1) == a == LinComb.scalar(1) * a


def test_zero_pruning():
    t = SymbolicTerm.of(z(3))
    x = LinComb({t: Fraction(2)}) + LinComb({t: Fraction(-2)})
    assert x == LinComb() and len(x) == 0 and not x


def test_rational_normalization():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.randrange(-40, 40)
        q = rng.randrange(1, 40)
        k = rng.randrange(1, 12)
        assert as_fraction(f"{p * k}/{q * k}") == Fraction(p, q)
    assert as_fraction("3/4").denominator == 4
    # JSON true/false are not the numbers 1 and 0
    for bad in (1.5, True, False):
        with pytest.raises(TypeError):
            as_fraction(bad)


def test_rational_text_is_strict():
    # only the forms the program writes: an ASCII integer or p/q, q > 0, no
    # leading zeros, with surrounding whitespace; Fraction() alone reads more
    for text, value in [("0", 0), ("-3/4", Fraction(-3, 4)), ("6/8", Fraction(3, 4)),
                        (" 12 ", 12), ("\t-7/2\n", Fraction(-7, 2)), ("1" + "0" * 40, 10**40)]:
        assert as_fraction(text) == value, text
    for bad in ["", " ", "1_0/1_0", "0.25", "1e2", "\u0663/4", "\uff13/4", "+1", "01", "1/0",
                "3/04", "1/-2", "1 / 2", "- 1", "1/", "/2", "inf", "nan", "1/2/3"]:
        with pytest.raises(ValueError):
            as_fraction(bad)


def test_json_terms_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        x = _random_lincomb(rng)
        assert LinComb.from_json_terms(x.to_json_terms()) == x


def test_json_terms_roundtrip_large_expansion():
    lc = expand_t1(parse_index("S(2,3,4,5,6,7,2)"))
    assert len(lc) == 7218
    assert LinComb.from_json_terms(lc.to_json_terms()) == lc


def _count_fraction_str(monkeypatch) -> list:
    """Patch ``Fraction.__str__`` to record each call; returns the record."""
    calls = []
    fraction_str = Fraction.__str__

    def counting_str(self):
        calls.append(self)
        return fraction_str(self)

    monkeypatch.setattr(Fraction, "__str__", counting_str)
    return calls


def test_json_terms_writes_each_coefficient_object_once(monkeypatch):
    # expand_t1 shares one Fraction per multiplicity: 38 objects for 7 896 terms
    lc = expand_t1(parse_index("S(2,2,-1,-1,-1,-1,-3,-3,-2)"))
    assert len(lc) == 7896 and len({id(c) for c in lc._d.values()}) == 38
    reference = json.dumps(lc.to_json_terms())
    calls = _count_fraction_str(monkeypatch)
    assert lc.json_terms() == reference
    assert len(calls) == 38


def test_streamed_json_writes_each_coefficient_object_once(monkeypatch):
    # the same 38 objects, read from t1's stream: no combination holds them
    idx = parse_index("S(2,2,-1,-1,-1,-1,-3,-3,-2)")
    reference = json.dumps(expand_t1(idx).to_json_terms())
    calls = _count_fraction_str(monkeypatch)
    pieces = list(json_pieces(t1_terms(idx)))
    assert len(pieces) == 7896 and "[" + ", ".join(pieces) + "]" == reference
    assert len(calls) == 38


def test_json_pieces_of_fresh_coefficients():
    # each coefficient is made as its pair is read and dropped after it, so
    # a freed object's id comes back for the next; the text cached for an
    # object keeps the object, and equal values in distinct objects are each
    # written from their own
    def pairs():
        for k in range(200):
            yield z(k + 2), Fraction(k % 7 - 3, k % 5 + 1)

    expected = [json.dumps({"factors": [a.render()], "coeff": str(c)}) for a, c in pairs()]
    assert list(json_pieces(pairs())) == expected


def test_json_terms_shared_coefficient_across_term_kinds(monkeypatch):
    # one object on an atom, a product, a Li atom and the unit, beside a
    # second object of equal value
    shared, equal = Fraction(-7, 3), Fraction(-7, 3)
    lc = LinComb({
        z(-2, 3): shared,
        SymbolicTerm.of(z(2), li_half(4)): shared,
        li_half(5): shared,
        UNIT_TERM: shared,
        z(5): equal,
    })
    assert len({id(c) for c in lc._d.values()}) == 2
    reference = json.dumps(lc.to_json_terms())
    calls = _count_fraction_str(monkeypatch)
    assert lc.json_terms() == reference
    assert len(calls) == 2


def test_latex_of_a_constant_and_of_zero():
    assert LinComb.scalar(3).latex() == "3"
    assert LinComb.scalar(Fraction(-1, 2)).latex() == r"-\frac{1}{2}"
    assert LinComb().latex() == "0"


def test_render_latex_ln2_sign_fold():
    # z(-1) = -ln 2, so a term with one ln-2 factor flips its displayed sign
    x = LinComb({SymbolicTerm.of(z(2), z(-1)): Fraction(-3, 2)})
    assert "ln" in x.latex()
    assert x.latex().startswith(r"\frac{3}{2}")
