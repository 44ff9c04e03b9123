"""Property tests of the quasi-shuffle kernel and of the expansion size guard.

The kernel is checked against the exact finite multiple harmonic sums of
``reference_oracles._mhs_prefix``, which never calls it: at every finite N
the product of the words' nested sums must equal the combination the kernel
returns, with zero tolerance.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from eulersums.expansion import ordered_partition_count
from eulersums.words import alphabet, merge, quasi_shuffle, stuffle

from reference_oracles import _mhs_prefix, _ordered_partitions_bruteforce, _reference_quasi_shuffle, _reference_stuffle

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

letters = st.sampled_from([1, 2, 3, -1, -2, -3])
words = st.lists(letters, min_size=1, max_size=3).map(tuple)
# Each drawn word comes with a multiplicity, so repeated words are common;
# at most six letters in all keeps each product small enough to sum exactly
# at every n.
word_multisets = st.lists(st.tuples(words, st.integers(1, 3)), max_size=3).map(
    lambda pairs: [w for w, k in pairs for _ in range(k)]
).filter(lambda ws: sum(len(w) for w in ws) <= 6)


@SETTINGS
@given(word_multisets)
def test_kernel_matches_finite_products(ws):
    product = quasi_shuffle(ws)
    assert all(isinstance(c, int) and c > 0 for c in product.values())
    for n in (0, 1, 2, 5, 9):
        direct = Fraction(1)
        for w in ws:
            direct *= _mhs_prefix(w, n)[n]
        combo = sum((c * _mhs_prefix(w, n)[n] for w, c in product.items()), Fraction(0))
        assert combo == direct, (ws, n)


def test_tiny_products_match_reference():
    # no nonempty word, or one: the empty word or that word alone, with no
    # alphabet built, as the product of the words one by one gives it
    cases = [[], [()], [(), ()], [(3,)], [(), (2, -1)], [(-1, 1, 2), ()], [(), (5,), ()]]
    for ws in cases:
        got = quasi_shuffle(ws)
        assert got == _reference_quasi_shuffle(ws), ws
        assert all(type(w) is tuple for w in got), ws
    assert quasi_shuffle(iter([(), (4, -2)])) == {(4, -2): 1}


@SETTINGS
@given(st.lists(st.sampled_from([1, 2, 3, -1]), max_size=6))
def test_partition_count_matches_bruteforce(entries):
    assert ordered_partition_count(entries) == _ordered_partitions_bruteforce(entries)


def test_partition_count_landmarks():
    assert [ordered_partition_count(range(m)) for m in range(1, 10)] == [
        1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261,
    ]
    assert ordered_partition_count([2] * 14) == 2**13
    assert ordered_partition_count([1, 1, 2, 2, 3, 3, 4, 4, 5]) == 598352


signed_letters = st.integers(1, 4).flatmap(lambda m: st.sampled_from([m, -m]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(signed_letters, min_size=1, max_size=4).map(tuple),
    st.lists(signed_letters, max_size=5).map(tuple),
)
def test_stuffle_words_and_order_match_reference(u, v):
    # the words themselves, in order and with their repeats, not only their
    # multiplicities; the kernel runs on str words over the alphabet of u and v
    letters, _ = alphabet([v, u])
    code = {x: chr(i) for i, x in enumerate(letters)}
    rows = {code[x]: {code[y]: code[merge(x, y)] for y in v} for x in u}
    got = stuffle("".join(map(code.__getitem__, u)), "".join(map(code.__getitem__, v)), rows)
    assert [tuple(letters[ord(ch)] for ch in word) for word in got] == _reference_stuffle(u, v)
