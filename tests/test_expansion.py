import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import eulersums
from eulersums import expansion
from eulersums.algebra import LinComb, MzvAtom, SymbolicTerm, li_half, z
from eulersums.expansion import (
    PARTITION_CAP,
    DegreeCapError,
    UnsupportedHypothesisError,
    _check_size,
    expand_t1,
    expand_t2,
    linearize,
    ordered_partition_count,
    t1_json_pieces,
    t1_words,
)
from eulersums.indices import make_index, parse_index
from eulersums.words import alphabet

from fixtures_closed_forms import lc
from long_text import assert_same_text
from reference_oracles import (
    _mhs_prefix,
    _reference_expand_t1,
    alt_harmonic_exact,
    compositions,
    convergent_indices,
    harmonic_exact,
    paper_range,
    weak_orderings,
)


# -- ordering-class engine fixtures -------------------------------------------


def test_linearize_refuses_a_li_constant():
    # the quasi-shuffle multiplies zeta words; Li(q,1/2) has none
    for term, text in [(li_half(2), "Li(2,1/2)"), (SymbolicTerm.of(li_half(2), z(3)), "z(3)*Li(2,1/2)")]:
        with pytest.raises(ValueError) as refused:
            linearize(LinComb({term: 1}))
        assert str(refused.value) == f"cannot linearize the Li constant in {text}"


def test_linear_sum_form():
    # S_{p,q} = z(q,p) + z(p+q)
    for p, q in [(1, 2), (3, 5), (2, 2), (8, 9)]:
        assert expand_t1(make_index([p], q)) == lc((1, [z(q, p)]), (1, [z(p + q)]))


def test_quadratic_sums_give_the_pair_of_triple_orderings_exactly():
    # S(i,j,k) - S(i,j+k) - S(j,i+k) - S(i+j,k) + 2 z(i+j+k) = z(k,i,j) + z(k,j,i)
    # for j >= i >= 1 and k >= 2, as exact combinations: no basis, no tolerance
    cases = [(i, j, k) for k in range(2, 11) for i in range(1, 6) for j in range(i, 11) if i + j + k <= 12]
    assert len(cases) == 95
    for i, j, k in cases:
        got = (
            expand_t1(make_index([i, j], k))
            - expand_t1(make_index([i], j + k))
            - expand_t1(make_index([j], i + k))
            - expand_t1(make_index([i + j], k))
            + LinComb.of_atom(z(i + j + k), 2)
        )
        assert got == lc((1, [z(k, i, j)]), (1, [z(k, j, i)])), (i, j, k)


def test_quadratic_sum_form():
    # the six-term quadratic expansion
    for i1, i2, q in [(1, 2, 3), (2, 5, 2), (1, 1, 4)]:
        got = expand_t1(make_index([i1, i2], q))
        expect = lc(
            (1, [z(q, i1 + i2)]),
            (1, [z(q, i1, i2)]),
            (1, [z(q, i2, i1)]),
            (1, [z(q + i1 + i2)]),
            (1, [z(q + i1, i2)]),
            (1, [z(q + i2, i1)]),
        )
        assert got == expect


def test_cubic_ones_form():
    # S_{1^3,q}: coefficients {1,1,3,3,3,3,6,6}
    for q in (2, 5, 9):
        got = expand_t1(make_index([1, 1, 1], q))
        expect = lc(
            (1, [z(q, 3)]),
            (1, [z(q + 3)]),
            (3, [z(q, 1, 2)]),
            (3, [z(q + 1, 2)]),
            (3, [z(q, 2, 1)]),
            (3, [z(q + 2, 1)]),
            (6, [z(q, 1, 1, 1)]),
            (6, [z(q + 1, 1, 1)]),
        )
        assert got == expect


def test_s111_9_eight_atoms():
    got = expand_t1(parse_index("S(1,1,1,9)"))
    expect = lc(
        (1, [z(9, 3)]),
        (3, [z(9, 1, 2)]),
        (3, [z(9, 2, 1)]),
        (6, [z(9, 1, 1, 1)]),
        (1, [z(12)]),
        (3, [z(10, 2)]),
        (3, [z(11, 1)]),
        (6, [z(10, 1, 1)]),
    )
    assert got == expect


def test_alternating_outer_example():
    got = expand_t1(parse_index("S(1,1,-3)"))
    expect = lc(
        (-1, [z(-5)]),
        (-2, [z(-4, 1)]),
        (-1, [z(-3, 2)]),
        (-2, [z(-3, 1, 1)]),
    )
    assert got == expect


def test_repeated_proof_displays():
    # S_{r^2,r} and S_{r^3,r} before any reduction
    for r in (2, 3):
        got = expand_t1(make_index([r, r], r))
        expect = lc(
            (1, [z(r, 2 * r)]),
            (1, [z(3 * r)]),
            (2, [z(r, r, r)]),
            (2, [z(2 * r, r)]),
        )
        assert got == expect
        got = expand_t1(make_index([r, r, r], r))
        expect = lc(
            (1, [z(r, 3 * r)]),
            (1, [z(4 * r)]),
            (3, [z(r, 2 * r, r)]),
            (3, [z(3 * r, r)]),
            (3, [z(r, r, 2 * r)]),
            (3, [z(2 * r, 2 * r)]),
            (6, [z(r, r, r, r)]),
            (6, [z(2 * r, r, r)]),
        )
        assert got == expect


def test_degree_zero():
    assert expand_t1(make_index([], 5)) == lc((1, [z(5)]))
    assert expand_t1(make_index([], -4)) == lc((-1, [z(-4)]))


def test_weight_conservation_and_depth():
    rng = random.Random(3)
    for _ in range(40):
        deg = rng.randrange(0, 5)
        inner = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(deg)]
        outer = rng.choice([1, -1]) * rng.randrange(2, 5)
        idx = make_index(inner, outer)
        out = expand_t1(idx)
        for term, _ in out.items():
            (atom,) = term.factors
            assert atom.weight == idx.weight
            assert atom.depth <= idx.degree + 1


def _t1_reference(idx) -> LinComb:
    """Engine t1 built atom by atom through ``z`` and ``LinComb``: one path per
    weak ordering of the labelled inner entries, whose blocks, in order, merge
    into the letters of a word; each path adds the word's two atoms."""
    inner, q, outer_bar = idx.inner, abs(idx.outer), idx.outer < 0
    sign = (-1) ** (sum(e < 0 for e in inner) + outer_bar)
    if not inner:
        return LinComb.of_atom(z(idx.outer), sign)
    acc = Counter()
    for f in weak_orderings(len(inner)):
        word = []
        for block in range(max(f) + 1):
            entries = [e for e, b in zip(inner, f) if b == block]
            mag = sum(abs(e) for e in entries)
            word.append(-mag if sum(e < 0 for e in entries) % 2 else mag)
        merged = q + abs(word[0])
        acc[z(-q if outer_bar else q, *word)] += sign
        acc[z(-merged if (word[0] < 0) ^ outer_bar else merged, *word[1:])] += sign
    return LinComb({SymbolicTerm.of(atom): c for atom, c in acc.items()})


signed_entries = st.tuples(st.integers(1, 4), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(signed_entries, max_size=5), st.sampled_from([2, 3, 5, -1, -2, -3]))
def test_t1_matches_atom_by_atom_reference(inner, outer):
    idx = make_index(inner, outer)
    assert expand_t1(idx) == _t1_reference(idx)


# Few magnitudes, so that entries repeat, barred or not.
repeated_entries = st.tuples(st.integers(1, 2), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(repeated_entries, min_size=1, max_size=6), st.sampled_from([2, 3, -1, -2, -3]))
def test_t1_gives_two_atoms_per_word(inner, outer):
    # no two product words give the same atom, under either outer sign:
    # expand_t1 stores each atom once, with its word's multiplicity
    idx = make_index(inner, outer)
    words = expansion.quasi_shuffle((e,) for e in idx.inner)
    assert len(expand_t1(idx)) == 2 * len(words)


def test_t1_builds_its_terms_in_term_order():
    # against the loop that built the terms in the kernel's popitem order: the
    # same combination, the same JSON bytes, and a dict already in items()
    # order; the degree-6/7 indices have a barred outer and first letters of
    # both signs, so the atom-1 block sits between reversed runs
    indices = convergent_indices(7)
    assert len(indices) == 423  # 422 of weight 2-7, and S(-1)
    indices += [
        parse_index(s)
        for s in ("S(1,2,-3,4,-5,6,-2)", "S(2,2,-1,-1,-3,-3,-3)", "S(1,-2,3,-4,5,-6,7,-2)")
    ]
    for idx in indices:
        lc, ref = expand_t1(idx), _reference_expand_t1(idx)
        assert lc == ref, idx
        assert_same_text(lc.json_terms(), ref.json_terms(), repr(idx))
        assert list(lc._d) == [t for t, _ in lc.items()], idx


def _writes(*words):
    """A stand-in for ``letter_product`` whose product is ``words``, each of
    multiplicity 1, as str words over the sorted letters they hold."""
    letters = sorted({x for word in words for x in word})
    product = {"".join(chr(letters.index(x)) for x in word): 1 for word in words}
    return lambda _: (letters, product)


@pytest.mark.parametrize("word,message", [((3, 3), "weight leak: "), ((1, 1, 1), "depth leak: ")])
def test_t1_checks_every_word(monkeypatch, word, message):
    # a kernel word of the wrong weight or depth never reaches the result
    monkeypatch.setattr(expansion, "letter_product", _writes(word))
    with pytest.raises(AssertionError, match="^" + message):
        expand_t1(parse_index("S(3,2)"))


def test_t1_checks_slots(monkeypatch):
    # a word with a zero slot has the right weight and depth, and is still
    # caught, although its atom is built without the slot checks
    monkeypatch.setattr(expansion, "letter_product", _writes((0, 3)))
    with pytest.raises(AssertionError, match=r"^inadmissible atom: z\(3,0,3\) "):
        expand_t1(parse_index("S(1,2,3)"))


def test_t1_words_checks_before_it_returns(monkeypatch):
    # the enumeration cap and the word checks run when t1_words is called,
    # before either consumer builds an atom or writes a piece
    with pytest.raises(DegreeCapError):
        t1_words(parse_index("S(1,2,3,4,5,6,7,8,9,2)"))
    monkeypatch.setattr(expansion, "letter_product", _writes((3, 3)))
    with pytest.raises(AssertionError, match="^weight leak: "):
        t1_words(parse_index("S(3,2)"))


def test_t1_words_asserts_order_and_distinctness(monkeypatch):
    # blocks out of order fail on their slots, a repeated word on the words;
    # either is caught by t1_words, so expand_t1 builds no atom
    idx = parse_index("S(1,3,-2,-4,-3)")
    blocks = expansion._t1_blocks
    monkeypatch.setattr(expansion, "_t1_blocks", lambda words, letters, lead: blocks(words, letters, lead)[::-1])
    for prepare in (t1_words, expand_t1):
        with pytest.raises(AssertionError, match="^atoms out of term order or repeated in expansion of S"):
            prepare(idx)

    def with_a_repeated_word(words, letters, lead):
        words.insert(5, words[5])
        return blocks(words, letters, lead)

    monkeypatch.setattr(expansion, "_t1_blocks", with_a_repeated_word)
    for prepare in (t1_words, expand_t1):
        with pytest.raises(AssertionError, match="^atoms out of term order or repeated in expansion of S"):
            prepare(idx)


@pytest.mark.parametrize(
    "kernel,message",
    [
        (_writes((4,)), "weight leak: z(2,4) in expansion of S(3,2)"),
        (_writes((1, 2)), "depth leak: z(2,1,2) in expansion of S(3,2)"),
        # a character that stands for no letter has no atom to name
        (lambda _: ([3], {"\x00\x01": 1}),
         r"inadmissible atom: letter '\x01' is outside the alphabet [3] in expansion of S(3,2)"),
    ],
    ids=["weight", "extra letter", "outside the alphabet"],
)
def test_t1_checks_each_fault_alone(monkeypatch, kernel, message):
    # a word of the wrong weight alone, one letter too many at the right
    # weight, and a character past the alphabet
    monkeypatch.setattr(expansion, "letter_product", kernel)
    for prepare in (t1_words, expand_t1):
        with pytest.raises(AssertionError) as caught:
            prepare(parse_index("S(3,2)"))
        assert str(caught.value) == message


# Magnitudes past U+FFFF and past U+10FFFF: a str word's characters index its
# alphabet, so no letter is ever written as its own code point.
wide_entries = st.sampled_from([1, 2, 3, 70000, 1114112]).flatmap(lambda m: st.sampled_from([m, -m]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(wide_entries, max_size=5), st.sampled_from([2, 3, -1, -2, 70000, -1114112]))
@example([1114112, -70000, 3], -2)
@example([70000, 70000, -1114112], 1114112)
@example([], -1114112)
def test_t1_over_its_alphabet_matches_the_tuple_reference(inner, outer):
    # the atoms, their order and the streamed JSON text all equal t1 as it was
    # written on tuple words
    idx = make_index(inner, outer)
    lc, ref = expand_t1(idx), _reference_expand_t1(idx)
    assert lc == ref
    assert list(lc._d) == [t for t, _ in ref.items()]
    assert "[" + ", ".join(t1_json_pieces(t1_words(idx))) + "]" == ref.json_terms()


@pytest.mark.parametrize(
    "entries,size",
    [
        ([5] * 21, 21),
        ([-5] * 21, 21),
        ([1, 2, 4, 8, 16, 32, 64, 128], 255),
        ([1, -2, 4, -8, 16, -32, 64, -128], 255),
    ],
)
def test_alphabet_fits_in_code_points_at_the_cap(entries, size):
    # 21 equal entries have 2^20 ordered partitions, the cap; 8 entries with
    # distinct sub-multiset sums have 545 835.  Each nonempty sub-multiset
    # gives at most one letter and is the first block of an ordered partition
    _check_size(entries)
    letters, _ = alphabet([(e,) for e in entries])
    assert letters == sorted(set(letters)) and 0 not in letters
    assert len(letters) == size < ordered_partition_count(entries) <= PARTITION_CAP < 0x110000


# Runs in a fresh interpreter: how far the peak RSS (KiB) grows while the
# measured call runs, and the SHA-256 of the result as JSON.  "letters"
# measures the str product of the comma-separated entries, hashed as its
# alphabet and its sorted (word, multiplicity) pairs.  "json" measures
# expand_t1 and the JSON text that json_terms() writes from its result; "cli"
# measures `eulersum expand --output json` with stdout sent to /dev/null, and
# hashes the whole document, written again afterwards.  The peak is VmHWM,
# which starts afresh at exec; on Linux, getrusage's ru_maxrss starts from the
# peak of the process that forked the interpreter.
_MEASURE = """
import contextlib, hashlib, io, json, os, re, sys
from eulersums import cli, parse_index
from eulersums.expansion import expand_t1
from eulersums.words import letter_product, quasi_shuffle

def peak_kib():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", f.read()).group(1))

def expand_json(out):
    with contextlib.redirect_stdout(out):
        assert cli.main(["expand", "--output", "json", sys.argv[2]]) == 0

before = peak_kib()
if sys.argv[1] == "kernel":
    result = quasi_shuffle((e,) for e in range(1, int(sys.argv[2]) + 1))
elif sys.argv[1] == "letters":
    letters, product = letter_product((int(e),) for e in sys.argv[2].split(","))
elif sys.argv[1] == "cli":
    with open(os.devnull, "w") as out:
        expand_json(out)
else:
    result = expand_t1(parse_index(sys.argv[2]))
    if sys.argv[1] == "json":
        text = result.json_terms()
grown = peak_kib() - before
if sys.argv[1] == "cli":
    out = io.StringIO()
    expand_json(out)
    text = out.getvalue()
elif sys.argv[1] == "letters":
    text = json.dumps([letters, sorted(product.items())])
elif sys.argv[1] != "json":
    data = result.to_json_terms() if sys.argv[1] == "t1" else sorted(result.items())
    text = json.dumps(data)
print(grown, hashlib.sha256(text.encode()).hexdigest())
"""


def _python(*argv) -> str:
    """The stdout of a fresh interpreter run with ``argv``, this package on its path."""
    src = os.path.dirname(os.path.dirname(eulersums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True).stdout


def _measure(*argv) -> tuple[int, str]:
    grown, digest = _python("-c", _MEASURE, *argv).split()
    return int(grown), digest


# Runs under python -O, which strips assert statements: each check must still
# fail with its message.  Prints the interpreter's optimize flag, then one
# message per check.
_UNDER_O = """
import sys
from eulersums import expansion, parse_index
from eulersums.algebra import LinComb, z
from eulersums.reduction import reduce_lincomb

def fails(call, *args):
    try:
        call(*args)
    except AssertionError as e:
        print(e)
    else:
        print("no check failed")

print(sys.flags.optimize)
product, blocks = expansion.letter_product, expansion._t1_blocks
expansion.letter_product = lambda words: ([3], {chr(0) * 2: 1})
fails(expansion.expand_t1, parse_index("S(3,2)"))
expansion.letter_product = product
expansion._t1_blocks = lambda words, letters, lead: blocks(words, letters, lead)[::-1]
fails(expansion.expand_t1, parse_index("S(1,3,-2,-4,-3)"))
expansion._t1_blocks = blocks
expansion.z, expansion.quasi_shuffle = lambda s: z(2), lambda words: {(): 1}
fails(expansion.expand_t2, parse_index("S(2,3,2)"))
leak = ("leak", lambda a: LinComb.of_atom(z(2)) if a == z(2, 3) else None, range(2, 3))
fails(reduce_lincomb, LinComb.of_atom(z(2, 3)), (), [leak])
"""


def test_checks_survive_python_O():
    # the correctness checks are raised, not asserted
    assert _python("-O", "-c", _UNDER_O).splitlines() == [
        "1",
        "weight leak: z(2,3,3) in expansion of S(3,2)",
        "atoms out of term order or repeated in expansion of S(1,3,-2,-4,-3)",
        "two keys gave one term in expansion of S(2,3,2)",
        "weight leak rewriting z(2,3): [2] != 5",
    ]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize(
    "argv,bound_mib,digest",
    [
        # 58 004 terms; 28.0 MiB when every atom recomputed its weight and the
        # kernel kept every sub-multiset product, 20.2 MiB when each one-atom
        # term was wrapped in a SymbolicTerm and a tuple, 13.6-13.9 MiB from
        # t1's atom stream, 14.0 MiB built block by block from t1's words
        (("t1", "S(1,2,3,4,5,6,7,2)"), 19,
         "01851e5c5f92d2b0e4bf88d284871b5f881a46955c819ab4a1e6e61d5e01b05d"),
        # the kernel alone, 301 266 words: 84.6 MiB with every sub-multiset
        # product kept to the end, 41.5 MiB with one partial product at a time,
        # 51.4 MiB with the str product read back into tuples
        (("kernel", "8"), 60,
         "4b3447045ed73ffe29d872613448c578cf791a8be770102deba0e58b7af4e90f"),
        # with the JSON text: 29.1-30.1 MiB when items() built a key tuple and a
        # pair for every term
        (("json", "S(1,2,3,4,5,6,7,2)"), 25,
         "01851e5c5f92d2b0e4bf88d284871b5f881a46955c819ab4a1e6e61d5e01b05d"),
        # the command, whose document is pinned in CI: 21.7 MiB when it built the
        # combination, the list of pieces and the whole document before writing,
        # 7.0 MiB streamed from t1's atoms, 6.5 MiB written from t1's words
        (("cli", "S(1,2,3,4,5,6,7,2)"), 14,
         "7010cfa0cbad85d51cbd2726a4bc2443efb457679eb4e89c9125b93dea57ffb2"),
        # the str product at the alphabet's edge for degree 8: distinct
        # sub-multiset sums, so 255 letters and 545 835 words, one per ordered
        # partition; 58.0 MiB
        (("letters", "1,2,4,8,16,32,64,128"), 70,
         "fa4662bdadafb20df9baa68d67eabb6ee24a67f7a2285ad18758e77017f49996"),
    ],
)
def test_expansion_peak_memory(argv, bound_mib, digest):
    grown_kib, got = _measure(*argv)
    assert got == digest
    assert grown_kib < bound_mib * 1024, f"peak grew by {grown_kib / 1024:.1f} MiB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_json_terms_frees_its_pieces():
    # 24.1-24.3 MiB when json_terms() kept its list of pieces alive through the
    # bracketed copy, 21.2-21.5 MiB now
    grown_kib, _ = _measure("json", "S(1,2,3,4,5,6,7,2)")
    assert grown_kib < 23 * 1024, f"peak grew by {grown_kib / 1024:.1f} MiB"


def _fubini(m):
    """Ordered Bell number, by recursion over the size of the first block."""
    fub = [1]
    for n in range(1, m + 1):
        fub.append(sum(math.comb(n, k) * fub[n - k] for k in range(1, n + 1)))
    return fub[m]


def test_ordered_bell_mass():
    # with m distinct values every weak ordering of the harmonic numbers'
    # summation variables is one path of the kernel, counted once
    for m in range(1, 6):
        product = expansion.quasi_shuffle((e,) for e in range(1, m + 1))
        assert sum(product.values()) == len(weak_orderings(m))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([1, 2, 3, -1, -2]), max_size=6))
@example([2, 2])
def test_partition_count_bounds_the_distinct_words(entries):
    # the multiplicities count labelled paths, Fubini(m); the ordered multiset
    # partitions count fewer paths when entries repeat ([2, 2]: 2 against 3),
    # and still no fewer than the distinct words
    product = expansion.quasi_shuffle((e,) for e in entries)
    assert sum(product.values()) == _fubini(len(entries))
    assert len(product) <= ordered_partition_count(entries) <= _fubini(len(entries))


def test_term_count_distinct_exponents():
    # with all inner exponents distinct each weak ordering contributes
    # coefficient 1 to each of the two atom shapes
    idx = make_index([1, 2, 4], 2)
    out = expand_t1(idx)
    total = sum(abs(c) for _, c in out.items())
    assert total == 2 * len(weak_orderings(3)) == 2 * 13


# -- the harmonic-number product at finite n ----------------------------------


def _harmonic_product(inner) -> dict[tuple[int, ...], int]:
    """The kernel's product of the one-letter words of ``inner`` as
    {word: coefficient}.  A barred harmonic factor sums (-1)^(k-1) where its
    slot carries sigma^k = (-1)^k, so each barred factor flips the sign."""
    sign = (-1) ** sum(1 for e in inner if e < 0)
    return {word: sign * c for word, c in expansion.quasi_shuffle((e,) for e in inner).items()}


def _at(product, n):
    """The combination of nested sums ``product`` truncated at n, exactly."""
    return sum((c * _mhs_prefix(word, n)[n] for word, c in product.items()), Fraction(0))


def test_harmonic_product_basics():
    assert _harmonic_product([3]) == {(3,): 1}
    assert _harmonic_product([1, 1]) == {(2,): 1, (1, 1): 2}


def test_harmonic_product_alternating_square():
    # the square of an alternating harmonic number, checked exactly at finite n
    product = _harmonic_product([-1, -1])
    for n in range(0, 18):
        assert _at(product, n) == alt_harmonic_exact(1, n) ** 2


def test_harmonic_product_finite_n_random():
    rng = random.Random(2024)
    for _ in range(25):
        deg = rng.randrange(1, 5)
        inner = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(deg)]
        product = _harmonic_product(inner)
        for n in (0, 1, 2, 5, 9, 13):
            direct = Fraction(1)
            for e in inner:
                direct *= (
                    harmonic_exact(e, n) if e > 0 else alt_harmonic_exact(-e, n)
                )
            assert _at(product, n) == direct, (inner, n)


def test_harmonic_product_degree_cap():
    # nine distinct entries: Fubini(9) ordered partitions, above the cap
    with pytest.raises(DegreeCapError, match="7087261"):
        expand_t1(make_index(range(1, 10), 2))
    # from 22 entries on, their 2^(m-1) compositions alone are above the cap,
    # which refuses without the exact count; 21 ones have exactly 2^20
    for inner in ([1] * 22, range(1, 801)):
        with pytest.raises(DegreeCapError, match=r"have at least 2\^%d ordered" % (len(inner) - 1)):
            expansion._check_size(inner)
    assert expansion._check_size([1] * 21) is None
    with pytest.raises(DegreeCapError, match="have %d ordered" % _fubini(21)):
        expansion._check_size(range(1, 22))
    # one value eleven times: 2**10 compositions, two atoms each
    out = expand_t1(make_index([1] * 11, 2))
    # the coefficients count the weak orderings of eleven labelled entries
    assert len(out) == 2 * 2**10 and sum(c for _, c in out.items()) == 2 * _fubini(11)


# -- tail-sum engine -----------------------------------------------------------


def test_t2_linear_form():
    for p, q in [(2, 2), (3, 5), (4, 2)]:
        got = expand_t2(make_index([p], q))
        assert got == lc((1, [z(p), z(q)]), (-1, [z(p, q)]))


def test_t2_quadratic_form():
    i1, i2, q = 2, 3, 4
    got = expand_t2(make_index([i1, i2], q))
    expect = lc(
        (1, [z(i1), z(i2), z(q)]),
        (-1, [z(i2), z(i1, q)]),
        (-1, [z(i1), z(i2, q)]),
        (1, [z(i1 + i2, q)]),
        (1, [z(i1, i2, q)]),
        (1, [z(i2, i1, q)]),
    )
    assert got == expect


def test_t2_shares_one_fraction_per_value():
    # as expand_t1 does, so json_terms() writes each value's text once
    idx = parse_index("S(2,2,3,3,4,4,2)")
    got = expand_t2(idx)
    assert len(got) == 1439 and sum(len(t.factors) > 1 for t in got._d) == 754
    assert len(set(got._d.values())) == 14
    assert len({id(c) for c in got._d.values()}) == 14
    assert linearize(got) == expand_t1(idx)


def test_t2_linearizes_to_t1_over_the_maple_range():
    # the paper's Maple programs reach weight 11 on non-alternating sums: on
    # every index of weight <= 11 that t2 covers (no barred entry, every entry
    # >= 2, the depth-0 sums included) its products multiplied out are t1's
    indices = [idx for idx in paper_range() if min(idx.inner + (idx.outer,)) >= 2]
    assert len(indices) == 97 and sum(idx.degree == 0 for idx in indices) == 10
    for idx in indices:
        assert linearize(expand_t2(idx)) == expand_t1(idx), idx


def test_t2_hypothesis_errors():
    with pytest.raises(UnsupportedHypothesisError):
        expand_t2(make_index([1, 2], 3))
    with pytest.raises(UnsupportedHypothesisError):
        expand_t2(make_index([-2], 3))
    with pytest.raises(UnsupportedHypothesisError):
        expand_t2(make_index([2], -3))


def test_t2_refuses_exactly_off_its_hypotheses():
    # over every convergent index to weight 6: refused iff alternating or some
    # entry, inner or outer, below 2; a combination otherwise
    indices, refused = convergent_indices(6), 0
    for idx in indices:
        if idx.is_alternating or min(idx.inner + (idx.outer,)) < 2:
            with pytest.raises(UnsupportedHypothesisError):
                expand_t2(idx)
            refused += 1
        else:
            assert isinstance(expand_t2(idx), LinComb), idx
    assert 0 < refused < len(indices)


# -- repeated exponents ---------------------------------------------------------


def _multinomial(m, parts):
    return math.factorial(m) // math.prod(math.factorial(p) for p in parts)


def _repeated_t1_formula(r, m, outer):
    """S({r}_m, outer) summed over compositions of m: a block of width w
    holds w copies, chosen in multinomial ways."""
    q, outer_bar, r_bar = abs(outer), outer < 0, r < 0
    if m == 0:
        return LinComb.of_atom(z(q)) if not outer_bar else LinComb.of_atom(z(-q), -1)
    sign = (-1) ** ((m if r_bar else 0) + outer_bar)
    acc = Counter()
    for comp in compositions(m):
        tail = tuple(-abs(r) * w if r_bar and w % 2 else abs(r) * w for w in comp)
        merged = q + abs(r) * comp[0]
        if (r_bar and comp[0] % 2 == 1) ^ outer_bar:
            merged = -merged
        for args in (((-q if outer_bar else q),) + tail, (merged,) + tail[1:]):
            acc[SymbolicTerm.of(MzvAtom(args=args))] += sign * _multinomial(m, comp)
    return LinComb(acc)


def _repeated_t2_formula(r, m, q):
    acc = LinComb()
    for l in range(m + 1):
        prefix = SymbolicTerm.of(*([z(r)] * (m - l)))
        outer_coeff = (-1) ** l * math.comb(m, l)
        comps = list(compositions(l)) if l else [()]
        for comp in comps:
            atom = MzvAtom(args=tuple(r * w for w in comp) + (q,))
            coeff = outer_coeff * _multinomial(l, comp)
            acc = acc + LinComb({prefix.mul(SymbolicTerm.of(atom)): coeff})
    return acc


@pytest.mark.parametrize("r", [1, 2, 3, -1, -2])
@pytest.mark.parametrize("outer", [2, 5, -1, -3])
def test_repeated_t1_equals_general(r, outer):
    # the single-value case of the kernel is the composition formula
    for m in range(0, 7):
        idx = make_index([r] * m, outer)
        assert expand_t1(idx) == _repeated_t1_formula(r, m, outer), (r, m, outer)


def test_repeated_t2_equals_general():
    for r, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for m in range(0, 5):
            idx = make_index([r] * m, q)
            assert expand_t2(idx) == _repeated_t2_formula(r, m, q), (r, m, q)
            assert linearize(expand_t2(idx)) == expand_t1(idx), (r, m, q)


def test_repeated_t1_m2_display():
    # S_{r^2,r} against the displayed four-term form
    r = 4
    got = expand_t1(make_index([r, r], r))
    expect = lc(
        (1, [z(r, 2 * r)]),
        (1, [z(3 * r)]),
        (2, [z(r, r, r)]),
        (2, [z(2 * r, r)]),
    )
    assert got == expect


def test_repeated_t2_small():
    assert expand_t2(make_index([], 5)) == lc((1, [z(5)]))
    assert expand_t2(make_index([3], 5)) == lc((1, [z(3), z(5)]), (-1, [z(3, 5)]))
    with pytest.raises(UnsupportedHypothesisError):
        expand_t2(make_index([1, 1], 5))


def test_repeated_t1_large_multiplicity():
    # fourteen copies of one value: 2**13 compositions, far below the cap
    out = expand_t1(make_index([2] * 14, 3))
    assert len(out) == 2 * 2**13
    assert all(atom.weight == 31 for t, _ in out.items() for atom in t.factors)
    assert out == _repeated_t1_formula(2, 14, 3)
