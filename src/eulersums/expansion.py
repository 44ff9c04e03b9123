"""Expansion of (alternating) Euler sums into exact combinations of MZV atoms.

Every expansion path rests on one product: a product of harmonic numbers,
or of multiple zeta values, multiplied out as nested sums.  That product is
the quasi-shuffle (stuffle) of words (Hoffman, *Quasi-shuffle products*),
computed by ``_quasi_shuffle`` one word at a time.  Each letter of a
product word is a letter of one factor or the merge of one letter from each
of two: the merged letter's magnitude is their magnitude sum, and it
alternates exactly when one of the two does (sigma^n * sigma^n = 1).

Engine t1 multiplies the one-letter words of the inner exponents.  Each
resulting word contributes two atoms: one keeping the outer exponent as its
own leading slot and one merging it with the first letter; the words are
sorted once, so that the atoms are emitted in term order.  Alternating
harmonic factors carry a sign -1 each (they sum (-1)^(k-1), the slots
sigma^k), and an alternating outer series flips the merge parity and the
global sign.

Engine t2 applies only to non-alternating indices with all exponents >= 2:
each harmonic factor is split as (limit - tail), the product is expanded by
inclusion-exclusion over the factors contributing their tail, and the tail
product is the quasi-shuffle of those factors followed by the outer
exponent, multiplied by depth-1 zeta factors.

Both engines emit raw output: no identities are applied.  ``linearize``
multiplies out the products of atoms that t2 emits; for every index t2
covers, the linearized t2 output equals the t1 output exactly, because both
split the same absolutely convergent sum into strict-order cells.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

from .algebra import UNIT_TERM, LinComb, MzvAtom, Refusal, SymbolicTerm, Term, z
from .indices import EulerSumIndex

# Largest number of ordered multiset partitions of the inner entries that an
# expansion accepts: Fubini(8) = 545 835 fits, Fubini(9) = 7 087 261 does not.
PARTITION_CAP = 2**20


class UnsupportedHypothesisError(Refusal, ValueError):
    """The index falls outside the engine's hypotheses."""


class DegreeCapError(Refusal, ValueError):
    """The expansion of the index is too large to enumerate."""


def ordered_partition_count(entries) -> int:
    """Number of ordered partitions of the multiset ``entries`` into
    nonempty sub-multisets.  Each word of their quasi-shuffle product comes
    from at least one, its letters the blocks' signed sums, so this bounds
    the number of distinct words.  It is not the sum of their
    multiplicities: that counts the ordered partitions of the m entries as
    labelled, Fubini(m), which is larger when entries repeat ([2, 2] has 2
    ordered multiset partitions, (2|2) and (2,2), but multiplicity sum 3).

    Inclusion-exclusion over empty blocks: sum over j blocks and i of them
    forced empty of (-1)^i C(j,i) prod_v C(c_v + j-i-1, c_v), where c_v is the
    multiplicity of value v.  Fubini(m) for m distinct entries, 2^(m-1) for
    one value repeated m times.
    """
    counts = Counter(entries).values()
    m = sum(counts)
    return sum(
        (-1) ** i
        * math.comb(j, i)
        * math.prod(math.comb(c + j - i - 1, c) for c in counts)
        for j in range(m + 1)
        for i in range(j + 1)
    )


def _check_size(inner):
    count = ordered_partition_count(inner)
    if count > PARTITION_CAP:
        raise DegreeCapError(
            "the %d inner entries have %d ordered partitions, above the enumeration cap %d",
            len(inner), count, PARTITION_CAP,
        )


def _quasi_shuffle(words) -> dict[tuple[int, ...], int]:
    """The quasi-shuffle product of ``words`` as {word: multiplicity}.

    Words are tuples of signed letters (negative = alternating).  They are
    multiplied one at a time, in sorted order, so only the product one word
    shorter is held while the next is formed.  Every call forms its product
    afresh: nothing is kept between calls.
    """
    product = {(): 1}
    for u in sorted(w for w in words if w):
        out: dict[tuple[int, ...], int] = {}
        for v, c in product.items():
            for word in _stuffle(u, v):
                out[word] = out.get(word, 0) + c
        product = out
    return product


def _stuffle(u: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The quasi-shuffle of the nonempty word ``u`` with ``v``, one word per
    path (a word may recur).  The first letter x of ``u`` either goes just
    before letter i of ``v`` (or after its last) or merges with letter i; the
    rest of ``u`` is then shuffled into the letters of ``v`` that follow.
    Each word is one concatenation, head + letter + tail, in that order."""
    x, rest = u[0], u[1:]
    xt = (x,)
    out = []
    for i in range(len(v) + 1):
        head, tail = v[:i], v[i:]
        if rest:
            out += [head + xt + t for t in _stuffle(rest, tail)]
        else:
            out.append(head + xt + tail)
        if tail:
            y = tail[0]
            mag = abs(x) + abs(y)
            yt = (-mag if (x < 0) ^ (y < 0) else mag,)  # the merged letter
            tail = tail[1:]
            if rest:
                out += [head + yt + t for t in _stuffle(rest, tail)]
            else:
                out.append(head + yt + tail)
    return out


def t1_terms(idx: EulerSumIndex) -> Iterator[tuple[MzvAtom, Fraction]]:
    """Ordering-class expansion: the (atom, coefficient) pair of each output
    term, one MZV atom each, in term order.

    The enumeration cap, the kernel and the checks of every word run before
    this returns; each atom is built when the iterator reaches it.  Every
    atom has weight equal to the index weight and depth at most degree + 1.
    The iterator asserts that each atom comes strictly after the one before
    it, so the atoms are distinct and in term order.
    """
    q = abs(idx.outer)
    outer_bar = idx.outer < 0
    if idx.degree == 0:
        # Pure outer series: sum of 1/n^q, or of (-1)^(n-1)/n^q.  The
        # alternating atom convention carries sigma^n, hence the -1.
        return iter([(z(-q), Fraction(-1)) if outer_bar else (z(q), Fraction(1))])
    _check_size(idx.inner)
    n_bar = sum(1 for e in idx.inner if e < 0)
    sign = (-1) ** (n_bar + outer_bar)
    lead = -q if outer_bar else q
    w, depth = idx.weight, idx.degree + 1
    # Each word gives two atoms.  Atom 1, (lead,) + word, keeps the outer
    # exponent as its own leading slot.  Atom 2, (m,) + word[1:], merges it
    # with the first letter f: m = +-(q + |f|), alternating iff exactly one
    # of the two does.  Atom 2 has atom 1's weight, a slot fewer and no new
    # zero slot or unsigned leading 1, so checking atom 1 checks both: each
    # word is checked once, and its atom rendered only for the message.  The
    # atoms are built without the checks of ``MzvAtom``; the asserts keep them.
    product = _quasi_shuffle((e,) for e in idx.inner)

    def atom_1(word):
        return MzvAtom._of_word((lead,) + word, w)

    for word in product:
        assert sum(map(abs, word)) == w - q, f"weight leak: {atom_1(word)} in expansion of {idx}"
        assert len(word) < depth, f"depth leak: {atom_1(word)} in expansion of {idx}"
        assert lead != 1 and 0 not in word, f"inadmissible atom: {atom_1(word)} in expansion of {idx}"
    # Each atom's coefficient is its word's multiplicity; equal ones share
    # one Fraction.
    coeffs = {c: Fraction(sign * c) for c in set(product.values())}
    words = sorted(product)
    cs = list(map(coeffs.__getitem__, map(product.__getitem__, words)))
    del product
    return itertools.chain.from_iterable(_t1_runs(idx, lead, words, cs))


def _t1_blocks(words: list[tuple[int, ...]], lead: int) -> list[tuple[int, int, int]]:
    """The blocks of t1's atoms in term order, each (leading slot, i, j).

    For atoms of one weight term order is slot order.  In word order atom 1
    is in slot order, and so is atom 2 within each run words[i:j] of one
    first letter.  Distinct first letters give distinct leading slots m, and
    no m is +-q, so the atom-1 block, all of ``words``, and the runs are
    placed by leading slot."""
    q = abs(lead)
    blocks = [(lead, 0, len(words))]
    i = 0
    while i < len(words):
        first = words[i][0]
        j = bisect.bisect_left(words, (first + 1,), i)
        merged = q + abs(first)
        blocks.append((-merged if (first < 0) ^ (lead < 0) else merged, i, j))
        i = j
    return sorted(blocks)


def _t1_runs(idx: EulerSumIndex, lead: int, words: list, cs: list[Fraction]):
    """For each block, an iterator of its (atom, coefficient) pairs.

    A block's slot tuples are made in one list, asserted to rise strictly
    from above the last tuple of the block before.  So no two words give
    one atom (atom 1 leads with +-q, atom 2 with +-(q + |f|), and within
    each family the atom determines its word), and the atoms come in term
    order.  A word is dropped once the slot tuples of both its atoms are
    made; each atom is built from its tuple when it is read, as
    ``MzvAtom._of_word`` builds it, without the checks of ``MzvAtom``."""
    atom = functools.partial(tuple.__new__, MzvAtom)
    w = idx.weight
    last = ()  # before every slot tuple
    pending = []  # runs whose atom 2 has its slot tuples but whose atom 1 has not
    for slot, i, j in _t1_blocks(words, lead):
        if slot == lead:
            run = [(lead,) + word for word in words]
            coeffs = cs
        else:
            run = [(slot,) + word[1:] for word in words[i:j]]
            coeffs = cs[i:j]
            pending.append((i, j))
        assert last < run[0] and all(map(operator.lt, run, run[1:])), (
            f"atoms out of term order or repeated in expansion of {idx}")
        last = run[-1]
        if slot >= lead:  # the words of the pending runs have both slot tuples
            for i, j in pending:
                words[i:j] = [None] * (j - i)
            pending.clear()
        yield zip(map(atom, zip(itertools.repeat(0), itertools.repeat(w), run)), coeffs)


def expand_t1(idx: EulerSumIndex) -> LinComb:
    """``t1_terms`` as a combination.  Its terms are stored in term order,
    so ``LinComb.items()`` sorts one presorted run."""
    return LinComb._of_nonzero(dict(t1_terms(idx)))


def expand_t2(idx: EulerSumIndex) -> LinComb:
    """Tail-sum expansion; needs all inner exponents >= 2 and outer >= 2."""
    if idx.is_alternating:
        raise UnsupportedHypothesisError("engine t2 does not cover alternating indices: %s", idx)
    if any(e < 2 for e in idx.inner):
        raise UnsupportedHypothesisError("engine t2 needs every inner exponent >= 2: %s", idx)
    _check_size(idx.inner)
    q = idx.outer
    counts = sorted(Counter(idx.inner).items())
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    # Sub-multisets of the inner entries take their tail; choosing k of the
    # c copies of a value happens C(c, k) ways.
    for chosen in itertools.product(*(range(c + 1) for _, c in counts)):
        tails = [(e,) for (e, _), k in zip(counts, chosen) for _ in range(k)]
        rest = tuple(e for (e, c), k in zip(counts, chosen) for _ in range(c - k))
        coeff = (-1) ** len(tails) * math.prod(
            math.comb(c, k) for (_, c), k in zip(counts, chosen)
        )
        # Each key is set once: the chosen sub-multiset fixes rest, and the
        # words of one product are distinct.
        for word, c in _quasi_shuffle(tails).items():
            acc[rest, word + (q,)] = coeff * c
    # Distinct keys give distinct terms (the word's atom is the one factor of
    # depth >= 2, if any), so equal counts share one Fraction, as in expand_t1.
    coeffs: dict[int, Fraction] = {}
    terms: dict[Term, Fraction] = {}
    for (rest, word), c in acc.items():
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = Fraction(c)
        terms[SymbolicTerm.of(*map(z, rest), MzvAtom(word))] = coeff
    assert len(terms) == len(acc), f"two keys gave one term in expansion of {idx}"
    return LinComb._of_nonzero(terms)


def linearize(lc: LinComb) -> LinComb:
    """Multiply out every product of zeta atoms by the quasi-shuffle, so that
    each term of the result is a single atom (or the unit term)."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for term, c in lc.items():
        if any(a.li for a in term.factors):
            raise ValueError(f"cannot linearize the Li constant in {term.render()}")
        for word, k in _quasi_shuffle(a.args for a in term.factors).items():
            acc[word] = acc.get(word, 0) + c * k
    return LinComb._of_nonzero(
        {(MzvAtom(w) if w else UNIT_TERM): c for w, c in acc.items() if c}
    )

