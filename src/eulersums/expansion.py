"""Expansion of (alternating) Euler sums into exact combinations of MZV atoms.

Every expansion path rests on one product: a product of harmonic numbers,
or of multiple zeta values, multiplied out as nested sums.  That product is
the quasi-shuffle (stuffle) of words (Hoffman, *Quasi-shuffle products*),
computed by ``_quasi_shuffle``.  Its first letter merges the first letters of
a nonempty sub-multiset of the words: the letter's magnitude is their
magnitude sum, and it alternates exactly when an odd number of them do
(sigma^n * sigma^n = 1).  The rest of the word is the product of what is
left.

Engine t1 multiplies the one-letter words of the inner exponents.  Each
resulting word contributes two atoms: one keeping the outer exponent as its
own leading slot and one merging it with the first letter.  Alternating
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

``expand_harmonic_product`` exposes the n-independent core of engine t1: the
expansion of a finite product of (alternating) generalized harmonic numbers
as a combination of multiple harmonic sums.  Substituting any finite n and
evaluating exactly reproduces the product; the test suite uses this as the
ground-truth oracle for the kernel.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .algebra import UNIT_TERM, LinComb, MzvAtom, SymbolicTerm, z
from .indices import EulerSumIndex

# Largest number of ordered multiset partitions of the inner entries that an
# expansion accepts: Fubini(8) = 545 835 fits, Fubini(9) = 7 087 261 does not.
PARTITION_CAP = 2**20


class UnsupportedHypothesisError(ValueError):
    """The index falls outside the engine's hypotheses."""


class DegreeCapError(ValueError):
    """The expansion of the index is too large to enumerate."""


def ordered_partition_count(entries) -> int:
    """Number of ordered partitions of the multiset ``entries`` into
    nonempty blocks: the number of paths the quasi-shuffle kernel walks.

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
            f"the {len(inner)} inner entries have {count} ordered partitions, "
            f"above the enumeration cap {PARTITION_CAP}"
        )


def _quasi_shuffle(words, memo=None) -> dict[tuple[int, ...], int]:
    """The quasi-shuffle product of ``words`` as {word: multiplicity}.

    Words are tuples of signed letters (negative = alternating).  ``memo``
    maps a multiset of words to its product; pass one dict to share work
    across several products.
    """
    if memo is None:
        memo = {}
    return _product(tuple(sorted(Counter(w for w in words if w).items())), memo)


def _product(state, memo):
    out = memo.get(state)
    if out is not None:
        return out
    if not state:
        return {(): 1}
    out = {}
    for chosen in itertools.product(*(range(c + 1) for _, c in state)):
        if not any(chosen):
            continue
        mult, mag, bars = 1, 0, 0
        rest: Counter = Counter()
        for (word, c), k in zip(state, chosen):
            if k < c:
                rest[word] += c - k
            if k:
                mult *= math.comb(c, k)
                mag += k * abs(word[0])
                bars += k * (word[0] < 0)
                if len(word) > 1:
                    rest[word[1:]] += k
        letter = -mag if bars % 2 else mag
        for tail, c in _product(tuple(sorted(rest.items())), memo).items():
            key = (letter,) + tail
            out[key] = out.get(key, 0) + mult * c
    memo[state] = out
    return out


def _add(acc: dict, key, c):
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def expand_harmonic_product(inner) -> dict[tuple[int, ...], Fraction]:
    """Expand a product of (alternating) harmonic numbers over nested sums.

    ``inner`` lists signed exponents: +i is the generalized harmonic number
    of order i, -i its alternating variant.  The result maps signed
    multiple-harmonic-sum indices (negative entry = alternating slot, with
    the sign convention sigma^n) to rational coefficients, independent of n.
    """
    inner = tuple(inner)
    if any(e == 0 for e in inner):
        raise ValueError("inner exponents must be nonzero")
    _check_size(inner)
    sign = (-1) ** sum(1 for e in inner if e < 0)
    return {
        word: Fraction(sign * c) for word, c in _quasi_shuffle((e,) for e in inner).items()
    }


def expand_t1(idx: EulerSumIndex) -> LinComb:
    """Ordering-class expansion: one MZV atom per output term.

    Every output atom has weight equal to the index weight and depth at most
    degree + 1.
    """
    q = abs(idx.outer)
    outer_bar = idx.outer < 0
    if idx.degree == 0:
        # Pure outer series: sum of 1/n^q, or of (-1)^(n-1)/n^q.  The
        # alternating atom convention carries sigma^n, hence the -1.
        return LinComb.of_atom(z(q)) if not outer_bar else LinComb.of_atom(z(-q), -1)
    _check_size(idx.inner)
    n_bar = sum(1 for e in idx.inner if e < 0)
    sign = (-1) ** (n_bar + outer_bar)
    lead = -q if outer_bar else q
    acc: dict[SymbolicTerm, Fraction] = {}
    for word, c in _quasi_shuffle((e,) for e in idx.inner).items():
        # Atom 1: the outer exponent keeps its own leading slot.  Atom 2: it
        # merges with the first letter, alternating iff exactly one of the
        # two does.
        first = word[0]
        merged = q + abs(first)
        if (first < 0) ^ outer_bar:
            merged = -merged
        for args in ((lead,) + word, (merged,) + word[1:]):
            _add(acc, SymbolicTerm((MzvAtom(args=args),)), sign * c)
    _assert_t1_shape(idx, acc)
    return LinComb(acc)


def _assert_t1_shape(idx: EulerSumIndex, terms):
    w = idx.weight
    for term in terms:
        (atom,) = term.factors
        assert atom.weight == w, f"weight leak: {atom} in expansion of {idx}"
        assert atom.depth <= idx.degree + 1


def expand_t2(idx: EulerSumIndex) -> LinComb:
    """Tail-sum expansion; needs all inner exponents >= 2 and outer >= 2."""
    if idx.outer < 0 or any(e < 0 for e in idx.inner):
        raise UnsupportedHypothesisError(
            f"engine t2 does not cover alternating indices: {idx}"
        )
    if any(e < 2 for e in idx.inner):
        raise UnsupportedHypothesisError(
            f"engine t2 needs every inner exponent >= 2: {idx}"
        )
    if idx.outer < 2:
        raise UnsupportedHypothesisError(f"engine t2 needs outer >= 2: {idx}")
    _check_size(idx.inner)
    q = idx.outer
    counts = sorted(Counter(idx.inner).items())
    memo: dict = {}
    acc: dict[SymbolicTerm, Fraction] = {}
    # Sub-multisets of the inner entries take their tail; choosing k of the
    # c copies of a value happens C(c, k) ways.
    for chosen in itertools.product(*(range(c + 1) for _, c in counts)):
        tails = [(e,) for (e, _), k in zip(counts, chosen) for _ in range(k)]
        rest = [z(e) for (e, c), k in zip(counts, chosen) for _ in range(c - k)]
        coeff = (-1) ** len(tails) * math.prod(
            math.comb(c, k) for (_, c), k in zip(counts, chosen)
        )
        prefix = SymbolicTerm.of(*rest)
        for word, c in _quasi_shuffle(tails, memo).items():
            _add(acc, prefix.mul(SymbolicTerm.of(MzvAtom(args=word + (q,)))), coeff * c)
    return LinComb(acc)


def linearize(lc: LinComb) -> LinComb:
    """Multiply out every product of zeta atoms by the quasi-shuffle, so that
    each term of the result is a single atom (or the unit term)."""
    memo: dict = {}
    acc: dict[SymbolicTerm, Fraction] = {}
    for term, c in lc.items():
        if any(a.li for a in term.factors):
            raise ValueError(f"cannot linearize the Li constant in {term.render()}")
        for word, k in _quasi_shuffle((a.args for a in term.factors), memo).items():
            _add(acc, SymbolicTerm((MzvAtom(args=word),)) if word else UNIT_TERM, c * k)
    return LinComb(acc)


def is_conditionally_convergent(idx: EulerSumIndex) -> bool:
    """Outer exponent -1: the defining series converges only conditionally."""
    return idx.outer == -1
