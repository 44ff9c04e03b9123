"""Expansion of (alternating) Euler sums into exact combinations of MZV atoms.

Every expansion path rests on one product, the quasi-shuffle (stuffle) of
signed words, which ``words`` owns (``letter_product``, ``quasi_shuffle``,
``merge``).

Engine t1 multiplies the one-letter words of the inner exponents, as str
words over the product's alphabet (``letter_product``).  Each resulting
word contributes two atoms: one keeping the outer exponent as its own
leading slot and one merging it with the first letter; the words are
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

from .algebra import _JSON_HEAD, _JSON_TAIL, UNIT_TERM, LinComb, MzvAtom, Refusal, SymbolicTerm, Term, z
from .indices import EulerSumIndex
from .words import letter_product, merge, quasi_shuffle

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
    if 2 ** (len(inner) - 1) > PARTITION_CAP:  # each composition of the entries is an ordered partition
        count = "at least 2^%d" % (len(inner) - 1)
    elif (count := ordered_partition_count(inner)) <= PARTITION_CAP:
        return
    raise DegreeCapError("the %d inner entries have %s ordered partitions, above the enumeration cap %d",
                         len(inner), count, PARTITION_CAP)


def t1_words(idx: EulerSumIndex):
    """Engine t1's kernel words, checked and laid out in term order, for
    ``expand_t1`` to build atoms from and ``t1_json_pieces`` to write text
    from: (lead, letters, words, cs, coeffs, blocks).  ``words`` are the
    str words of ``letter_product``, over ``letters``, sorted; ``cs[k]`` is
    the coefficient of both atoms of ``words[k]``, ``coeffs`` holds the
    distinct ones, one ``Fraction`` per multiplicity, and ``blocks`` is
    ``_t1_blocks``.  The enumeration cap, the kernel and every check run here.

    Each word gives two atoms.  Atom 1, (lead,) + word, keeps the outer
    exponent as its own leading slot.  Atom 2, (m,) + word[1:], merges it
    with the first letter f: m = merge(lead, f).  Atom 2 has atom 1's
    weight, a slot fewer and no new zero slot or unsigned leading 1, so
    checking atom 1 checks both.  Every word's weight and depth are checked
    at once, and the words are walked one by one only to name a failing
    one's atom; a zero letter is looked for only if ``letters``, which holds
    every letter a word can contain, has one.
    """
    q = abs(idx.outer)
    outer_bar = idx.outer < 0
    _check_size(idx.inner)
    n_bar = sum(1 for e in idx.inner if e < 0)
    sign = (-1) ** (n_bar + outer_bar)  # at degree 0 the empty word gives z(lead) alone
    lead = -q if outer_bar else q
    w, depth = idx.weight, idx.degree + 1
    letters, product = letter_product((e,) for e in idx.inner)
    chars = list(map(chr, range(len(letters))))
    mags = functools.partial(map, dict(zip(chars, map(abs, letters))).__getitem__)
    try:
        weights = set(map(sum, map(mags, product)))
    except KeyError as outside:
        raise AssertionError(f"inadmissible atom: letter {outside} is outside the alphabet {letters} "
                             f"in expansion of {idx}") from None
    zero = chars[letters.index(0)] if 0 in letters else None
    if weights != {w - q} or max(map(len, product)) >= depth or lead == 1 or zero:
        for word in product:
            check = ("weight leak" if sum(mags(word)) != w - q else
                     "depth leak" if len(word) >= depth else
                     "inadmissible atom" if lead == 1 or zero and zero in word else None)
            if check:
                atom = MzvAtom._of_word((lead, *(letters[ord(ch)] for ch in word)), w)
                raise AssertionError(f"{check}: {atom} in expansion of {idx}")
    coeffs = {c: Fraction(sign * c) for c in set(product.values())}
    words = sorted(product)
    cs = list(map(coeffs.__getitem__, map(product.__getitem__, words)))
    del product
    blocks = _t1_blocks(words, letters, lead)
    # A block's slot tuples all lead with its slot, then follow its words (for
    # atom 2, after the first letter, which the run shares).  So the atoms are
    # distinct and in term order iff the words and block slots rise strictly.
    slots = [slot for slot, _, _ in blocks]
    if not (all(map(operator.lt, words, words[1:])) and all(map(operator.lt, slots, slots[1:]))):
        raise AssertionError(f"atoms out of term order or repeated in expansion of {idx}")
    return lead, letters, words, cs, coeffs.values(), blocks


def _t1_blocks(words: list[str], letters: list[int], lead: int) -> list[tuple[int, int, int]]:
    """The blocks of t1's atoms in term order, each (leading slot, i, j).

    For atoms of one weight term order is slot order.  In word order atom 1
    is in slot order, and so is atom 2 within each run words[i:j] of one
    first letter.  Distinct first letters give distinct leading slots m, and
    no m is +-lead, so the atom-1 block, all of ``words``, and the runs are
    placed by leading slot."""
    blocks = [(lead, 0, len(words))]
    i = 0 if words[0] else 1  # the empty word, degree 0's one word, has no atom 2
    while i < len(words):
        first = ord(words[i][0])
        j = bisect.bisect_left(words, chr(first + 1), i)
        blocks.append((merge(lead, letters[first]), i, j))
        i = j
    return sorted(blocks)


def expand_t1(idx: EulerSumIndex) -> LinComb:
    """Ordering-class expansion: the atoms of ``t1_words``, block by block,
    built as ``MzvAtom._of_word`` builds them.  Each word is read once, in
    place, into its atom 1's slots, (lead,) + its letters; atom 2's slots
    are then (m,) + those after the first two.  Its terms are stored in term
    order, so ``LinComb.items()`` sorts one presorted run."""
    lead, letters, words, cs, _, blocks = t1_words(idx)
    letter = dict(zip(map(chr, range(len(letters))), letters)).__getitem__
    for k, word in enumerate(words):
        words[k] = (lead, *map(letter, word))
    atom = functools.partial(tuple.__new__, MzvAtom)
    zeta, weight = itertools.repeat(0), itertools.repeat(idx.weight)
    terms: dict[Term, Fraction] = {}
    for slot, i, j in blocks:
        if slot == lead:
            run, coeffs = words, cs
        else:
            run, coeffs = [(slot,) + args[2:] for args in words[i:j]], cs[i:j]
        terms.update(zip(map(atom, zip(zeta, weight, run)), coeffs))
    return LinComb._of_nonzero(terms)


def t1_json_pieces(t1) -> Iterator[str]:
    """``json_pieces`` of ``expand_t1(idx).items()``, written from ``t1 =
    t1_words(idx)`` without an atom or a tuple of letters: each word's slot
    text, ",a,b,c", is one ``str.translate`` of the word, made when the
    first piece is read, and an atom's piece is its block's head, its word's
    text (atom 2's cut after the first letter) and the text after the
    factors, made once per multiplicity."""
    lead, letters, words, cs, coeffs, blocks = t1
    slot_texts = [",%d" % x for x in letters]
    texts = [word.translate(slot_texts) for word in words]
    tails = {id(c): ')"' + _JSON_TAIL % c for c in coeffs}
    ts = list(map(tails.__getitem__, map(id, cs)))
    for slot, i, j in blocks:
        head = _JSON_HEAD + '"z(%d' % slot
        if slot == lead:
            cut, run = 0, zip(texts, ts)
        else:  # atom 2: the text after the first letter
            cut, run = len(slot_texts[ord(words[i][0])]), zip(texts[i:j], ts[i:j])
        yield from (head + t[cut:] + tail for t, tail in run)


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
        for word, c in quasi_shuffle(tails).items():
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
    if len(terms) != len(acc):
        raise AssertionError(f"two keys gave one term in expansion of {idx}")
    return LinComb._of_nonzero(terms)


def linearize(lc: LinComb) -> LinComb:
    """Multiply out every product of zeta atoms by the quasi-shuffle, so that
    each term of the result is a single atom (or the unit term)."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for term, c in lc.items():
        if any(a.li for a in term.factors):
            raise ValueError(f"cannot linearize the Li constant in {term.render()}")
        for word, k in quasi_shuffle(a.args for a in term.factors).items():
            acc[word] = acc.get(word, 0) + c * k
    return LinComb._of_nonzero(
        {(MzvAtom(w) if w else UNIT_TERM): c for w, c in acc.items() if c}
    )

