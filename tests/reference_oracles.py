"""Reference oracles used by the verification suite.

Each is a second route to a value that the package computes its own way:
zeta(s) through a partial sum and an Euler-Maclaurin tail, beside the
Hoelder words of ``numerics``; pi through Machin's arctangents, for
zeta(2) = pi^2 / 6; the exact harmonic numbers that the series walk
carries in fixed point; the atoms truncated at a finite N, exactly, at
which every expansion must still hold; the kernel's one-word quasi-shuffle
as it was first written; engine t1 as it built its terms in the kernel's
order; the default rewrite rules and reflection predicates as they read an
atom through its properties; and the text of atoms and combinations built
from their fields, without ``render``.  ``convergent_indices`` lists the
indices that sweeps run over, and ``_to_units`` turns an exact value and
error into the fixed-point units of ``numerics``.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

from eulersums import reduction
from eulersums.algebra import LinComb, MzvAtom, z
from eulersums.expansion import _check_size, _quasi_shuffle
from eulersums.indices import EulerSumIndex, make_index
from eulersums.numerics import _FP_BITS, _FP_SCALE, NumericResult, _fp_result
from eulersums.reduction import alt_depth1, symmetric_sum, zeta_ones


def _to_units(val: Fraction, err: Fraction) -> tuple[int, int]:
    """(value, error) in units of 2^-192: the value floored, the error rounded
    up, plus one unit if the floor was inexact."""
    v, r = divmod(val.numerator << _FP_BITS, val.denominator)
    return v, -(-(err.numerator << _FP_BITS) // err.denominator) + (1 if r else 0)


def harmonic_exact(r: int, n: int) -> Fraction:
    """Generalized harmonic number of order r at n, as an exact rational."""
    return sum((Fraction(1, k**r) for k in range(1, n + 1)), Fraction(0))


def alt_harmonic_exact(r: int, n: int) -> Fraction:
    """Alternating harmonic number: sum of (-1)^(k-1) / k^r up to n."""
    return sum((Fraction((-1) ** (k - 1), k**r) for k in range(1, n + 1)), Fraction(0))


def _mhs_prefix(args, nmax: int) -> list[Fraction]:
    """The exact truncations zeta_n(args) for n = 0..nmax: the sum over
    n >= n_1 > ... > n_k >= 1 of the product of the slots' terms, 1 / n_j^s
    for a slot s > 0 and (-1)^(n_j) / n_j^|s| for a barred one.  Empty args
    give 1 at every n."""
    prev = [Fraction(1)] * (nmax + 1)
    for slot in reversed(args):
        s, alt = abs(slot), slot < 0
        cur = [Fraction(0)] * (nmax + 1)
        for j in range(1, nmax + 1):
            cur[j] = cur[j - 1] + Fraction((-1) ** j if alt else 1, j**s) * prev[j - 1]
        prev = cur
    return prev


def _zeta_terms(s: int) -> int:
    return 2000 if s < 40 else 64  # the terms ``_fp_zeta(s)`` sums


def _fp_zeta(s: int) -> tuple[Fraction, Fraction]:
    """zeta(s) for s >= 2 by partial sum plus Euler-Maclaurin tail."""
    if s < 2:
        raise ValueError("zeta needs s >= 2")
    n_cut = _zeta_terms(s)
    acc = 0
    for n in range(1, n_cut + 1):
        acc += _FP_SCALE // n**s
    a = n_cut + 1
    tail = (
        Fraction(1, (s - 1) * a ** (s - 1))
        + Fraction(1, 2 * a**s)
        + Fraction(s, 12 * a ** (s + 1))
        - Fraction(s * (s + 1) * (s + 2), 720 * a ** (s + 3))
    )
    rem = 2 * Fraction(s * (s + 1) * (s + 2) * (s + 3) * (s + 4), 30240 * a ** (s + 5))
    val = Fraction(acc, _FP_SCALE) + tail
    err = Fraction(n_cut, _FP_SCALE) + rem
    return val, err


def _fp_atan_inv(x: int) -> tuple[Fraction, Fraction]:
    """arctan(1/x) by the alternating Taylor series, truncation <= next term."""
    acc = 0
    t = 0
    terms = 0
    while True:
        u = _FP_SCALE // ((2 * t + 1) * x ** (2 * t + 1))
        if u == 0:
            break
        acc += -u if t % 2 else u
        t += 1
        terms += 1
    return Fraction(acc, _FP_SCALE), Fraction(terms + 2, _FP_SCALE)


@functools.cache
def zeta_value(s: int) -> NumericResult:
    return _fp_result(*_to_units(*_fp_zeta(s)), terms=_zeta_terms(s), method="zeta")


@functools.cache
def pi_reference() -> NumericResult:
    """pi via Machin's two-arctangent combination (test cross-checks)."""
    a5, e5 = _fp_atan_inv(5)
    a239, e239 = _fp_atan_inv(239)
    return _fp_result(*_to_units(16 * a5 - 4 * a239, 16 * e5 + 4 * e239), 0)


def _reference_stuffle(u, v):
    """``expansion._stuffle`` as it was written with a list of (head, tail)
    pairs at each position of ``v``."""
    x, rest = u[0], u[1:]
    out = []
    for i in range(len(v) + 1):
        heads = [(v[:i] + (x,), v[i:])]
        if i < len(v):
            mag = abs(x) + abs(v[i])
            heads.append((v[:i] + ((-mag if (x < 0) ^ (v[i] < 0) else mag),), v[i + 1 :]))
        for head, tail in heads:
            out += [head + t for t in _reference_stuffle(rest, tail)] if rest else [head + tail]
    return out


def _reference_expand_t1(idx: EulerSumIndex) -> LinComb:
    """``expansion.expand_t1`` as it was written with the words taken off the
    kernel's product by ``popitem``, so that its terms are in no order."""
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
    w, depth = idx.weight, idx.degree + 1
    coeffs: dict[int, Fraction] = {}
    terms: dict[MzvAtom, Fraction] = {}
    product = _quasi_shuffle((e,) for e in idx.inner)
    n_words = len(product)
    # Each word gives two atoms, and no two words give the same atom: atom 1
    # leads with q, atom 2 with q + |first| > q, and within each family the
    # atom determines its word.  So every coefficient is one multiplicity,
    # and the words are taken off the product as their atoms are made.
    while product:
        word, c = product.popitem()
        coeff = coeffs.get(c)
        if coeff is None:
            coeff = coeffs[c] = Fraction(sign * c)
        # Atom 1: the outer exponent keeps its own leading slot.  Atom 2: it
        # merges with the first letter, alternating iff exactly one of the
        # two does.
        first = word[0]
        merged = q + abs(first)
        if (first < 0) ^ outer_bar:
            merged = -merged
        for args in ((lead,) + word, (merged,) + word[1:]):
            # The kernel's words meet the atom's slot conditions by
            # construction, so the atom is built without its checks and the
            # asserts keep them.
            atom = MzvAtom._of_word(args, w)
            assert sum(map(abs, args)) == w, f"weight leak: {atom} in expansion of {idx}"
            assert len(args) <= depth, f"depth leak: {atom} in expansion of {idx}"
            assert args[0] != 1 and 0 not in args, f"inadmissible atom: {atom} in expansion of {idx}"
            terms[atom] = coeff
    assert len(terms) == 2 * n_words, f"two words gave one atom in expansion of {idx}"
    return LinComb._of_nonzero(terms)


# -- the default rules and reflection predicates, slots read through properties --


def _reference_rw_alt_depth1(a: MzvAtom) -> LinComb | None:
    return alt_depth1(-a.args[0]) if a.depth == 1 and a.args[0] <= -2 else None


def _reference_rw_repeated(a: MzvAtom) -> LinComb | None:
    if a.depth < 2 or len(set(a.args)) > 1:
        return None
    return symmetric_sum(a.args).scale(Fraction(1, math.factorial(a.depth)))


def _reference_rw_ones(a: MzvAtom) -> LinComb | None:
    ones = a.depth >= 2 and a.args[0] >= 2 and all(t == 1 for t in a.args[1:])
    if not ones or a.weight - 1 > reduction.LOG_INTEGRAL_CAP:
        return None
    return zeta_ones(a.args[0] - 1, a.depth - 1)


def _zeta_signed(v: int, sign: int) -> LinComb:
    """zeta(v) or zeta(v bar) as a combination; unsigned v = 1 is dropped (0)."""
    if sign > 0 and v == 1:
        return LinComb()
    return LinComb.of_atom(z(v if sign > 0 else -v))


def _reference_depth2_odd(atom: MzvAtom) -> LinComb | None:
    """``depth2_odd`` as it was written on ``LinComb`` arithmetic, with the
    same refusal past the step cap."""
    if atom.li or atom.depth != 2:
        return None
    s, t = abs(atom.args[0]), abs(atom.args[1])
    if (s + t) % 2 == 0:
        return None
    sg, tg = (1 if atom.args[0] > 0 else -1), (1 if atom.args[1] > 0 else -1)
    w = s + t
    if w - 1 > reduction.STEP_CAP:
        raise reduction.StepCapError(
            f"depth2_odd on {atom.render()} would emit up to {w - 1} products, "
            f"above the step cap {reduction.STEP_CAP}"
        )

    def mu(r: int) -> LinComb:
        out = _zeta_signed(r, sg).scale(math.comb(r - 1, s - 1)) + _zeta_signed(
            r, tg
        ).scale(math.comb(r - 1, t - 1))
        return out.scale((-1) ** s)

    def lam(r: int) -> LinComb:
        return _zeta_signed(r, sg * tg)

    acc = lam(w).scale(Fraction(-1, 2)) + mu(w).scale(Fraction(1, 2))
    if s % 2 == 0:
        acc = acc + _zeta_signed(s, sg) * _zeta_signed(t, tg)
    for k in range(1, (w - 1) // 2 + 1):
        if 2 * k == w:
            break
        acc = acc - lam(2 * k) * mu(w - 2 * k)
    return acc


def reference_rules() -> list[tuple]:
    """``reduction.default_rules()``, in the same order, from the guards above:
    each rule the pair (name, rewrite)."""
    return [
        ("alt_depth1", _reference_rw_alt_depth1),
        ("repeated", _reference_rw_repeated),
        ("zeta_ones", _reference_rw_ones),
        ("depth2_odd", _reference_depth2_odd),
    ]


def _reference_pair_reflectable(atom: MzvAtom) -> bool:
    args = atom.args
    return len(args) == 2 and args[0] < args[1] != 1


def _reference_triple_reflectable(atom: MzvAtom) -> bool:
    args = atom.args
    return len(args) == 3 and min(args) >= 2 and len(set(args)) > 1


# -- text built from an atom's fields, never from ``render`` -------------------------


def reference_atom_text(atom: MzvAtom) -> str:
    """'Li(q,1/2)', or 'z(' + the slots in decimal, comma-separated + ')'."""
    li, _weight, args = tuple(atom)
    if li:
        return "Li(" + str(li) + ",1/2)"
    return "z(" + ",".join(str(a) for a in args) + ")"


def _reference_items(lc: LinComb) -> list:
    """The (term, coefficient) pairs by ``term_key``, sorted here."""
    return sorted(lc._d.items(), key=lambda tc: tc[0].term_key())


def reference_render(lc: LinComb) -> str:
    """``LinComb.render`` as it was written on ``Fraction`` arithmetic, each
    factor's text from ``reference_atom_text``."""
    if not lc._d:
        return "0"
    parts = []
    for t, c in _reference_items(lc):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if t.is_unit():
            body = str(mag)
        else:
            text = "*".join(reference_atom_text(a) for a in t.factors)
            body = text if mag == 1 else f"{mag}*{text}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        s += f" {sign} {body}"
    return s


def reference_json_terms(lc: LinComb) -> str:
    """``LinComb.json_terms()`` as ``json.dumps`` writes the terms list."""
    return json.dumps(
        [
            {"factors": [reference_atom_text(a) for a in t.factors], "coeff": str(c)}
            for t, c in _reference_items(lc)
        ]
    )


# -- index sweeps ------------------------------------------------------------------


def _partitions(n, largest=None):
    """The partitions of n, parts in descending order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def convergent_indices(max_weight):
    """Every convergent index of weight <= max_weight, once each."""
    out = {}
    for w in range(1, max_weight + 1):
        for outer in set(range(-w, w + 1)) - {0, 1}:
            for mags in _partitions(w - abs(outer)):
                for signs in itertools.product((1, -1), repeat=len(mags)):
                    out[make_index([m * s for m, s in zip(mags, signs)], outer)] = None
    return list(out)
