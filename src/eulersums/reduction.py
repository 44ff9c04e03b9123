"""Identity toolkit and the fixpoint rewrite engine.

The closed-form rules implemented here:

  * ``log_integral(k, l)``: the integral of ln^k(t) ln^l(1-t) / (1-t) over
    (0,1), expressed as a polynomial in zeta values through its recurrence;
    it satisfies the symmetry W(k,l-1)/(k!(l-1)!) = W(l,k-1)/(l!(k-1)!)
    exactly, which the tests enforce.
  * ``zeta_ones(k, l)``: zeta(k+1, {1}_l) = (-1)^(k+l)/(k! l!) * W(k, l).
  * ``alt_depth1(s)``: zeta(s bar) = (2^(1-s) - 1) zeta(s) for s >= 2;
    zeta(1 bar) stays as the -ln(2) basis atom.
  * ``zeta_repeated(r, m)`` and ``zeta_repeated_bar(r, m)``: the values with
    one repeated (possibly alternating) slot, by the Newton-type recurrence
    relating power sums to strictly-decreasing nested sums.
  * ``depth2_odd(atom)``: any depth-2 value of odd weight, signs arbitrary,
    as a combination of depth-1 values (with the convention that an unsigned
    zeta(1) occurring in the closed form is dropped).
  * ``reflection_pair_sum`` / ``reflection_triple_sum``: the symmetric-sum
    identities for zeta(a,b)+zeta(b,a) (signs allowed) and for the six
    orderings of three unsigned slots.
  * ``symmetric_triple_sum(i, j, k)``: zeta(k,i,j) + zeta(k,j,i) written
    through quadratic/linear Euler sums, with the Euler sums resolved by the
    ordering-class expansion.  Exposed and tested, but not part of the
    default pipeline: once the sums are expanded the identity returns its
    own left side, so it cannot make progress as a rewrite.

``reduce_lincomb`` applies a table lookup first and then the rules above in
a fixed order, atom by atom, until nothing fires.  Every rewrite preserves
weight (asserted) and strictly decreases (depth, alternation) of the atom it
replaces, or eliminates a paired atom, so the fixpoint is reached in finitely
many steps.  Atoms no rule covers (even-weight depth-2 values, deep
alternating values, Li constants, the -ln 2 atom) pass through untouched:
they are basis elements of the reduced form.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import LinComb, MzvAtom, SymbolicTerm, Term, parse_atom, z
from .expansion import expand_t1
from .indices import make_index

TRACE_CAP = 10_000
STEP_CAP = 100_000


class StepCapError(RuntimeError):
    """A reduction that did not reach its fixpoint within the step cap."""


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

LOG_INTEGRAL_CAP = 30  # largest k + l that log_integral expands


@functools.cache
def log_integral(k: int, l: int) -> LinComb:
    """W(k, l) as an exact polynomial in single zeta values (k >= 1, l >= 0)."""
    if k < 1 or l < 0:
        raise ValueError(f"need k >= 1, l >= 0, got ({k}, {l})")
    if k + l > LOG_INTEGRAL_CAP:
        raise ValueError(f"log_integral capped at k + l <= {LOG_INTEGRAL_CAP}, got {k + l}")
    acc = LinComb.of_atom(
        z(k + l + 1), Fraction((-1) ** (k + l) * math.factorial(k + l), l + 1)
    )
    for i in range(1, k):
        for j in range(1, l + 1):
            c = Fraction(
                math.comb(k - 1, i - 1)
                * math.comb(l, j)
                * (-1) ** (i + j)
                * math.factorial(i + j - 1)
            )
            acc = acc - LinComb.of_atom(z(i + j), c) * log_integral(k - i, l - j)
    return acc


def zeta_ones(k: int, l: int) -> LinComb:
    """zeta(k+1, {1}_l) reduced to a polynomial in zeta values."""
    if k < 1 or l < 0:
        raise ValueError(f"need k >= 1, l >= 0, got ({k}, {l})")
    c = Fraction((-1) ** (k + l), math.factorial(k) * math.factorial(l))
    return log_integral(k, l).scale(c)


def alt_depth1(s: int) -> LinComb:
    """zeta(s bar) for s >= 2 as a rational multiple of zeta(s)."""
    if s < 2:
        raise ValueError("the s = 1 atom is a basis element (-ln 2)")
    return LinComb.of_atom(z(s), Fraction(1, 2 ** (s - 1)) - 1)


def _zeta_signed(v: int, sign: int) -> LinComb:
    """zeta(v) or zeta(v bar) as a combination; unsigned v = 1 is dropped (0)."""
    if sign > 0:
        if v == 1:
            return LinComb.zero()
        return LinComb.of_atom(z(v))
    return LinComb.of_atom(z(-v))


def zeta_repeated(r: int, m: int) -> LinComb:
    """zeta({r}_m) for unsigned r >= 2 as a polynomial in zeta values."""
    if r < 2:
        raise ValueError("repeated unsigned slot needs r >= 2")
    return _repeated(r, m, barred=False)


def zeta_repeated_bar(r: int, m: int) -> LinComb:
    """zeta({r bar}_m), m >= 1, reduced through the power-sum recurrence."""
    if r < 1:
        raise ValueError("slot must be >= 1")
    return _repeated(r, m, barred=True)


@functools.cache
def _repeated(r: int, m: int, barred: bool) -> LinComb:
    if m < 0:
        raise ValueError("multiplicity must be >= 0")
    if m == 0:
        return LinComb.scalar(1)
    if m == 1:
        return LinComb.of_atom(z(-r) if barred else z(r))
    acc = LinComb.zero()
    for i in range(m):
        power_sign = (-1) ** (m - i) if barred else 1
        acc = acc + _repeated(r, i, barred).scale(Fraction((-1) ** i)) * _zeta_signed(
            r * (m - i), power_sign
        )
    return acc.scale(Fraction((-1) ** (m - 1), m))


def depth2_odd(atom: MzvAtom) -> LinComb | None:
    """Odd-weight depth-2 value as depth-1 products; None if not applicable."""
    if atom.li or atom.depth != 2:
        return None
    s, t = abs(atom.args[0]), abs(atom.args[1])
    if (s + t) % 2 == 0:
        return None
    sg, tg = (1 if atom.args[0] > 0 else -1), (1 if atom.args[1] > 0 else -1)
    w = s + t

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


def reflection_pair_sum(a: int, b: int) -> LinComb:
    """zeta(a,b) + zeta(b,a) for signed slots a, b (stuffle of two singles).

    Needs both slots admissible as depth-1 values, i.e. neither is an
    unsigned 1.  With a == b this encodes the half formula for zeta(a,a).
    """
    if a == 1 or b == 1:
        raise ValueError("unsigned slot 1 is not admissible in the reflection")
    sa, sb = (1 if a > 0 else -1), (1 if b > 0 else -1)
    va, vb = abs(a), abs(b)
    return _zeta_signed(va, sa) * _zeta_signed(vb, sb) - _zeta_signed(va + vb, sa * sb)


def reflection_triple_sum(a: int, b: int, c: int) -> LinComb:
    """Sum of the six orderings of zeta(a,b,c), unsigned a, b, c >= 2."""
    if min(a, b, c) < 2:
        raise ValueError("the triple reflection needs unsigned slots >= 2")
    za, zb, zc = (LinComb.of_atom(z(v)) for v in (a, b, c))
    return (
        za * zb * zc
        + LinComb.of_atom(z(a + b + c), 2)
        - za * LinComb.of_atom(z(b + c))
        - zb * LinComb.of_atom(z(a + c))
        - zc * LinComb.of_atom(z(a + b))
    )


def symmetric_triple_sum(i: int, j: int, k: int) -> LinComb:
    """zeta(k,i,j) + zeta(k,j,i) through Euler sums, for j >= i >= 1, k >= 2.

    The Euler-sum symbols are resolved by the ordering-class expansion, so
    the result is an exact combination of MZV atoms equal to the pair sum.
    """
    if not (j >= i >= 1 and k >= 2):
        raise ValueError(f"need j >= i >= 1 and k >= 2, got ({i}, {j}, {k})")
    out = expand_t1(make_index([i, j], k))
    out = out - expand_t1(make_index([i], j + k))
    out = out - expand_t1(make_index([j], i + k))
    out = out - expand_t1(make_index([i + j], k))
    out = out + LinComb.of_atom(z(i + j + k), 2)
    return out


# ---------------------------------------------------------------------------
# Rules and tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRule:
    """A closed form as a rewrite: ``rewrite(atom)`` is the atom's reduced
    form, or None off the rule's domain."""

    name: str
    rewrite: Callable[[MzvAtom], LinComb | None]


def _rw_alt_depth1(a: MzvAtom) -> LinComb | None:
    return alt_depth1(-a.args[0]) if a.depth == 1 and a.args[0] <= -2 else None


def _rw_repeated(a: MzvAtom) -> LinComb | None:
    if a.depth < 2 or len(set(a.args)) > 1:
        return None
    slot = a.args[0]
    if slot > 0:
        return zeta_repeated(slot, a.depth)
    return zeta_repeated_bar(-slot, a.depth)


def _rw_ones(a: MzvAtom) -> LinComb | None:
    ones = a.depth >= 2 and a.args[0] >= 2 and all(t == 1 for t in a.args[1:])
    if not ones or a.weight - 1 > LOG_INTEGRAL_CAP:
        return None
    return zeta_ones(a.args[0] - 1, a.depth - 1)


def default_rules() -> list[IdentityRule]:
    return [
        IdentityRule("alt_depth1", _rw_alt_depth1),
        IdentityRule("repeated", _rw_repeated),
        IdentityRule("zeta_ones", _rw_ones),
        IdentityRule("depth2_odd", depth2_odd),
    ]


def _check_entry(lhs: MzvAtom, rhs: LinComb):
    """Raise ValueError unless ``lhs -> rhs`` keeps the weight and does not
    refer to its own left side."""
    if rhs.weights() not in ({lhs.weight}, set()):
        raise ValueError(
            f"weight-inhomogeneous entry {lhs.render()}: "
            f"lhs weight {lhs.weight}, rhs weights {sorted(rhs.weights())}"
        )
    if lhs in rhs.atoms():
        raise ValueError(f"self-referential entry {lhs.render()}")


class IdentityTable:
    """A mapping from atoms to their reduced forms."""

    def __init__(self, label: str = "table"):
        self.label = label
        self.entries: dict[MzvAtom, LinComb] = {}
        self.report: list[str] = []

    def add(self, lhs: MzvAtom, rhs: LinComb):
        _check_entry(lhs, rhs)
        self.entries[lhs] = rhs

    def lookup(self, atom: MzvAtom) -> LinComb | None:
        return self.entries.get(atom)

    @property
    def max_weight(self) -> int:
        return max((atom.weight for atom in self.entries), default=0)

    def __len__(self):
        return len(self.entries)


def load_identity_table(source, verify: bool = False, tol: float = 1e-8, label: str | None = None) -> IdentityTable:
    """Load a JSON-lines identity table from a path or an open text stream;
    malformed or failing entries are rejected individually and reported on
    ``table.report``, as is every line whose lhs an earlier line already
    names.  A path that cannot be opened raises ``OSError``.

    Each line: {"lhs": "z(...)", "rhs": [{"factors": [...], "coeff": "p/q"}],
    "weight": w}.  With ``verify`` set, an entry is rejected when the
    oracle's exact fixed-point sum of rhs - lhs exceeds ``tol`` by more than
    its error bound.

    A text is parsed once per process for each (verify, tol); every call
    returns a new table with its own ``entries`` and ``report``.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as stream:
            text = stream.read()
        name = label or os.fsdecode(source)
    else:
        text = source.read()
        name = label or getattr(source, "name", "stream")
    table = IdentityTable(label=str(name))
    for lineno, *result in _parse_table(text, verify, tol):
        if len(result) == 1:
            table.report.append(f"{name}:{lineno}: rejected: {result[0]}")
        else:
            lhs, rhs = result
            table.entries[lhs] = rhs
    return table


@functools.cache
def _parse_table(text: str, verify: bool, tol: float) -> tuple:
    """The per-line outcome of one table text, in line order: (lineno, lhs,
    rhs) for an accepted entry, (lineno, message) for a rejected one.
    Cached on the exact text, so an edited file is always parsed again."""
    outcome = []
    first_line: dict[MzvAtom, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            lhs = parse_atom(obj["lhs"])
            first = first_line.setdefault(lhs, lineno)
            if first != lineno:
                raise ValueError(f"duplicate lhs {lhs.render()} (first on line {first})")
            rhs = LinComb.from_json_terms(obj["rhs"])
            if "weight" in obj and obj["weight"] != lhs.weight:
                raise ValueError(
                    f"declared weight {obj['weight']} != atom weight {lhs.weight}"
                )
            if verify:
                _verify_entry(lhs, rhs, tol)
            _check_entry(lhs, rhs)
            outcome.append((lineno, lhs, rhs))
        except Exception as e:  # entry-level rejection
            outcome.append((lineno, str(e)))
    return tuple(outcome)


def _verify_entry(lhs: MzvAtom, rhs: LinComb, tol: float):
    from . import numerics

    # rejected only when |rhs - lhs| > tol whatever the atoms' errors
    value, error = numerics._lincomb_units(rhs - LinComb.of_atom(lhs))
    if abs(value) - error > tol * numerics._FP_SCALE:
        diff = numerics._fp_result(value, error, 0)
        raise ValueError(
            f"numeric mismatch for {lhs.render()}: |rhs - lhs| = "
            f"{abs(float(diff.value)):.3g} +- {diff.tail_bound:.3g} > {tol:.3g}"
        )


def save_table(table: IdentityTable, path):
    """Write ``table`` as JSON lines, by weight and then rendering."""
    with open(path, "w", encoding="utf-8") as f:
        for lhs in sorted(table.entries, key=lambda a: (a.weight, a.render())):
            rhs = table.entries[lhs].json_terms()
            f.write(f'{{"lhs": "{lhs.render()}", "rhs": {rhs}, "weight": {lhs.weight}}}\n')


def build_starter_table(max_weight: int = 12) -> IdentityTable:
    """Identities the library derives itself, precomputed as a table.

    Contains the depth-1 alternating values, the zeta(k+1,{1}_l) closed
    forms and all odd-weight depth-2 values (signs included), each fully
    reduced.  No externally compiled data enters here.
    """
    w = max_weight
    alternating = [z(-s) for s in range(2, w + 1)]
    ones = [z(k + 1, *[1] * l) for k in range(1, w) for l in range(1, w - k)]
    depth2 = [
        z(sg * s, tg * (odd - s))
        for odd in range(3, w + 1, 2)
        for s in range(1, odd)
        for sg in (1, -1)
        for tg in (1, -1)
        if (s, sg) != (1, 1)
    ]
    table = IdentityTable(label=f"starter<=w{w}")
    # z(k+1,1) of odd weight is in two families; it is reduced once
    for atom in dict.fromkeys(alternating + ones + depth2):
        table.add(atom, reduce_lincomb(LinComb.of_atom(atom)).value)
    return table


# ---------------------------------------------------------------------------
# The rewrite engine
# ---------------------------------------------------------------------------


@dataclass
class ReduceResult:
    value: LinComb
    trace: list[str] = field(default_factory=list)
    steps: int = 0


def _term_without(term: Term, atom: MzvAtom) -> Term:
    factors = list(term.factors)
    factors.remove(atom)
    return SymbolicTerm.of(*factors)


class _WorkingSum:
    """The combination under rewriting: a mutable term -> coefficient dict
    (zero coefficients pruned) plus a heap, by ``term_key()``, of the present
    terms not yet examined for an atom rewrite."""

    def __init__(self, lc: LinComb):
        self.coeffs: dict[Term, Fraction] = dict(lc.items())
        self.heap = [(t.term_key(), t) for t in self.coeffs]
        heapq.heapify(self.heap)
        self.in_heap = set(self.coeffs)

    def add(self, term: Term, c: Fraction):
        old = self.coeffs.get(term)
        if old is None:
            self.coeffs[term] = c
            if term not in self.in_heap:
                self.in_heap.add(term)
                heapq.heappush(self.heap, (term.term_key(), term))
            return
        s = old + c
        if s:
            self.coeffs[term] = s
        else:
            del self.coeffs[term]

    def add_product(self, rest: Term, c: Fraction, rhs: LinComb):
        for t, rc in rhs.items():
            self.add(rest.mul(t), c * rc)

    def pop_pending(self) -> Term | None:
        """The smallest present term not yet examined, or None."""
        while self.heap:
            _key, term = heapq.heappop(self.heap)
            self.in_heap.discard(term)
            if term in self.coeffs:
                return term
        return None


def _atom_rewrite(atom: MzvAtom, tables: list[IdentityTable], rules: list[IdentityRule]):
    """``(rhs, rule name)`` for the first table, then rule, that rewrites
    ``atom``; None if nothing does."""
    hit = None
    for table in tables:
        rhs = table.lookup(atom)
        if rhs is not None:
            hit = (rhs, f"table[{table.label}]")
            break
    else:
        for rule in rules:
            rhs = rule.rewrite(atom)
            if rhs is not None:
                hit = (rhs, rule.name)
                break
    if hit is not None:
        assert hit[0].weights() in ({atom.weight}, set()), (
            f"weight leak rewriting {atom}: {sorted(hit[0].weights())} != {atom.weight}"
        )
    return hit


def _first_candidate(coeffs: dict[Term, Fraction], find):
    """The first ``(term, find(term))`` in sort order with a non-None find,
    by one minimum scan; None if there is none."""
    best = None
    for term in coeffs:
        hit = find(term)
        if hit is not None:
            key = term.term_key()
            if best is None or key < best[0]:
                best = (key, term, hit)
    return None if best is None else best[1:]


def _apply_pair_pass(work: _WorkingSum, trace: list[str]) -> bool:
    """One application of the two-slot reflection across matching cofactors."""
    coeffs = work.coeffs

    def find(term: Term):
        # An ascending-slot atom z(a,b), a < b, whose partner z(b,a) is
        # admissible (b != 1) and present with the same cofactor.
        ascending = {
            atom for atom in term.factors
            if atom.depth == 2 and atom.args[0] < atom.args[1] != 1
        }
        for atom in sorted(ascending, key=MzvAtom.sort_key):
            partner = MzvAtom(args=atom.args[::-1])
            rest = _term_without(term, atom)
            if rest.mul(partner) in coeffs:
                return atom, partner, rest
        return None

    found = _first_candidate(coeffs, find)
    if found is None:
        return False
    term, (atom, partner, rest) = found
    # c1*A + c2*B -> c1*(pair sum) + (c2 - c1)*B: eliminate the
    # ascending-slot atom, keeping the descending-slot basis form.
    t_amt = coeffs[term]
    work.add(rest.mul(partner), -t_amt)
    work.add(term, -t_amt)
    work.add_product(rest, t_amt, reflection_pair_sum(atom.args[0], atom.args[1]))
    if len(trace) < TRACE_CAP:
        trace.append(
            f"reflection_pair: {atom.render()} + {partner.render()}"
            + (f" (cofactor {rest.render()})" if not rest.is_unit() else "")
        )
    return True


def _apply_triple_pass(work: _WorkingSum, trace: list[str]) -> bool:
    """One application of the three-slot reflection (unsigned slots >= 2)."""
    coeffs = work.coeffs

    def find(term: Term):
        # Fully repeated slots are left to the repeated-slot rule.
        unsigned = {
            atom for atom in term.factors
            if atom.depth == 3 and min(atom.args) >= 2 and len(set(atom.args)) > 1
        }
        for atom in sorted(unsigned, key=MzvAtom.sort_key):
            slots = atom.args
            rest = _term_without(term, atom)
            orderings = [MzvAtom(args=o) for o in sorted(set(itertools.permutations(slots)))]
            if all(rest.mul(o) in coeffs for o in orderings):
                return atom, orderings, rest
        return None

    found = _first_candidate(coeffs, find)
    if found is None:
        return False
    _term, (atom, orderings, rest) = found
    last = max(orderings, key=MzvAtom.sort_key)
    t_amt = coeffs[rest.mul(last)]
    # The identity sums all six permutations; each distinct ordering
    # is 6 / len(orderings) of them.
    rhs = reflection_triple_sum(*sorted(atom.args)).scale(Fraction(len(orderings), 6))
    for o in orderings:
        work.add(rest.mul(o), -t_amt)
    work.add_product(rest, t_amt, rhs)
    if len(trace) < TRACE_CAP:
        trace.append(
            f"reflection_triple: orderings of {atom.render()} eliminated via {last.render()}"
        )
    return True


def reduce_lincomb(
    lc: LinComb,
    tables: Iterable[IdentityTable] = (),
    rules: list[IdentityRule] | None = None,
    max_steps: int = STEP_CAP,
) -> ReduceResult:
    """Rewrite ``lc`` to its fixpoint under tables, atom rules, and the
    symmetric-sum passes.  Irreducible atoms pass through untouched.

    Each step rewrites the first rewritable atom, in sort order, of the
    smallest term that has one; only when no atom rewrites does one
    reflection pass (pairs, then triples) fire.  An atom step touches only
    the terms it creates or cancels, each distinct atom is matched against
    the tables and rules once per call, a term is examined for atom
    rewrites once each time it enters the sum, and a reflection pass is one
    scan over the terms.
    """
    if rules is None:
        rules = default_rules()
    tables = list(tables)
    work = _WorkingSum(lc)
    rewrites: dict[MzvAtom, tuple[LinComb, str] | None] = {}

    def next_atom_rewrite():
        # Atom-level rewrites, tables first.
        while (term := work.pop_pending()) is not None:
            for atom in sorted(set(term.factors), key=MzvAtom.sort_key):
                if atom not in rewrites:
                    rewrites[atom] = _atom_rewrite(atom, tables, rules)
                if rewrites[atom] is not None:
                    return term, atom, rewrites[atom]
        return None

    trace: list[str] = []
    steps = 0
    while steps < max_steps:
        found = next_atom_rewrite()
        if found is not None:
            term, atom, (rhs, name) = found
            c = work.coeffs.pop(term)
            work.add_product(_term_without(term, atom), c, rhs)
            if len(trace) < TRACE_CAP:
                trace.append(f"{name}: {atom.render()}")
        elif not (_apply_pair_pass(work, trace) or _apply_triple_pass(work, trace)):
            break
        steps += 1
    else:
        raise StepCapError(f"reduction did not reach a fixpoint within {max_steps} steps")
    return ReduceResult(LinComb._of_nonzero(work.coeffs), trace, steps)
