"""Identity toolkit and the fixpoint rewrite engine.

The closed-form rules implemented here:

  * ``log_integral(k, l)``: the integral of ln^k(t) ln^l(1-t) / (1-t) over
    (0,1), expressed as a polynomial in zeta values through its recurrence;
    it satisfies the symmetry W(k,l-1)/(k!(l-1)!) = W(l,k-1)/(l!(k-1)!)
    exactly, which the tests enforce.
  * ``zeta_ones(k, l)``: zeta(k+1, {1}_l) = (-1)^(k+l)/(k! l!) * W(k, l).
  * ``alt_depth1(s)``: zeta(s bar) = (2^(1-s) - 1) zeta(s) for s >= 2;
    zeta(1 bar) stays as the -ln(2) basis atom.
  * ``symmetric_sum(slots)``: Hoffman's symmetric-sum theorem for the
    stuffle product (Quasi-shuffle products, arXiv:math/9907173): the sum of
    zeta over all orderings of signed slots is a polynomial in depth-1
    values.  It gives the repeated-slot values zeta({r}_m) (one ordering,
    counted m! times) and the pair and triple reflections.
  * ``depth2_odd(atom)``: any depth-2 value of odd weight, signs arbitrary,
    as a combination of depth-1 values (with the convention that an unsigned
    zeta(1) occurring in the closed form is dropped).

The rules read atoms alone: this module parses no Euler-sum index and calls
no expansion engine.  The pair zeta(k,i,j) + zeta(k,j,i) written through
quadratic and linear Euler sums is no rule: once those sums are expanded it
returns its own left side exactly, so it cannot make progress as a rewrite.

``reduce_lincomb`` tries the tables and then the rules above as one list of
rewrites, in a fixed order, atom by atom, each atom only against the
rewrites whose declared depths hold its own, until nothing fires; then it
eliminates one family of orderings by the symmetric sum.  Every rewrite
preserves weight (asserted) and strictly decreases (depth, alternation) of
the atom it replaces, or eliminates a paired atom, so the fixpoint is
reached in finitely many steps.  Atoms no rule covers (even-weight depth-2
values, deep alternating values, Li constants, the -ln 2 atom) pass through
untouched: they are basis elements of the reduced form.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Container, Iterable
from fractions import Fraction

from .algebra import LinComb, MzvAtom, Refusal, SymbolicTerm, Term, parse_atom, z
from .indices import _Record
from .words import merge

TRACE_CAP = 10_000
STEP_CAP = 100_000


class StepCapError(Refusal, RuntimeError):
    """A reduction that did not reach its fixpoint within the step cap, or one rewrite past it."""


def _refuse_past_step_cap(rule: str, atom: MzvAtom, growth: str):
    """Refuse ``atom`` if ``rule``'s output on it, of size w - 1 (``growth``), is above the step cap."""
    if atom[1] - 1 > STEP_CAP:
        raise StepCapError("%s on %s would " + growth + ", above the step cap %d",
                           rule, atom, atom[1] - 1, STEP_CAP)


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
    integral = log_integral(k, l)  # first, as it refuses k < 1, l < 0 and k + l past the cap
    return integral.scale(Fraction((-1) ** (k + l), math.factorial(k) * math.factorial(l)))


def alt_depth1(s: int) -> LinComb:
    """zeta(s bar) for s >= 2 as a rational multiple of zeta(s)."""
    if s < 2:
        raise ValueError("the s = 1 atom is a basis element (-ln 2)")
    return LinComb.of_atom(z(s), Fraction(1, 2 ** (s - 1)) - 1)


@functools.cache
def symmetric_sum(slots: tuple[int, ...]) -> LinComb:
    """The sum of z over all k! orderings of the signed ``slots``, as a
    polynomial in depth-1 values (Hoffman's symmetric-sum theorem).

    The stuffle of z(a) with the k-1 other slots gives z(a) S(rest) =
    S(slots) + sum over b in rest of S(rest with b -> merge(a, b)).  Any
    order of ``slots`` gives the same value; sorted tuples share the cache.
    An unsigned slot 1 diverges and raises ``ValueError``.
    """
    if not slots:
        return LinComb.scalar(1)
    a, rest = slots[0], slots[1:]
    acc = LinComb.of_atom(z(a)) * symmetric_sum(rest)
    for i, b in enumerate(rest):
        if b in rest[:i]:
            continue
        merged = rest[:i] + (merge(a, b),) + rest[i + 1 :]
        acc = acc - symmetric_sum(tuple(sorted(merged))).scale(rest.count(b))
    return acc


@functools.lru_cache(maxsize=2)
def _depth1_rows(w: int) -> dict[int, list[MzvAtom | None]]:
    """z(r) and z(r bar) for r = 0..w, by sign: {1: [z(r)], -1: [z(r bar)]},
    built without ``MzvAtom``'s checks, which such slots pass; r = 0 and the
    unsigned z(1), which ``depth2_odd`` drops, are None.  The depth-2 atoms
    of one expansion share its weight, so two rows are enough."""
    return {
        1: [None, None] + [MzvAtom._of_word((r,), r) for r in range(2, w + 1)],
        -1: [None] + [MzvAtom._of_word((-r,), r) for r in range(1, w + 1)],
    }


def depth2_odd(atom: MzvAtom) -> LinComb | None:
    """Odd-weight depth-2 value as depth-1 products; None if not applicable.

    With lam(r) = zeta(r) of sign sg*tg and mu(r) = (-1)^s (C(r-1,s-1)
    zeta(r) of sign sg + C(r-1,t-1) zeta(r) of sign tg), the value is
    (mu(w) - lam(w))/2 [+ zeta(s)zeta(t) for even s] - sum_k lam(2k) mu(w-2k).
    Twice it has integer coefficients, so it is summed on ints and halved
    once.  The depth-1 values are read from the rows of weight w.
    """
    # li, slots, weight by index: most atoms leave here
    if atom[0] or len(atom[2]) != 2 or atom[1] % 2 == 0:
        return None
    # The sum below emits up to two products for each of its (w - 1)/2
    # values of k, in one rewrite that the step cap never sees.
    _refuse_past_step_cap("depth2_odd", atom, "emit up to %d products")
    a, b = atom[2]
    s, t = abs(a), abs(b)
    w = atom[1]
    sg, tg = (1 if a > 0 else -1), (1 if b > 0 else -1)
    sign = (-1) ** s
    rows = _depth1_rows(w)
    lam, zs, zt = rows[sg * tg], rows[sg], rows[tg]
    new = tuple.__new__
    # a product's depth-1 factors have weights that add up to the odd w, so
    # they differ: the lighter one first is atom order, and no sort is needed
    twice: dict[Term, int] = {lam[w]: -1}
    twice[zs[w]] = twice.get(zs[w], 0) + sign * math.comb(w - 1, s - 1)
    twice[zt[w]] = twice.get(zt[w], 0) + sign * math.comb(w - 1, t - 1)
    if s % 2 == 0 and (y := zt[t]) is not None:
        term = new(SymbolicTerm, (zs[s], y) if s < t else (y, zs[s]))
        twice[term] = twice.get(term, 0) + 2
    m = -2 * sign
    for e in range(2, w, 2):
        x, r = lam[e], w - e
        if (y := zs[r]) is not None:
            term = new(SymbolicTerm, (x, y) if e < r else (y, x))
            twice[term] = twice.get(term, 0) + m * math.comb(r - 1, s - 1)
        if (y := zt[r]) is not None:
            term = new(SymbolicTerm, (x, y) if e < r else (y, x))
            twice[term] = twice.get(term, 0) + m * math.comb(r - 1, t - 1)
    halves = {c: Fraction(c, 2) for c in set(twice.values()) if c}  # one per distinct value
    return LinComb._of_nonzero({term: halves[c] for term, c in twice.items() if c})


# ---------------------------------------------------------------------------
# Rules and tables
# ---------------------------------------------------------------------------


# A closed form as a rewrite: its name, a function that gives an atom's
# reduced form, or None off the rule's domain, and the depths (slot counts,
# 0 for a Li atom) that domain lies in, a range for the built-in rules.  An
# atom is offered only to the rules whose depths hold its own.
_Rule = tuple[str, Callable[[MzvAtom], LinComb | None], Container[int]]

# Each guard reads an atom's slots, a[2], once; a Li atom has none.  a[1] is the weight.


def _rw_alt_depth1(a: MzvAtom) -> LinComb | None:
    args = a[2]
    if len(args) != 1 or args[0] > -2:
        return None
    _refuse_past_step_cap("alt_depth1", a, "make a coefficient over 2^%d")
    return alt_depth1(-args[0])


def _rw_repeated(a: MzvAtom) -> LinComb | None:
    args = a[2]
    n = len(args)
    if n < 2 or args.count(args[0]) != n:
        return None
    return symmetric_sum(args).scale(Fraction(1, math.factorial(n)))


def _rw_ones(a: MzvAtom) -> LinComb | None:
    args = a[2]
    n = len(args)
    if n < 2 or args[0] < 2 or args.count(1) != n - 1 or a[1] - 1 > LOG_INTEGRAL_CAP:
        return None
    return zeta_ones(args[0] - 1, n - 1)


def default_rules() -> list[_Rule]:
    return [
        ("alt_depth1", _rw_alt_depth1, range(1, 2)),
        ("repeated", _rw_repeated, range(2, sys.maxsize)),
        ("zeta_ones", _rw_ones, range(2, LOG_INTEGRAL_CAP + 2)),
        ("depth2_odd", depth2_odd, range(2, 3)),
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

    @property
    def max_weight(self) -> int:
        return max((atom.weight for atom in self.entries), default=0)

    def __len__(self):
        return len(self.entries)


def load_identity_table(source, verify: bool = False, tol: float = 1e-8, label: str | None = None) -> IdentityTable:
    """Load a JSON-lines identity table from a path or an open text stream;
    malformed or failing entries are rejected individually and reported on
    ``table.report``, as is every line whose lhs an earlier line already
    names.  A path that cannot be opened raises ``OSError``; a file's
    leading UTF-8 byte-order mark is skipped.

    Each line: {"lhs": "z(...)", "rhs": [{"factors": [...], "coeff": "p/q"}],
    "weight": w}; ``rhs`` is read by ``LinComb.from_json_terms``.  With
    ``verify`` set, an entry is rejected unless the oracle's value of
    rhs - lhs agrees with 0 (``numerics.agree``): when it exceeds ``tol``
    by more than its bound, or its bound is infinite.

    A text is parsed once per process for each (verify, tol); every call
    returns a new table with its own ``entries`` and ``report``.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig") as stream:
            text = stream.read()
        name = label or os.fsdecode(source)
    else:
        text = source.read()
        name = label or getattr(source, "name", "stream")
    entries, rejected = _parse_table(text, verify, tol)
    table = IdentityTable(label=str(name))
    table.entries = dict(entries)
    table.report = [f"{name}:{lineno}: rejected: {message}" for lineno, message in rejected]
    return table


@functools.cache
def _parse_table(text: str, verify: bool, tol: float) -> tuple[dict, tuple]:
    """The outcome of one table text: the accepted entries as a dict
    {lhs: rhs} in line order, and (lineno, message) for each rejected line.
    Cached on the exact text, so an edited file is always parsed again;
    callers copy the dict and never change it."""
    entries: dict[MzvAtom, LinComb] = {}
    rejected = []
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
            if "weight" in obj:
                weight = obj["weight"]
                if type(weight) is not int:
                    raise ValueError(f"declared weight {json.dumps(weight)} is not an integer")
                if weight != lhs.weight:
                    raise ValueError(f"declared weight {weight} != atom weight {lhs.weight}")
            if verify:
                _verify_entry(lhs, rhs, tol)
            _check_entry(lhs, rhs)
            entries[lhs] = rhs
        except Exception as e:  # entry-level rejection
            rejected.append((lineno, str(e)))
    return entries, tuple(rejected)


def _verify_entry(lhs: MzvAtom, rhs: LinComb, tol: float):
    from . import numerics

    # rejected unless rhs - lhs agrees with 0 to within tol and its bound
    diff = numerics.eval_lincomb_best(rhs - LinComb.of_atom(lhs))
    if not numerics.agree(diff, numerics.eval_lincomb_best(LinComb()), tol)[0]:
        raise ValueError(
            f"numeric mismatch for {lhs.render()}: |rhs - lhs| = "
            f"{numerics._digits15(abs(diff.value))} +- {numerics._up3(diff.tail_bound)} > {tol:.3g}"
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


class ReduceResult(_Record):
    """The reduced ``value`` and the ``log`` of its steps, each the record
    ``(rule, atom, rest, c, rhs)``, or ``(..., orderings)`` for a reflection:
    the step added c * rest * (rhs - lhs), lhs the atom or the orderings' sum.
    Without a ``log``, the result gets an empty list of its own."""

    __slots__ = ("value", "log")

    def __init__(self, value: LinComb, log: list[tuple] | None = None):
        super().__init__(value, [] if log is None else log)

    @property
    def steps(self) -> int:
        return len(self.log)

    @property
    def trace(self) -> list[str]:
        """The first ``TRACE_CAP`` steps as text, written when read."""
        return [_trace_line(record) for record in self.log[:TRACE_CAP]]


def _trace_line(record: tuple) -> str:
    """A step as text: "rule: atom", or the family a reflection eliminated."""
    rule, atom, rest = record[:3]
    if len(record) == 5:
        return f"{rule}: {atom.render()}"
    last = record[5][-1]  # of a pair, its other ordering
    if rule == "reflection_triple":
        return f"reflection_triple: orderings of {atom.render()} eliminated via {last.render()}"
    cofactor = f" (cofactor {rest.render()})" if not rest.is_unit() else ""
    return f"reflection_pair: {atom.render()} + {last.render()}{cofactor}"


def _term_without(term: Term, atom: MzvAtom) -> Term:
    factors = list(term.factors)
    factors.remove(atom)
    return SymbolicTerm.of(*factors)


def _pair_reflectable(atom: MzvAtom) -> bool:
    """z(a,b) with a < b and an admissible partner z(b,a), i.e. b != 1: the
    atom the pair pass eliminates."""
    args = atom[2]
    return len(args) == 2 and args[0] < args[1] != 1


def _triple_reflectable(atom: MzvAtom) -> bool:
    """An unsigned depth-3 atom with slots >= 2, not all equal: one ordering
    of the family the triple pass eliminates.  Fully repeated slots are left
    to the repeated-slot rule."""
    args = atom[2]
    return len(args) == 3 and min(args) >= 2 and len(set(args)) > 1


# The reflection passes in the order they are tried: (rule, shape of the atom it
# eliminates, index in sorted order of the ordering that pays); pairs keep z(b,a), b > a.
_PASSES = (("reflection_pair", _pair_reflectable, 0), ("reflection_triple", _triple_reflectable, -1))


def _check_weight(atom: MzvAtom, rhs: LinComb):
    """Raise unless ``rhs``, an atom's rewrite, keeps its weight."""
    if rhs.weights() not in ({atom[1]}, set()):
        raise AssertionError(f"weight leak rewriting {atom}: {sorted(rhs.weights())} != {atom[1]}")


@functools.lru_cache(maxsize=1024)
def _orderings(atom: MzvAtom) -> tuple[MzvAtom, ...]:
    """The distinct orderings of a reflectable atom's slots, in sorted order.
    Neither pass shape admits a leading unsigned 1, so each ordering is an
    atom, built without ``MzvAtom``'s checks."""
    return tuple(MzvAtom._of_word(o, atom[1]) for o in sorted(set(itertools.permutations(atom[2]))))


class _WorkingSum:
    """The combination under rewriting: a term -> coefficient dict (zeros
    pruned); a heap, by ``term_key()``, of the terms with an atom that
    rewrites, each with its first such atom and that atom's rewrite, pushed
    each time such a term enters (an entry whose term has since cancelled is
    skipped when popped); and the present terms with an atom a reflection
    pass can eliminate, as (term_key(), term) kept in order as terms enter
    and cancel, which the passes walk in term order.  A term is classified
    as it enters, from ``memo``: atom -> ((rhs, rule name) of its first
    rewrite or None, whether a pass can eliminate it), each atom matched
    once per working sum, against the matchers of its depth only:
    ``at_depth`` holds, for each depth met so far, the (name, rewrite) of
    the rules whose depths hold it, in rule order.  A term with no atom that
    rewrites never touches the heap.  The input's single atoms are
    classified together, depth by depth (``_classify``), before its
    products; a rule that raises stops the classification in that order."""

    def __init__(self, lc: LinComb, rules: list[_Rule]):
        self.rules = rules
        self.at_depth: dict[int, list[tuple[str, Callable[[MzvAtom], LinComb | None]]]] = {}
        self.memo: dict[MzvAtom, tuple[tuple[LinComb, str] | None, bool]] = {}
        self.coeffs: dict[Term, Fraction] = dict(lc._d)
        # The heap orders the terms, so they are read unsorted here and in apply.
        self.heap, self.reflectable = self._classify(t for t in self.coeffs if t.__class__ is MzvAtom)
        products = (t for t in self.coeffs if t.__class__ is not MzvAtom)
        self.heap += [entry for t in products if (entry := self._enter(t)) is not None]
        heapq.heapify(self.heap)

    def _classify(self, atoms: Iterable[MzvAtom]) -> tuple[list[tuple], list[tuple]]:
        """Note in ``memo`` each of the distinct ``atoms``, none there yet:
        the first matcher of its depth that rewrites it, and whether a
        reflection pass can eliminate it.  Each matcher of a depth runs,
        through ``map``, over the atoms of that depth that no earlier
        matcher took.  Returns the heap entries and the sorted reflectable
        entries that the atoms would have as single-atom terms."""
        heap, reflectable = [], []
        by_depth: dict[int, list[MzvAtom]] = {}  # depths in order of first appearance; a Li atom's is 0
        for atom in atoms:
            if (group := by_depth.get(len(atom[2]))) is None:
                by_depth[len(atom[2])] = [atom]
            else:
                group.append(atom)
        for depth, group in by_depth.items():
            matchers = self.at_depth.get(depth)
            if matchers is None:
                matchers = self.at_depth[depth] = [
                    (name, rewrite) for name, rewrite, depths in self.rules if depth in depths
                ]
            left = group
            hits: dict[MzvAtom, tuple[LinComb, str]] = {}
            for name, rewrite in matchers:
                rhss = list(map(rewrite, left))
                if rhss.count(None) == len(rhss):
                    continue
                missed = []
                for atom, rhs in zip(left, rhss):
                    if rhs is None:
                        missed.append(atom)
                    else:
                        _check_weight(atom, rhs)
                        hits[atom] = rhs, name
                left = missed
            shape = _pair_reflectable if depth == 2 else _triple_reflectable if depth == 3 else None
            flags = list(map(shape, group)) if shape else itertools.repeat(False)
            self.memo.update(zip(group, zip(map(hits.get, group), flags)))
            reflectable += [((1, atom), atom) for atom in itertools.compress(group, flags)]
            heap += [((1, atom), atom, atom, hit) for atom, hit in hits.items()]
        reflectable.sort()
        return heap, reflectable

    def _enter(self, term: Term):
        """Classify a term entering the sum: note it as reflectable if it is,
        and return its heap entry if it should be queued, else None."""
        first, reflectable_term = None, False
        memo = self.memo
        # a product's factors are sorted already
        for atom in (term,) if term.__class__ is MzvAtom else term:
            known = memo.get(atom)
            if known is None:
                self._classify((atom,))
                known = memo[atom]
            hit, reflectable = known
            reflectable_term = reflectable_term or reflectable
            if first is None and hit is not None:
                first = (atom, hit)
        if first is None and not reflectable_term:
            return None
        key = term.term_key()
        if reflectable_term:
            bisect.insort(self.reflectable, (key, term))
        return None if first is None else (key, term, *first)

    def add(self, term: Term, c: Fraction):
        old = self.coeffs.get(term)
        if old is None:
            self.coeffs[term] = c
            if (entry := self._enter(term)) is not None:
                heapq.heappush(self.heap, entry)
        elif s := old + c:
            self.coeffs[term] = s
        else:
            self._drop(term)

    def _drop(self, term: Term):
        """Delete a present term, and its place among the reflectable terms."""
        del self.coeffs[term]
        if self.reflectable:
            key = term.term_key()
            i = bisect.bisect_left(self.reflectable, (key,))
            if i < len(self.reflectable) and self.reflectable[i][0] == key:
                del self.reflectable[i]

    def apply(self, record: tuple):
        """Add a step's c * rest * (rhs - lhs); see ``ReduceResult``.  An atom
        step's own term, which still holds c, is deleted, and a unit
        cofactor leaves the rhs terms as they are."""
        _rule, atom, rest, c, rhs, *orderings = record
        if orderings:
            for o in orderings[0]:
                self.add(rest.mul(o), -c)
        else:
            term = rest.mul(atom) if rest else atom
            if self.coeffs.get(term) is c:
                self._drop(term)
            else:
                self.add(term, -c)
        if rest:
            for t, rc in rhs._d.items():
                self.add(rest.mul(t), c * rc)
        else:
            for t, rc in rhs._d.items():
                self.add(t, c * rc)

    def pop_pending(self):
        """The record of the next atom step, which rewrites the first such atom
        of the smallest present term with an atom that rewrites; None if none has."""
        while self.heap:
            _key, term, atom, (rhs, name) = heapq.heappop(self.heap)
            if term in self.coeffs:
                return name, atom, _term_without(term, atom), self.coeffs[term], rhs
        return None


def _next_reflection(work: _WorkingSum) -> tuple | None:
    """The record of one application of the symmetric sum to a family of
    orderings: by the first of ``_PASSES`` that finds one, at the first term
    in sort order with an atom of the pass's shape all of whose distinct
    orderings are present under the same cofactor; None if none is.  With c
    the coefficient of the ordering at the pass's paid index (in sorted
    order), the step subtracts c from each ordering, which eliminates that
    one, and adds c times their sum's closed form."""
    coeffs = work.coeffs
    for rule, shape, paid in _PASSES:
        for _key, term in work.reflectable:
            for atom in dict.fromkeys(filter(shape, term.factors)):
                rest = _term_without(term, atom)
                orderings = _orderings(atom)
                if all(rest.mul(o) in coeffs for o in orderings):
                    # each distinct ordering is len(orderings) / k! of the k! permutations
                    share = Fraction(len(orderings), math.factorial(len(atom[2])))
                    rhs = symmetric_sum(orderings[0][2]).scale(share)
                    return rule, atom, rest, coeffs[rest.mul(orderings[paid])], rhs, orderings
    return None


def reduce_lincomb(
    lc: LinComb,
    tables: Iterable[IdentityTable] = (),
    rules: list[_Rule] | None = None,
    max_steps: int = STEP_CAP,
) -> ReduceResult:
    """Rewrite ``lc`` to its fixpoint under tables, atom rules, and the
    symmetric-sum passes.  Irreducible atoms pass through untouched.

    Each step rewrites the first rewritable atom, in sort order, of the
    smallest term that has one; only when no atom rewrites does one
    reflection pass (pairs, then triples) fire.  Each step is one record of
    the result's log; no text is written until ``trace`` is read.  An atom
    step touches only the terms it creates or cancels; each distinct atom
    is matched once per call, as its term enters, against the tables and
    rules whose depths hold its depth, so a rule that leaks weight fails on
    any atom of its depths that enters, even one never rewritten.  A table
    covers the depths of its entries, read when the call starts.  A
    reflection pass walks the terms that hold an atom it can eliminate, in
    term order, and stops at the first whose family of orderings is
    complete.
    """
    if rules is None:
        rules = default_rules()
    rules = [(f"table[{t.label}]", t.entries.get, {len(a[2]) for a in t.entries}) for t in tables] + rules
    work = _WorkingSum(lc, rules)
    log: list[tuple] = []
    while len(log) < max_steps:
        record = work.pop_pending() or _next_reflection(work)
        if record is None:
            break
        work.apply(record)
        log.append(record)
    else:
        raise StepCapError("reduction did not reach a fixpoint within %d steps", max_steps)
    return ReduceResult(LinComb._of_nonzero(work.coeffs), log)
