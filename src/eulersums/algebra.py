"""Exact value system: MZV atoms, products of atoms, and Q-linear combinations.

Every quantity handled by the expansion and reduction engines is a finite
linear combination, with rational coefficients, of products of "atoms".  An
atom is either

  * a (possibly alternating) multiple zeta value, stored as a tuple of
    nonzero signed integers where a negative entry -s stands for the
    alternating slot "s bar" (so ``z(-5, 1)`` is the depth-2 value with an
    alternating leading slot), or
  * the polylogarithm constant Li_q(1/2), a basis element of the alternating,
    low-weight reduction bases.

Terms order themselves: an atom is the tuple ``(li, weight, args)`` and a
product the sorted tuple of its factors, so tuple order is term order.

Coefficients are ``fractions.Fraction`` throughout; no floating point enters
this module.  All values are immutable after construction and safe to share.

Sign conventions:
  * the depth-1 alternating value ``z(-1)`` equals -ln(2) (the series
    sum over n of (-1)^n / n); renderers may display it as -ln(2),
  * an atom's leading slot must not be an unsigned 1 (the defining nested
    series would diverge); ``z(-1, ...)`` is allowed.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

from .indices import _INT_RE

# The rational text the program writes: an ASCII integer or p/q, q > 0.
_RATIONAL_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


class Refusal(Exception):
    """An input an engine declines (exit 4).  ``args`` are a ``%`` template and
    its values, so no number is written until the message is read."""

    def __str__(self):
        return self.args[0] % self.args[1:]


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and strings like '3/4' or '-5' to Fraction;
    a bool is not a number here.  A string must match ``_RATIONAL_RE``,
    surrounding whitespace aside: '0.25', '1e2' or '1_0' raise ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if not _RATIONAL_RE.fullmatch(text):
            raise ValueError(f"not a rational p/q: {x!r}")
        return Fraction(text)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class MzvAtom(tuple):
    """One multiple zeta value (or one Li_q(1/2) constant).

    The atom is the tuple ``(li, weight, args)``.  ``args`` is the tuple of
    signed slots for a zeta atom; ``li`` is the polylogarithm order for a
    Li(q,1/2) atom, in which case ``args`` is empty.  ``weight`` (sum of
    |slot|, or the Li order) is a function of the other two, stored so that
    it is read without arithmetic.  Hashing, equality, construction and order
    are those of ``tuple``: zeta atoms (``li`` 0) by weight and then slots,
    before the Li constants by order.
    """

    __slots__ = ()

    li = property(operator.itemgetter(0))
    weight = property(operator.itemgetter(1))
    args = property(operator.itemgetter(2))

    def __new__(cls, args: tuple[int, ...] = (), li: int = 0):
        if li:
            if args:
                raise ValueError("Li atom carries no zeta slots")
            if li < 1:
                raise ValueError("Li order must be a positive integer")
            return tuple.__new__(cls, (li, li, args))
        if not args:
            raise ValueError("zeta atom needs at least one slot")
        if 0 in args:
            raise ValueError(f"zero slot in {args}")
        if args[0] == 1:
            # An unsigned leading 1 gives a divergent nested series.  The
            # expansion engines never produce one, so this is a logic error.
            raise ValueError(f"divergent atom: leading unsigned 1 in {args}")
        return tuple.__new__(cls, (0, sum(map(abs, args)), args))

    def __getnewargs__(self):
        return self[2], self[0]

    @staticmethod
    def _of_word(args: tuple[int, ...], weight: int) -> "MzvAtom":
        """The zeta atom with slots ``args`` and weight ``weight``, built
        without the checks of ``__new__``: the caller guarantees that
        ``args`` is a nonempty tuple of nonzero slots, not led by an unsigned
        1, whose magnitudes sum to ``weight``."""
        return tuple.__new__(MzvAtom, (0, weight, args))

    @property
    def depth(self) -> int:
        return len(self.args)  # a Li atom has no slots

    # -- the term protocol: an atom is the term with that one factor -----

    @property
    def factors(self) -> tuple["MzvAtom", ...]:
        return (self,)

    def is_unit(self) -> bool:
        return False

    def mul(self, other: "Term") -> "Term":
        return SymbolicTerm.of(self, *other.factors)

    def term_key(self) -> tuple:
        """``SymbolicTerm.term_key`` of the one-factor product."""
        return (1, self)

    def render(self) -> str:
        if self[0]:
            return f"Li({self[0]},1/2)"
        args = self[2]
        return _zeta_format(len(args)) % args

    def latex(self) -> str:
        if self.li:
            return r"\mathrm{Li}_{%d}(\tfrac12)" % self.li
        if self.args == (-1,):
            return r"-\ln(2)"  # z(-1) = -ln 2
        body = ",".join((r"\bar{%d}" % -a) if a < 0 else str(a) for a in self.args)
        return r"\zeta(%s)" % body

    def __repr__(self):
        return self.render()


@functools.cache
def _zeta_format(depth: int) -> str:
    """"z(%d,...,%d)" with ``depth`` slots.  ``%d`` prints an int as ``str``
    does, with the same ``ValueError`` past the interpreter's digit limit."""
    return "z(" + ",".join(["%d"] * depth) + ")"


def z(*args: int) -> MzvAtom:
    """Zeta atom constructor: z(-5, 1) is the value with slots (5 bar, 1)."""
    return MzvAtom(args=tuple(args))


def li_half(q: int) -> MzvAtom:
    """The constant Li_q(1/2)."""
    return MzvAtom(li=q)


def parse_atom(text: str) -> MzvAtom:
    """Parse the canonical rendering 'z(a,b,...)' or 'Li(q,1/2)'.  Each slot
    is an integer as an index writes it (``-?[1-9][0-9]*``, ASCII), with
    whitespace allowed around it."""
    s = text.strip()
    if s.startswith("Li(") and s.endswith(")"):
        parts = [p.strip() for p in s[3:-1].split(",")]
        q = parts[0] if len(parts) == 2 and parts[1] == "1/2" else ""
        if not _INT_RE.fullmatch(q) or int(q) < 1:
            raise ValueError(f"malformed Li atom: {text!r}")
        return li_half(int(q))
    if s.startswith("z(") and s.endswith(")"):
        slots = [p.strip() for p in s[2:-1].split(",")]
        if not all(_INT_RE.fullmatch(p) for p in slots):
            raise ValueError(f"malformed zeta atom: {text!r}")
        return MzvAtom(args=tuple(map(int, slots)))
    raise ValueError(f"unrecognized atom rendering: {text!r}")


class SymbolicTerm(tuple):
    """A commutative product of atoms: the unit term or a product of two or
    more atoms, the tuple of its factors in atom order.

    The empty product is the unit term and represents the constant 1, so
    plain rationals live inside LinComb uniformly.  A term of one atom is
    that ``MzvAtom`` itself, never a one-factor ``SymbolicTerm``, so each
    term has exactly one representation as a key.  Both classes share the
    term protocol: ``factors``, ``weight``, ``is_unit``, ``mul``,
    ``term_key``, ``render`` and ``latex``.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[MzvAtom] = ()):
        factors = sorted(factors)
        if len(factors) == 1:
            raise ValueError("a one-atom term is the MzvAtom itself")
        return tuple.__new__(cls, factors)

    @property
    def factors(self) -> "SymbolicTerm":
        return self

    @staticmethod
    def of(*atoms: MzvAtom) -> "Term":
        """The product of ``atoms``: the unit term, the one atom, or a
        ``SymbolicTerm``, which sorts them."""
        if len(atoms) == 1:
            return atoms[0]
        return SymbolicTerm(atoms)

    @property
    def weight(self) -> int:
        return sum(a.weight for a in self)

    def is_unit(self) -> bool:
        return not self

    def mul(self, other: "Term") -> "Term":
        return SymbolicTerm.of(*self, *other.factors)

    def term_key(self) -> tuple:
        """Terms by factor count, then factor by factor in atom order."""
        return (len(self), *self)

    def render(self) -> str:
        if not self:
            return "1"
        return "*".join(a.render() for a in self)

    def latex(self) -> str:
        if not self:
            return "1"
        # Fold the sign of ln(2) factors (z(-1) = -ln 2) into the display.
        pieces = [a.latex() for a in self if a.args != (-1,)]
        n_ln2 = len(self) - len(pieces)
        if n_ln2:
            pieces.append(r"\ln(2)" if n_ln2 == 1 else r"\ln^{%d}(2)" % n_ln2)
        return ("-" if n_ln2 % 2 else "") + " ".join(pieces)

    def __repr__(self):
        return self.render()


UNIT_TERM = SymbolicTerm()

_TERM_KEY = operator.methodcaller("term_key")

# A term of a LinComb: the unit, one atom, or a product of two or more atoms.
Term = MzvAtom | SymbolicTerm


class LinComb:
    """A finite Q-linear combination of terms (see ``SymbolicTerm``).

    Stored as a mapping term -> Fraction with zero coefficients pruned on
    every construction; two combinations are equal iff their mappings are.
    Instances are never mutated after construction.
    """

    __slots__ = ("_d",)

    def __init__(self, entries: Mapping[Term, Fraction] | None = None):
        d = {}
        if entries:
            for t, c in entries.items():
                c = as_fraction(c)
                if c:
                    d[t] = c
        self._d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of_nonzero(d: dict[Term, Fraction]) -> "LinComb":
        """Wrap ``d``, whose values are already nonzero Fractions, without
        copying or checking it; the caller hands ``d`` over."""
        out = LinComb.__new__(LinComb)
        out._d = d
        return out

    @staticmethod
    def scalar(c) -> "LinComb":
        return LinComb({UNIT_TERM: as_fraction(c)})

    @staticmethod
    def of_atom(atom: MzvAtom, coeff=1) -> "LinComb":
        return LinComb({atom: as_fraction(coeff)})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Term, Fraction]]:
        """The (term, coefficient) pairs in ``term_key`` order: the unit,
        then the zeta atoms by weight, then the Li atoms and the products."""
        order = sorted(self._d, key=_TERM_KEY)
        return zip(order, map(self._d.__getitem__, order))

    def coeff(self, term: Term) -> Fraction:
        return self._d.get(term, Fraction(0))

    def atoms(self) -> set[MzvAtom]:
        out = set()
        for t in self._d:
            out.update(t.factors)
        return out

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def weights(self) -> set[int]:
        """Set of total weights present (weight-homogeneous results have one)."""
        return {t.weight for t in self._d}

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        d = dict(self._d)
        for t, c in other._d.items():
            s = d.get(t, Fraction(0)) + c
            if s:
                d[t] = s
            elif t in d:
                del d[t]
        return LinComb._of_nonzero(d)

    def __neg__(self) -> "LinComb":
        return LinComb._of_nonzero({t: -c for t, c in self._d.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = as_fraction(c)
        return LinComb._of_nonzero({t: c * v for t, v in self._d.items()} if c else {})

    def __mul__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        d: dict[Term, Fraction] = {}
        for t1, c1 in self._d.items():
            for t2, c2 in other._d.items():
                t = t1.mul(t2)
                s = d.get(t, Fraction(0)) + c1 * c2
                if s:
                    d[t] = s
                elif t in d:
                    del d[t]
        return LinComb._of_nonzero(d)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._d == other._d

    def __reduce__(self):
        # pickled and copied through the constructor, at every pickle protocol
        return LinComb, (self._d,)

    # -- rendering ----------------------------------------------------

    def render(self, texts: Mapping[MzvAtom, str] | None = None) -> str:
        """Signed terms, a coefficient of magnitude 1 left out except on the
        unit; as in ``json_terms``, coefficient text is made once per object.
        ``texts``, if given, maps every atom of the combination, products'
        factors included, to its ``render()``, and each atom's text is read
        from it."""
        if not self._d:
            return "0"
        heads: dict[int, tuple[str, str]] = {}  # id(c) -> text before the unit, before another term
        parts = []
        for t, c in self.items():
            head = heads.get(id(c))
            if head is None:
                n, d = c.numerator, c.denominator
                mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
                sign = " - " if n < 0 else " + "
                head = heads[id(c)] = (sign + mag, sign if mag == "1" else sign + mag + "*")
            if not t:  # the unit, the empty product
                parts.append(head[0])
            elif texts is not None:
                text = texts[t] if t.__class__ is MzvAtom else "*".join([texts[a] for a in t])
                parts.append(head[1] + text)
            elif t.__class__ is MzvAtom and not t[0]:  # a zeta atom: li, slots by index
                args = t[2]
                parts.append(head[1] + _zeta_format(len(args)) % args)
            else:
                parts.append(head[1] + t.render())
        text = "".join(parts)
        return ("-" if text[1] == "-" else "") + text[3:]

    def latex(self) -> str:
        if not self._d:
            return "0"
        parts = []
        for t, c in self.items():
            body = t.latex()
            if body.startswith("-"):  # ln 2 factors (z(-1) = -ln 2) flip the shown sign
                c, body = -c, body[1:]
            n, d = abs(c.numerator), c.denominator
            coeff = str(n) if d == 1 else r"\frac{%d}{%d}" % (n, d)
            parts.append(" - " if c < 0 else " + ")
            parts.append(coeff if t.is_unit() else body if coeff == "1" else f"{coeff} {body}")
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def to_json_terms(self) -> list[dict]:
        return [
            {"factors": [a.render() for a in t.factors], "coeff": str(c)}
            for t, c in self.items()
        ]

    def json_terms(self) -> str:
        """``json.dumps(self.to_json_terms())``, written by ``json_pieces``."""
        return "[" + ", ".join(json_pieces(self.items())) + "]"

    @staticmethod
    def from_json_terms(terms: list[dict]) -> "LinComb":
        """The inverse of ``to_json_terms``; ValueError unless ``terms`` is a list
        of {"factors": [atom text, ...], "coeff": rational text or integer}."""
        if not isinstance(terms, list) or not all(
            isinstance(t, dict)
            and isinstance(t.get("factors"), list)
            and all(isinstance(f, str) for f in t["factors"])
            and isinstance(t.get("coeff"), (str, int))
            for t in terms
        ):
            raise ValueError('expected terms [{"factors": [ATOM, ...], "coeff": RATIONAL}, ...]')
        acc: dict[Term, Fraction] = {}
        for entry in terms:
            term = SymbolicTerm.of(*(parse_atom(f) for f in entry["factors"]))
            acc[term] = acc.get(term, Fraction(0)) + as_fraction(entry["coeff"])
        return LinComb(acc)

    def __repr__(self):
        return f"LinComb({self.render()})"


def json_pieces(pairs: Iterable[tuple[Term, Fraction]],
                texts: Mapping[MzvAtom, str] | None = None) -> Iterator[str]:
    """The JSON object of each (term, coefficient) pair, as ``json.dumps``
    writes an element of ``LinComb.to_json_terms()``, one piece per pair as
    it is read: a zeta atom's in one concatenation, and the text after the
    factors once per coefficient object, since the expansion engines share
    one ``Fraction`` per distinct value.  Atom renderings and rationals use
    only ``[A-Za-z0-9(),/ -]``, so nothing needs escaping.  ``texts``, if
    given, maps every atom to its ``render()`` as in ``LinComb.render``."""
    # id(c) -> (c, '"], "coeff": "c"}'); holding c keeps its id from being reused
    tails: dict[int, tuple[Fraction, str]] = {}
    # the text source, chosen once: given ``texts``, no atom is written inline
    inline, text = (MzvAtom, MzvAtom.render) if texts is None else (None, texts.__getitem__)
    for t, c in pairs:
        tail = tails.get(id(c))
        if tail is None:
            tail = tails[id(c)] = (c, '"], "coeff": "' + str(c) + '"}')
        if t.__class__ is inline and not t[0]:  # a zeta atom: li, slots by index
            args = t[2]
            yield '{"factors": ["' + _zeta_format(len(args)) % args + tail[1]
        else:
            factors = ", ".join([f'"{text(a)}"' for a in t.factors])
            yield '{"factors": [' + factors + tail[1][1:]  # each factor quoted already
