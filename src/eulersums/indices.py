"""Euler-sum indices: parsing, validation, canonical form, rendering.

An index bundles the signed harmonic exponents (the "inner" list, where a
negative entry -i means the alternating harmonic number of order i) with the
signed outer exponent (negative = the outer series alternates).  The defining
series is symmetric in its harmonic factors, so indices are canonicalized:
unsigned inner entries ascending first, then alternating entries ascending by
absolute value.

Grammar accepted by ``parse_index`` (whitespace insignificant):

    INDEX := "S(" LIST ")" | LIST
    LIST  := INT ("," INT)*
    INT   := "-"? [1-9][0-9]*

The last entry of the list is the outer exponent.  An unsigned outer 1 is
rejected (the series diverges); outer -1 is accepted and conditionally
convergent.
"""

from __future__ import annotations

import itertools
import re
import sys


class IndexParseError(ValueError):
    """Malformed index text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConvergenceError(ValueError):
    """The index denotes a divergent series."""


class Refusal(Exception):
    """An input an engine declines (exit 4).  ``args`` are a ``%`` template and
    its values, so no number is written until the message is read."""

    def __str__(self):
        return self.args[0] % self.args[1:]


class _Record:
    """A record of the fields that its class names in ``__slots__``, which
    cannot be assigned or deleted: equal only to a record of the same class
    with equal fields, hashed by them, and pickled and copied through its
    constructor.  Not a dataclass: importing ``dataclasses`` loads
    ``inspect`` and ``ast``, about a tenth of the CLI's start-up."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class EulerSumIndex(_Record):
    __slots__ = ("inner", "outer")

    def __init__(self, inner: tuple[int, ...], outer: int):
        if outer == 0 or any(i == 0 for i in inner):
            raise ValueError("index entries must be nonzero")
        if outer == 1:
            raise ConvergenceError("outer exponent 1 with a non-alternating outer series diverges")
        if tuple(canonical_inner(inner)) != inner:
            raise ValueError(f"inner entries not in canonical order: {inner}")
        super().__init__(inner, outer)

    @property
    def weight(self) -> int:
        return sum(abs(i) for i in self.inner) + abs(self.outer)

    @property
    def degree(self) -> int:
        return len(self.inner)

    @property
    def is_alternating(self) -> bool:
        return self.outer < 0 or any(i < 0 for i in self.inner)

    def to_json(self) -> dict:
        return {"inner": list(self.inner), "outer": self.outer}

    def __repr__(self):
        return render_index(self, "plain")


def canonical_inner(entries) -> list[int]:
    pos = sorted(e for e in entries if e >= 0)  # a zero stays, for EulerSumIndex to refuse
    neg = sorted((e for e in entries if e < 0), key=abs)
    return pos + neg


def make_index(inner, outer: int) -> EulerSumIndex:
    return EulerSumIndex(tuple(canonical_inner(inner)), outer)


_INT_RE = re.compile(r"-?[1-9][0-9]*")


def parse_index(text: str) -> EulerSumIndex:
    """Parse index text; whitespace may separate tokens but not split them."""
    s = text
    pos = 0

    def skip_ws(p):
        while p < len(s) and s[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == len(s):
        raise IndexParseError("empty index", pos)
    wrapped = False
    if s[pos] in "Ss" and s.startswith("(", skip_ws(pos + 1)):
        wrapped = True
        pos = skip_ws(skip_ws(pos + 1) + 1)
    entries = []
    expect_int = True
    while True:
        pos = skip_ws(pos)
        if pos == len(s) or (wrapped and s[pos] == ")"):
            break
        if expect_int:
            m = _INT_RE.match(s, pos)
            if not m:
                raise IndexParseError(f"expected a nonzero integer, found {s[pos:]!r}", pos)
            try:
                entries.append(int(m.group()))
            except ValueError:  # the text is an integer: it has more digits than the interpreter reads
                raise IndexParseError(f"entry of more than {sys.get_int_max_str_digits()} digits, "
                                      "the interpreter's limit for reading an integer", pos) from None
            pos = m.end()
            expect_int = False
        else:
            if s[pos] != ",":
                raise IndexParseError(f"expected ',', found {s[pos]!r}", pos)
            pos += 1
            expect_int = True
    if expect_int and entries:
        raise IndexParseError("trailing comma", pos)
    if wrapped:
        if pos == len(s) or s[pos] != ")":
            raise IndexParseError("missing closing parenthesis", pos)
        pos = skip_ws(pos + 1)
        if pos != len(s):
            raise IndexParseError(f"unexpected trailing text {s[pos:]!r}", pos)
    if not entries:
        raise IndexParseError("empty list", pos)
    outer = entries[-1]
    inner = entries[:-1]
    if outer == 1:
        raise ConvergenceError(f"index {text!r} diverges: outer exponent 1 without alternation")
    return make_index(inner, outer)


def _latex_entry(e: int) -> str:
    return str(e) if e > 0 else r"\bar{%d}" % -e


def _latex_inner(inner: tuple[int, ...]) -> str:
    """Repeated entries in power notation, and an unbarred entry of two or
    more digits in parentheses, so that no two indices read alike:
    (1,1,2) -> 1^{2}2, (1,12) -> 1(12), (12,12) -> (12)^{2}."""
    runs = (
        ("(%d)" % e if e >= 10 else _latex_entry(e), len(list(run)))
        for e, run in itertools.groupby(inner)
    )
    return "".join(base if count == 1 else base + "^{%d}" % count for base, count in runs)


def render_index(idx: EulerSumIndex, style: str = "plain") -> str:
    if style == "plain":
        return "S(" + ",".join(str(e) for e in idx.inner + (idx.outer,)) + ")"
    if style == "latex":
        q = _latex_entry(idx.outer)
        if idx.inner:
            return r"S_{%s,%s}" % (_latex_inner(idx.inner), q)
        return (r"-\zeta(%s)" if idx.outer < 0 else r"\zeta(%s)") % q  # S(-q) = -z(-q)
    raise ValueError(f"unknown style {style!r}")
