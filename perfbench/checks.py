"""Output checks that do not trust the code under test.

* ``check_finite_n``: an ``expand --output json`` document must satisfy the
  exact finite-N identity S_N(index) = sum c * zeta_N(atom) at the two N
  just above the deepest atom.  Both sides are evaluated here, with Python
  integers and fractions, by code that shares nothing with the library.
* ``golden_digest``: expand and reduce stdout must be byte-identical to the
  goldens recorded at the commit that introduced the benchmark
  (``goldens.json``, written by ``record_goldens.py``).
* ``parse_verify``: a verify report must end in PASS; its printed series and
  expansion bounds decide whether the request met ``--tol``.

Conventions, as documented by the library: a barred harmonic factor is
sum_{k<=n} (-1)^(k-1) / k^r, a barred outer exponent contributes
(-1)^(n-1) / n^q, and a barred atom slot contributes (-1)^n_j / n_j^s.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def golden_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def golden_key(argv: list[str]) -> str:
    """Key a request by its command line, with the table path left out."""
    out = []
    skip = False
    for a in argv:
        if skip:
            out.append("<table>")
            skip = False
            continue
        out.append(a)
        skip = a == "--table"
    return " ".join(out)


def load_goldens(path: str = GOLDENS_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def euler_sum_finite(entries, n_max: int) -> Fraction:
    """S_N of the index ``entries`` (inner entries, then the outer exponent)."""
    *inner, outer = entries
    total = Fraction(0)
    harmonic = [Fraction(0)] * len(inner)
    for n in range(1, n_max + 1):
        for i, e in enumerate(inner):
            sign = (-1) ** (n - 1) if e < 0 else 1
            harmonic[i] += Fraction(sign, n ** abs(e))
        term = Fraction((-1) ** (n - 1) if outer < 0 else 1, n ** abs(outer))
        for h in harmonic:
            term *= h
        total += term
    return total


class _ChainSums:
    """zeta_n(slots) * L^weight as exact integers, for every n <= n_max.

    ``L = lcm(1..n_max)`` makes each chain term an integer; arrays are
    memoized on the slot suffix, which atoms of one expansion share.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.lcm = math.lcm(*range(1, n_max + 1))
        self._memo: dict[tuple[int, ...], list[int]] = {(): [1] * (n_max + 1)}

    def get(self, slots: tuple[int, ...]) -> list[int]:
        arr = self._memo.get(slots)
        if arr is None:
            rest = self.get(slots[1:])
            s, barred = abs(slots[0]), slots[0] < 0
            arr = [0] * (self.n_max + 1)
            for n in range(1, self.n_max + 1):
                term = (self.lcm // n) ** s * rest[n - 1]
                arr[n] = arr[n - 1] + (-term if barred and n % 2 else term)
            self._memo[slots] = arr
        return arr


_ATOM_RE = re.compile(r"z\((-?\d+(?:,-?\d+)*)\)")


def check_finite_n(doc: dict) -> str | None:
    """None when the expansion satisfies the identity, else the reason."""
    entries = tuple(doc["index"]["inner"]) + (doc["index"]["outer"],)
    weight = sum(abs(e) for e in entries)
    atoms = []
    for term in doc["terms"]:
        if len(term["factors"]) != 1:
            return f"product term {term['factors']} has no finite-N counterpart"
        m = _ATOM_RE.fullmatch(term["factors"][0])
        if m is None:
            return f"unexpected factor {term['factors'][0]!r}"
        slots = tuple(int(t) for t in m.group(1).split(","))
        if sum(abs(s) for s in slots) != weight:
            return f"atom {term['factors'][0]} has the wrong weight"
        atoms.append((slots, Fraction(term["coeff"])))
    depth = max((len(s) for s, _ in atoms), default=0)
    sums = _ChainSums(depth + 2)
    # Exact rational sum per N, without a Fraction operation per term.
    by_den: dict[int, list[int]] = {}
    for slots, c in atoms:
        arr = sums.get(slots)
        acc = by_den.setdefault(c.denominator, [0, 0])
        acc[0] += c.numerator * arr[depth + 1]
        acc[1] += c.numerator * arr[depth + 2]
    scale = sums.lcm**weight
    for k, n in enumerate((depth + 1, depth + 2)):
        rhs = sum((Fraction(v[k], den) for den, v in by_den.items()), Fraction(0))
        if rhs != euler_sum_finite(entries, n) * scale:
            return f"finite-N identity fails at N={n}"
    return None


def check_expand_output(stdout: str) -> str | None:
    """``check_finite_n`` on raw ``expand --output json`` stdout."""
    try:
        return check_finite_n(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
        return f"stdout is not an expansion document ({type(e).__name__}: {e})"


_BOUND_RE = {
    "series": re.compile(r"^series\s+=\s+\S+\s+\(bound (\S+), N=\d+\)$", re.M),
    "expansion": re.compile(r"^expansion\s+=\s+\S+\s+\(bound (\S+); engine ", re.M),
}


def parse_verify(stdout: str, tol: float) -> tuple[str | None, bool]:
    """(failure reason or None, whether both printed bounds reach ``tol``)."""
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "PASS":
        return "verify did not print PASS", False
    bounds = []
    for name, rx in _BOUND_RE.items():
        m = rx.search(stdout)
        if m is None:
            return f"verify printed no {name} bound", False
        bounds.append(float(m.group(1)))
    return None, all(b <= tol for b in bounds)
