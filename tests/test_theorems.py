"""The paper's corollaries on linear sums, checked exactly, and the order
independence of ``reduce``.

Each right-hand side is written from the theorem it states, never from the
rules of ``reduction``: Euler's formula for S(1,q), and the theorem that
every (alternating) linear sum S(+-p,+-q) of odd weight is a polynomial in
depth-1 values (Borwein, Borwein and Girgensohn, Proc. Edinburgh Math. Soc.
38 (1995); Flajolet and Salvy, Experimental Math. 7 (1998)).

``reduce`` is meant to give one fixpoint whatever the order in which it
meets terms or takes steps: the stored order of its input changes nothing
it reports, and a first-in, first-out queue of atom steps in place of its
heap changes no value.
"""

import math
import random
from fractions import Fraction

import pytest

from eulersums import reduction
from eulersums.algebra import LinComb, z
from eulersums.expansion import expand_t1, expand_t2
from eulersums.indices import make_index, parse_index
from eulersums.reduction import reduce_lincomb

from fixtures_closed_forms import lc
from reference_oracles import convergent_indices


def test_euler_formula_for_s1q():
    # 2 S(1,q) = (q + 2) zeta(q + 1) - sum_{j=1}^{q-2} zeta(j + 1) zeta(q - j)
    for q in range(2, 31):
        closed = lc((q + 2, [z(q + 1)]), *((-1, [z(j + 1), z(q - j)]) for j in range(1, q - 1)))
        got = reduce_lincomb(expand_t1(make_index([1], q))).value.scale(2)
        assert got == reduce_lincomb(closed).value, q


def test_odd_weight_linear_sums_reduce_to_depth_one():
    count = 0
    for w in range(3, 26, 2):
        for p in range(1, w):
            for sp in (1, -1):
                for sq in (1, -1):
                    if (w - p, sq) == (1, 1):
                        continue  # an unsigned outer 1 diverges
                    idx = make_index([sp * p], sq * (w - p))
                    value = reduce_lincomb(expand_t1(idx)).value
                    assert all(a.depth == 1 for a in value.atoms()), idx
                    count += 1
    assert count == 600


def _zeta(s: int) -> LinComb:
    """zeta(s) under the conventions of the theorem below: zeta(0) = -1/2,
    and zeta(1) = 0, so that a term holding the divergent zeta(1) drops."""
    if s == 0:
        return LinComb.scalar(Fraction(-1, 2))
    return LinComb.of_atom(z(s)) if s > 1 else LinComb()


def _flajolet_salvy(p: int, q: int) -> LinComb:
    """S(p,q) = sum over n of H_n^(p) / n^q, p + q odd (Flajolet and Salvy,
    Theorem 3.1): (1 - (-1)^p)/2 z(p) z(q) + z(p+q)/2
    + (-1)^p sum_{k=0}^{floor(p/2)} C(p+q-2k-1, q-1) z(2k) z(p+q-2k)
    + (-1)^p sum_{k=0}^{floor(q/2)} C(p+q-2k-1, p-1) z(2k) z(p+q-2k)."""
    w, sign = p + q, (-1) ** p
    acc = (_zeta(p) * _zeta(q)).scale(Fraction(1 - sign, 2)) + _zeta(w).scale(Fraction(1, 2))
    for top, below in ((p, q), (q, p)):
        for k in range(top // 2 + 1):
            acc += (_zeta(2 * k) * _zeta(w - 2 * k)).scale(sign * math.comb(w - 2 * k - 1, below - 1))
    return acc


def test_flajolet_salvy_odd_weight_linear_sums():
    # every S(p,q) of odd weight 3-25: its expansion and the theorem's form
    # reduce to the same value
    count = 0
    for w in range(3, 26, 2):
        for p in range(1, w - 1):
            idx = make_index([p], w - p)
            closed = _flajolet_salvy(p, w - p)
            assert reduce_lincomb(expand_t1(idx)).value == reduce_lincomb(closed).value, idx
            count += 1
    assert count == 144


# ten degree-5 indices of the reduce benchmark, its first draws at seed 1
_BENCH = ["S(1,4,-2,-3,-7,3)", "S(1,4,5,7,8,2)", "S(2,8,-1,-4,-7,2)", "S(6,8,-2,-3,-4,-2)", "S(3,6,8,-4,-5,2)",
          "S(6,7,-4,-5,-8,2)", "S(1,2,3,5,-8,3)", "S(4,6,-1,-2,-3,2)", "S(3,6,7,-2,-5,-2)", "S(8,-1,-3,-6,-7,3)"]


@pytest.fixture(scope="module")
def corpus():
    """250 combinations: the benchmark's ten, the t1 expansion of every
    convergent index of weight <= 6 and the t2 expansion of every
    t2-eligible one of weight <= 8."""
    out = [expand_t1(parse_index(text)) for text in _BENCH]
    out += [expand_t1(idx) for idx in convergent_indices(6)]
    out += [expand_t2(idx) for idx in convergent_indices(8) if idx.outer >= 2 and min(idx.inner, default=2) >= 2]
    assert len(out) == 250
    return out


def test_reduce_ignores_the_stored_term_order(corpus, starter_table):
    rng = random.Random(52)
    for comb in corpus:
        items = list(comb.items())
        rng.shuffle(items)
        shuffled = LinComb(dict(items))
        for tables in ([], [starter_table]):
            a, b = reduce_lincomb(comb, tables=tables), reduce_lincomb(shuffled, tables=tables)
            assert (a.value, a.steps, a.trace) == (b.value, b.steps, b.trace), comb


class _FifoQueue:
    """Stands in for ``heapq`` in ``reduction``: atom steps are taken in the
    order their terms were queued."""

    @staticmethod
    def heapify(heap):
        pass

    @staticmethod
    def heappush(heap, item):
        heap.append(item)

    @staticmethod
    def heappop(heap):
        return heap.pop(0)


def test_reduce_value_does_not_depend_on_the_step_order(corpus, starter_table, monkeypatch):
    for tables in ([], [starter_table]):
        expected = [reduce_lincomb(comb, tables=tables).value for comb in corpus]
        monkeypatch.setattr(reduction, "heapq", _FifoQueue)
        got = [reduce_lincomb(comb, tables=tables).value for comb in corpus]
        monkeypatch.undo()
        assert got == expected
