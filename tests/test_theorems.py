"""The paper's corollaries on linear sums, checked exactly, the order
independence of ``reduce``, and relations that hold at every weight, checked
on the numeric oracle.

Each right-hand side is written from the theorem it states, never from the
rules of ``reduction``: Euler's formula for S(1,q), and the theorem that
every (alternating) linear sum S(+-p,+-q) of odd weight is a polynomial in
depth-1 values (Borwein, Borwein and Girgensohn, Proc. Edinburgh Math. Soc.
38 (1995); Flajolet and Salvy, Experimental Math. 7 (1998)).  Each value
``reduce`` gives is compared with the form as the theorem writes it, which
for Flajolet and Salvy's is ``reference_oracles.flajolet_salvy``.

``reduce`` is meant to give one fixpoint whatever the order in which it
meets terms or takes steps: the stored order of its input changes nothing
it reports, and a first-in, first-out queue of atom steps in place of its
heap changes no value.

A relation that holds at every weight gives a combination known to be 0
where the suite knows few exact values, so ``eval_lincomb_best`` must bound
each one's value by its ``tail_bound``.  These are written from their
theorems, without ``reduction``: the distribution relation and the sum
theorem.
"""

import itertools
import random
from fractions import Fraction

import pytest

from eulersums import reduction
from eulersums.algebra import LinComb, z
from eulersums.expansion import expand_t1, expand_t2
from eulersums.indices import make_index, parse_index
from eulersums.numerics import eval_lincomb_best
from eulersums.reduction import reduce_lincomb

from fixtures_closed_forms import lc
from reference_oracles import compositions, convergent_indices, flajolet_salvy


def test_euler_formula_for_s1q():
    # 2 S(1,q) = (q + 2) zeta(q + 1) - sum_{j=1}^{q-2} zeta(j + 1) zeta(q - j)
    for q in range(2, 31):
        closed = lc((q + 2, [z(q + 1)]), *((-1, [z(j + 1), z(q - j)]) for j in range(1, q - 1)))
        assert reduce_lincomb(expand_t1(make_index([1], q))).value.scale(2) == closed, q


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


def test_flajolet_salvy_odd_weight_linear_sums():
    # every S(p,q) of odd weight 3-25 reduces to the theorem's form itself
    count = 0
    for w in range(3, 26, 2):
        for p in range(1, w - 1):
            idx = make_index([p], w - p)
            assert reduce_lincomb(expand_t1(idx)).value == flajolet_salvy(p, w - p), idx
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


def _outside_bound(relations):
    """The relations whose value ``eval_lincomb_best`` does not bound by its
    ``tail_bound``, with that value and bound."""
    out = []
    for rel in relations:
        res = eval_lincomb_best(rel)
        if abs(res.value) > res.tail_bound:
            out.append((rel, float(res.value), res.tail_bound))
    return out


def _distribution(s):
    """The sum over every sign vector e of z(e s), less 2^(k-w) z(s), for
    unsigned s of weight w and depth k with s_1 >= 2, so that every signed
    word converges.  It is 0 (Bluemlein, Broadhurst and Vermaseren; Zhao,
    2010): summed over e, the signs e_j^(n_j) give 2^k where every n_j is
    even and 0 elsewhere, which leaves 2^k z(s) / 2^w."""
    k, w = len(s), sum(s)
    signed = [(1, [z(*(e * a for e, a in zip(signs, s)))]) for signs in itertools.product((1, -1), repeat=k)]
    return lc(*signed, (-Fraction(2**k, 2**w), [z(*s)]))


def _sum_theorem(w, k):
    """The sum of z(s) over the unsigned s of weight w and depth k with
    s_1 >= 2, less z(w): 0 (Granville, 1997; Zagier)."""
    return lc(*((1, [z(*s)]) for s in compositions(w) if len(s) == k and s[0] >= 2), (-1, [z(w)]))


@pytest.mark.parametrize("weights, depths, count", [(range(2, 9), range(1, 5), 98), ((17,), (2,), 15)],
                         ids=["w2-8", "w17"])
def test_distribution_relations_hold_within_their_bounds(weights, depths, count):
    # w = 17 is the lowest weight in the reduce benchmark's pool
    relations = [_distribution(s) for w in weights for s in compositions(w) if s[0] >= 2 and len(s) in depths]
    assert len(relations) == count
    assert _outside_bound(relations) == []


def test_sum_theorem_holds_within_its_bounds():
    # depth 1 is z(w) = z(w), an empty combination, so depths start at 2
    relations = [_sum_theorem(w, k) for w in range(3, 11) for k in range(2, w)]
    assert len(relations) == 36 and all(relations)
    assert _outside_bound(relations) == []
