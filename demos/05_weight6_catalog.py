"""A small catalog run: alternating sums of weight 6.

Expands a handful of weight-6 alternating Euler sums, evaluates both the
defining series and the expansion with certified bounds, and checks two of
them against their published reduced forms over the alternating basis
(Li_k(1/2), zeta values, powers of ln 2, and one depth-2 alternating value).
"""

from fractions import Fraction

from eulersums import expand_t1, parse_index
from eulersums.algebra import LinComb, SymbolicTerm, z
from eulersums.numerics import agree, eval_euler_sum_best, eval_lincomb_best


def lc(*pairs):
    acc = LinComb()
    for coeff, atoms in pairs:
        acc = acc + LinComb({SymbolicTerm.of(*atoms): Fraction(coeff)})
    return acc


CATALOG = ["S(5,-1)", "S(2,3,-1)", "S(4,-2)", "S(1,2,-3)", "S(3,-3)", "S(1,-5)"]

print("index            weight  atoms  series value        certified")
for text in CATALOG:
    idx = parse_index(text)
    expansion = expand_t1(idx)
    r = eval_euler_sum_best(idx, 1e-6)
    print(f"{text:16s} {idx.weight:5d} {len(expansion):6d}   {float(r.value):+.12f}  {r.tail_bound:.1e}")

# Published reduced forms (z(-1) = -ln 2, so odd powers of ln 2 flip sign).
print("\nAgainst published reduced forms:")
reduced = {
    # S_{5,1bar} over zeta(6), zeta(5) ln 2, zeta(3)^2
    "S(5,-1)": lc(("111/64", [z(6)]), ("15/16", [z(5), z(-1)]), ("-9/32", [z(3), z(3)])),
    # S_{1,5bar} over zeta(6) and the depth-2 alternating basis value
    "S(1,-5)": lc(("31/32", [z(6)]), (-1, [z(-5, 1)])),
}
for text, closed in reduced.items():
    idx = parse_index(text)
    a = eval_lincomb_best(expand_t1(idx), 1e-7)
    b = eval_lincomb_best(closed, 1e-9)
    ok, diff, _ = agree(a, b, 1e-5)
    print(f"  {text:10s} expansion vs reduced form: discrepancy {float(diff):.2e}  -> {'OK' if ok else 'MISMATCH'}")
