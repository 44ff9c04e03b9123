"""Certified numerical evaluation and the verification loop.

Every value here is computed with an explicit, rigorous truncation bound,
never by the symbolic identities being tested:
Euler sums by direct summation of their defining series, atoms by a
geometrically convergent iterated-integral expansion.  Two certified values "agree" when
their difference is within the sum of their bounds plus the requested
tolerance; that is the library's verification rule.
"""

from eulersums import LinComb, eval_euler_sum_best, eval_lincomb_best, expand_t1, parse_index, z
from eulersums.numerics import agree

print("Every atom comes from the Hoelder convolution at 1/2 (192 bits, N terms):")
res = {a: eval_lincomb_best(LinComb.of_atom(a)) for a in (z(3), z(2, 1), z(-5, 1))}
for atom, r in res.items():
    print(f"  {atom.render():10s} = {float(r.value):.15f} +- {r.tail_bound:.1e}  (N = {r.terms_used})")
print("  (zeta(2,1) should equal zeta(3); difference:"
      f" {abs(float(res[z(2,1)].value) - float(res[z(3)].value)):.2e})")

print("\nVerification of an expansion against the defining series:")
idx = parse_index("S(1,1,-3)")
series = eval_euler_sum_best(idx, 1e-7)
expansion = eval_lincomb_best(expand_t1(idx), 1e-7)
ok, diff, _ = agree(series, expansion, 1e-7)  # on the exact values
print(f"  series    = {float(series.value):.15f} +- {series.tail_bound:.1e}")
print(f"  expansion = {float(expansion.value):.15f} +- {expansion.tail_bound:.1e}")
print(f"  discrepancy {float(diff):.2e} <= combined bounds + 1e-7: {ok}")

print("\nConditionally convergent series (alternating outer exponent 1) get")
print("their tail from Euler-Maclaurin at N and N/2, with a certified remainder:")
idx = parse_index("S(1,1,-1)")
r = eval_euler_sum_best(idx, 1e-8)
print(f"  S(1,1,-1) = {float(r.value):.10f} +- {r.tail_bound:.1e}  (N = {r.terms_used})")
