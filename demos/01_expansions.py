"""Expanding Euler sums into multiple zeta values.

An Euler sum is a series sum_n of a product of (alternating) generalized
harmonic numbers divided by n^q (with an optional alternating outer sign).
Every such sum is a rational linear combination of (alternating) multiple
zeta values, and the expansion is computed exactly by enumerating the weak
orderings of the summation variables.
"""

from eulersums import expand_t1, expand_t2, make_index, parse_index, render_index

print("Linear sums: S(p,q) = z(q,p) + z(p+q)")
for text in ["S(1,2)", "S(3,5)"]:
    idx = parse_index(text)
    print(f"  {text} = {expand_t1(idx).render()}")

print("\nQuadratic sums, six terms each:")
idx = parse_index("S(2,5,3)")
print(f"  S(2,5,3) = {expand_t1(idx).render()}")

print("\nA cubic sum of weight 12 (the classic example):")
idx = parse_index("S(1,1,1,9)")
print(f"  S(1,1,1,9) = {expand_t1(idx).render()}")

print("\nAlternating sums: negative entries mark alternation, so S(1,1,-3)")
print("is the sum of (-1)^(n-1) H_n^2 / n^3:")
idx = parse_index("S(1,1,-3)")
print(f"  S(1,1,-3) = {expand_t1(idx).render()}")
print(f"  LaTeX: {render_index(idx, 'latex')} = {expand_t1(idx).latex()}")

print("\nThe second engine writes non-alternating sums with exponents >= 2")
print("through products of depth-1 values and tail sums:")
idx = parse_index("S(2,3)")
print(f"  engine t1: S(2,3) = {expand_t1(idx).render()}")
print(f"  engine t2: S(2,3) = {expand_t2(idx).render()}")
print("  (equating the two recovers the classical reflection formula)")

print("\nRepeated exponents cost one term per composition, not per")
print("permutation, so large multiplicities stay cheap:")
out = expand_t1(make_index([2] * 12, 3))
print(f"  S(2^12,3) expands into {len(out)} atoms of weight {2*12+3}")
