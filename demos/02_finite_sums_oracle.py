"""The exact finite-n identity behind the expansion engine.

A product of (alternating) harmonic numbers at any finite n equals a fixed
rational combination of multiple harmonic sums, with coefficients that do
not depend on n.  Because everything is exact rational arithmetic, this
gives a zero-tolerance self-test of the quasi-shuffle kernel: the same
product that builds every infinite-sum expansion must reproduce the
harmonic-number product at every single n.
"""

from fractions import Fraction

from eulersums import expand_harmonic_product, eval_mhs_exact


def harmonic(r, n):
    """H_n^(r), or the alternating one for r < 0, summed directly."""
    return sum((Fraction((-1) ** (k - 1) if r < 0 else 1, k ** abs(r)) for k in range(1, n + 1)), Fraction(0))


print("H_n^2 = zeta_n(2) + 2 zeta_n(1,1):")
print(" ", expand_harmonic_product([1, 1]))

print("\nCheck it exactly at n = 1..8:")
exp = expand_harmonic_product([1, 1])
for n in range(1, 9):
    combo = sum((c * eval_mhs_exact(k, n) for k, c in exp.items()), Fraction(0))
    direct = harmonic(1, n) ** 2
    print(f"  n={n}: combination {combo} == H_n^2 {direct}: {combo == direct}")

print("\nA mixed alternating product, H_n^(2) * Hbar_n^(1) * Hbar_n^(1):")
inner = [2, -1, -1]
exp = expand_harmonic_product(inner)
print(f"  {len(exp)} nested-sum terms; keys are signed slot lists")
for n in (3, 7, 12):
    combo = sum((c * eval_mhs_exact(k, n) for k, c in exp.items()), Fraction(0))
    direct = harmonic(2, n) * harmonic(-1, n) ** 2
    assert combo == direct
    print(f"  n={n:2d}: exact match, value {combo}")

print("\nEvery expansion identity in this library is backed by this kind of")
print("finite-n exactness check (no floating point, no tolerance).")
