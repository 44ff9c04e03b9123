"""The expansion of an Euler sum holds exactly at every finite N.

S(i_1,...,i_k,q) is the series sum_n H_n^(i_1) ... H_n^(i_k) / n^q.  The
harmonic number H_n^(i) sums 1/k^i over k <= n, or (-1)^(k-1)/k^|i| for a
barred (negative) entry, and a barred outer q makes the n-th term
(-1)^(n-1)/n^|q|.  At every n the product of harmonic numbers is the
quasi-shuffle of nested sums up to that same n, so the expansion into
multiple zeta values is already an identity between truncated sums: cut
the series at N and every atom z(s_1,...,s_d) to its nested sum over
N >= n_1 > ... > n_d >= 1 (a barred slot carrying (-1)^(n_j)), and the two
sides agree exactly, with no tolerance.  Both sides below are summed here
in exact rationals, from their definitions; the library supplies only the
expansion.
"""

from fractions import Fraction

from eulersums import expand_t1, parse_index


def series_term(s, k):
    """1/k^s, or (-1)^(k-1)/k^|s| for a barred s: a term of a harmonic
    number, or of the outer series."""
    return Fraction((-1) ** (k - 1) if s < 0 else 1, k ** abs(s))


def slot_term(s, n):
    """1/n^s, or (-1)^n/n^|s| for a barred s: a term of an atom's slot."""
    return Fraction((-1) ** n if s < 0 else 1, n ** abs(s))


def truncated_sum(idx, N):
    """The Euler sum cut at n = N, from its definition."""
    total = Fraction(0)
    for n in range(1, N + 1):
        value = series_term(idx.outer, n)
        for e in idx.inner:
            value *= sum((series_term(e, k) for k in range(1, n + 1)), Fraction(0))
        total += value
    return total


def truncated_atom(args, N):
    """z(args) cut at N: the nested sum over N >= n_1 > ... > n_d >= 1."""
    if not args:
        return Fraction(1)
    s, rest = args[0], args[1:]
    return sum((slot_term(s, n) * truncated_atom(rest, n - 1) for n in range(1, N + 1)), Fraction(0))


for text in ["S(1,1,3)", "S(2,-1,-1,-1)"]:
    idx = parse_index(text)
    terms = list(expand_t1(idx).items())
    print(f"{text} expands into {len(terms)} atoms:")
    for atom, coeff in terms:
        print(f"  {str(coeff):>3} * z({','.join(map(str, atom.args))})")
    print(f"Both sides of {text} cut at N, exactly:")
    for N in range(1, 9):
        series = truncated_sum(idx, N)
        atoms = sum((coeff * truncated_atom(atom.args, N) for atom, coeff in terms), Fraction(0))
        assert atoms == series, (text, N)
        print(f"  N={N}: {series} on both sides")
    print()

print("A barred entry sums (-1)^(k-1) but its slot carries (-1)^(n_j), so each")
print("barred harmonic factor, and a barred outer series, flips the sign of")
print("every atom; the merged atoms add the outer exponent to the first slot.")
print("No floating point and no tolerance enter this check.")
