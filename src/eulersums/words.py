"""Signed words, tuples of nonzero letters, a negative letter alternating.

Both expansion engines multiply nested sums by the quasi-shuffle (stuffle)
of words (Hoffman, *Quasi-shuffle products*), whose letters are letters of
the factors or their ``merge``.  ``holder_word`` reads a word as an
iterated integral, for the numerical oracle.  Nothing here imports from
the package.
"""


def merge(x: int, y: int) -> int:
    """The merged letter of ``x`` and ``y``: magnitudes add, and it alternates
    exactly when one of the two does (sigma^n * sigma^n = 1)."""
    mag = abs(x) + abs(y)
    return -mag if (x < 0) ^ (y < 0) else mag


def quasi_shuffle(words) -> dict[tuple[int, ...], int]:
    """The quasi-shuffle product of ``words`` as {word: multiplicity}.

    Words are tuples of signed letters (negative = alternating).  They are
    multiplied one at a time, in sorted order, so only the product one word
    shorter is held while the next is formed.  Every call forms its product
    afresh: nothing is kept between calls.
    """
    product = {(): 1}
    for u in sorted(w for w in words if w):
        out: dict[tuple[int, ...], int] = {}
        for v, c in product.items():
            for word in stuffle(u, v):
                out[word] = out.get(word, 0) + c
        product = out
    return product


def stuffle(u: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The quasi-shuffle of the nonempty word ``u`` with ``v``, one word per
    path (a word may recur).  The first letter x of ``u`` either goes just
    before letter i of ``v`` (or after its last) or merges with letter i; the
    rest of ``u`` is then shuffled into the letters of ``v`` that follow.
    Each word is one concatenation, head + letter + tail, in that order."""
    x, rest = u[0], u[1:]
    xt = (x,)
    out = []
    for i in range(len(v) + 1):
        head, tail = v[:i], v[i:]
        if rest:
            out += [head + xt + t for t in stuffle(rest, tail)]
        else:
            out.append(head + xt + tail)
        if tail:
            y = tail[0]
            mag = abs(x) + abs(y)
            yt = (-mag if (x < 0) ^ (y < 0) else mag,)  # merge(x, y), inline: this loop is t1's kernel
            tail = tail[1:]
            if rest:
                out += [head + yt + t for t in stuffle(rest, tail)]
            else:
                out.append(head + yt + tail)
    return out


def holder_word(args) -> list[int]:
    """Letters b with z(args) = (-1)^k G(b; 1): 0^(s_j - 1), then c_j = prod sgn_i."""
    word, c = [], 1
    for a in args:
        c = -c if a < 0 else c
        word += [0] * (abs(a) - 1) + [c]
    return word
