"""Signed words, tuples of nonzero letters, a negative letter alternating.

Both expansion engines multiply nested sums by the quasi-shuffle (stuffle)
of words (Hoffman, *Quasi-shuffle products*), whose letters are letters of
the factors or their ``merge``.  The one stuffle kernel works on str words
over the product's ``alphabet``: character i stands for ``letters[i]``, and
since ``letters`` is sorted, string order is the tuples' order.  Slicing,
joining, hashing and sorting a str word all run in C, and so does writing
its text, with one ``str.translate``.  ``holder_word`` reads a word as an
iterated integral, for the numerical oracle.  Nothing here imports from the
package.
"""


def merge(x: int, y: int) -> int:
    """The merged letter of ``x`` and ``y``: magnitudes add, and it alternates
    exactly when one of the two does (sigma^n * sigma^n = 1)."""
    mag = abs(x) + abs(y)
    return -mag if (x < 0) ^ (y < 0) else mag


def alphabet(words) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The sorted letters that the quasi-shuffle of ``words``, multiplied
    in the given order, can write, and the merges it makes: {(x, y):
    merge(x, y)} for each letter x of a word and each letter y that the
    words before it can write.

    Each letter is the merge of at most one letter of each word.  For the
    one-letter words of m entries there is at most one per nonempty
    sub-multiset of the entries, which is below their number of ordered
    partitions: a sub-multiset A is the first block of (A, the rest), or of
    (A) alone.  The expansions refuse more than 2^20 ordered partitions, so
    an expansion's alphabet fits in the 0x110000 code points of a str."""
    letters: set[int] = set()
    merged: dict[tuple[int, int], int] = {}
    for word in words:
        new = {(x, y): merge(x, y) for x in set(word) for y in letters}
        merged |= new
        letters |= set(word) | set(new.values())
    return sorted(letters), merged


def letter_product(words) -> tuple[list[int], dict[str, int]]:
    """The quasi-shuffle product of ``words``, tuples of signed letters, as
    (letters, {word: multiplicity}): ``letters`` is their ``alphabet`` and
    each word a str whose character i stands for ``letters[i]``.

    Words are multiplied one at a time, in sorted order, so only the
    product one word shorter is held while the next is formed.  Every call
    forms its product afresh: nothing is kept between calls.
    """
    words = sorted(w for w in words if w)
    letters, merged = alphabet(words)
    code = {x: chr(i) for i, x in enumerate(letters)}
    rows: dict[str, dict[str, str]] = {code[x]: {} for w in words for x in w}
    for (x, y), xy in merged.items():
        rows[code[x]][code[y]] = code[xy]
    product = {"": 1}
    for u in words:
        u = "".join(map(code.__getitem__, u))
        out: dict[str, int] = {}
        get = out.get
        for v, c in product.items():
            for word in stuffle(u, v, rows):
                out[word] = get(word, 0) + c
        product = out
    return letters, product


def quasi_shuffle(words) -> dict[tuple[int, ...], int]:
    """``letter_product`` with its words read back as tuples of letters,
    {word: multiplicity}.  Each str word is popped as it is read back, so
    the words of the two products are never all held at once.  A product
    of at most one nonempty word is that word, or the empty word, alone."""
    words = [w for w in words if w]
    if len(words) < 2:
        return {tuple(words[0]) if words else (): 1}
    letters, product = letter_product(words)
    out = {}
    while product:
        word, c = product.popitem()
        out[tuple([letters[ord(ch)] for ch in word])] = c
    return out


def stuffle(u: str, v: str, rows: dict[str, dict[str, str]]) -> list[str]:
    """The quasi-shuffle of the nonempty word ``u`` with ``v``, one word per
    path (a word may recur); ``rows[x][y]`` is the merge of letters x and y.
    The first letter x of ``u`` either goes just before letter i of ``v`` (or
    after its last) or merges with letter i; the rest of ``u`` is then
    shuffled into the letters of ``v`` that follow.  Each word is one
    concatenation, head + letter + tail, in that order."""
    x, rest = u[0], u[1:]
    row = rows[x]
    out = []
    for i in range(len(v) + 1):
        head, tail = v[:i], v[i:]
        if rest:
            out += [head + x + t for t in stuffle(rest, tail, rows)]
        else:
            out.append(head + x + tail)
        if tail:
            y = row[tail[0]]
            tail = tail[1:]
            if rest:
                out += [head + y + t for t in stuffle(rest, tail, rows)]
            else:
                out.append(head + y + tail)
    return out


def holder_word(args) -> list[int]:
    """Letters b with z(args) = (-1)^k G(b; 1): 0^(s_j - 1), then c_j = prod sgn_i."""
    word, c = [], 1
    for a in args:
        c = -c if a < 0 else c
        word += [0] * (abs(a) - 1) + [c]
    return word
