"""Seeded request lists for the three benchmark workloads.

Indices are drawn by structural rules only (degree, weight, magnitudes,
signs); nothing here runs the program.  The expand and reduce workloads
sample from fixed pools, built once from ``POOL_SEED``, so that the goldens
recorded for every pool member cover every draw.  The verify pools are full
enumerations.

    python3 perfbench/workloads.py --seed 1 [--seconds 25]

prints the request count, degree and weight histograms, the alternating
share, the t2-eligible share and the stratum shares of each workload.
"""

from __future__ import annotations

import argparse
import math
import random
from collections import Counter
from dataclasses import dataclass

POOL_SEED = "perfbench-pools-v1"
NOMINAL_SECONDS = 25
WORKLOADS = ("expand", "reduce", "verify")
VERIFY_TOL = "1e-6"


@dataclass(frozen=True)
class Request:
    stratum: str
    index: str  # e.g. "S(1,-2,3)": the only input the program receives

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(int(t) for t in self.index[2:-1].split(","))


def _canonical(inner, outer) -> tuple[int, ...]:
    # The program's canonical order: unsigned ascending, then barred by magnitude.
    pos = sorted(e for e in inner if e > 0)
    neg = sorted((e for e in inner if e < 0), key=abs)
    return tuple(pos + neg) + (outer,)


def _text(entries) -> str:
    return "S(" + ",".join(str(e) for e in entries) + ")"


def t2_eligible(entries) -> bool:
    """Engine t2's hypotheses: nothing alternating, every exponent >= 2."""
    return all(e >= 2 for e in entries)


def _signed(rng: random.Random, mags) -> list[int]:
    return [m if rng.random() < 0.5 else -m for m in mags]


def _distinct(rng: random.Random, degree: int) -> tuple[int, ...]:
    """Distinct magnitudes <= 8, random signs, outer +-2 or +-3, not t2-eligible."""
    while True:
        inner = _signed(rng, rng.sample(range(1, 9), degree))
        entries = _canonical(inner, rng.choice((-3, -2, 2, 3)))
        if not t2_eligible(entries):
            return entries


def enumeration_size(inner) -> int:
    """Arrangements times compositions that engine t1 enumerates."""
    m = len(inner)
    arrangements = math.factorial(m)
    for c in Counter(inner).values():
        arrangements //= math.factorial(c)
    return arrangements * 2 ** (m - 1)


REPEATED_ENUM_CAP = 2**16


def _repeated(rng: random.Random) -> tuple[int, ...]:
    """Degree 7-9 with two or three distinct entries, each repeated.

    The enumeration cap keeps one request near a second; the same rule
    written down before any timing keeps the draw structural.
    """
    while True:
        m = rng.choice((7, 8, 9))
        k = rng.choice((2, 3))
        mags = rng.sample(range(1, 5), k)
        counts = [2] * k
        for _ in range(m - 2 * k):
            counts[rng.randrange(k)] += 1
        inner = [e for e, c in zip(_signed(rng, mags), counts) for _ in range(c)]
        entries = _canonical(inner, rng.choice((-3, -2, 2, 3)))
        if not t2_eligible(entries) and enumeration_size(inner) <= REPEATED_ENUM_CAP:
            return entries


def _draw_pool(stratum: str, make, size: int) -> list[str]:
    rng = random.Random(f"{POOL_SEED}:{stratum}")
    seen: dict[str, None] = {}
    while len(seen) < size:
        seen[_text(make(rng))] = None
    return list(seen)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def all_indices(weight: int) -> list[tuple[int, ...]]:
    """Every convergent index of the given weight, in canonical form."""
    out = set()
    for outer in range(-weight, weight + 1):
        if outer in (0, 1):
            continue
        for mags in _partitions(weight - abs(outer), weight):
            for signs in range(2 ** len(mags)):
                inner = [m if (signs >> i) & 1 == 0 else -m for i, m in enumerate(mags)]
                out.add(_canonical(inner, outer))
    return sorted(out)


def power_tail(entries) -> bool:
    """No magnitude-1 entry, and barred inner entries only under a barred outer."""
    *inner, outer = entries
    if any(abs(e) == 1 for e in entries):
        return False
    return outer < 0 or all(e > 0 for e in inner)


def _build_pools() -> dict[str, list[str]]:
    power = [e for w in range(4, 11) for e in all_indices(w) if power_tail(e)]
    return {
        "expand.d5": _draw_pool("expand.d5", lambda r: _distinct(r, 5), 48),
        "expand.d6": _draw_pool("expand.d6", lambda r: _distinct(r, 6), 12),
        "expand.rep": _draw_pool("expand.rep", _repeated, 8),
        "reduce.d5": _draw_pool("reduce.d5", lambda r: _distinct(r, 5), 30),
        "verify.power.shallow": [_text(e) for e in power if len(e) <= 3],
        "verify.power.deep": [_text(e) for e in power if len(e) > 3],
        "verify.log": [_text(e) for e in all_indices(3) if not power_tail(e)],
    }


POOLS = _build_pools()

# Requests per stratum in a run of NOMINAL_SECONDS (None: the whole pool);
# shorter runs draw proportionally fewer.
# Every run draws the same count from each stratum, and most of each pool,
# so the work per run varies little with the seed.  Reduce runs its whole
# pool in seeded order: its requests differ in cost eightfold, and drawing 30
# of 40 moved req_p50_s by 17 % between seeds, 30 of 32 still by 12 %.  The costliest strata run
# whole, so the ten requests beyond req_tail_s do not change with the seed:
# expand's degree-6 and repeated-magnitude indices, verify's log-tail sums and
# its power-tail sums of degree 3-4.  The cheap strata are the majority, so
# req_p50_s stays inside one stratum.
COUNTS = {
    "expand": {"expand.d5": 30, "expand.d6": None, "expand.rep": None},
    "reduce": {"reduce.d5": None},
    "verify": {"verify.power.shallow": 100, "verify.power.deep": None, "verify.log": None},
}


# Strata that run first, in pool order, ahead of the seeded shuffle.  Which
# log-tail sum pays for a long walk depends on what the atom cache already
# holds; in seeded order req_tail_s moved by 20 % between seeds.
FIRST = ("verify.log",)


def draw(workload: str, seed: int, seconds: float = NOMINAL_SECONDS) -> list[Request]:
    """The seeded request list of one run; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / NOMINAL_SECONDS
    first, rest = [], []
    for stratum, count in COUNTS[workload].items():
        pool = POOLS[stratum]
        wanted = len(pool) if count is None else count
        n = min(len(pool), max(1, round(wanted * scale)))
        if stratum in FIRST:
            first += [Request(stratum, ix) for ix in pool[:n]]
        else:
            rest += [Request(stratum, ix) for ix in rng.sample(pool, n)]
    rng.shuffle(rest)
    return first + rest


def argv_for(workload: str, index: str, table: str) -> list[str]:
    """The command line of one request, without the program name."""
    if workload == "expand":
        return ["expand", "--output", "json", index]
    if workload == "reduce":
        return ["reduce", "--engine", "t1", "--table", table, index]
    return ["verify", "--tol", VERIFY_TOL, "--table", table, index]


def summary(reqs: list[Request]) -> list[str]:
    n = len(reqs)
    entries = [r.entries for r in reqs]

    def hist(values):
        return " ".join(f"{k}:{v}" for k, v in sorted(Counter(values).items()))

    def share(k):
        return f"{k / n:.3f}"

    return [
        f"requests {n}",
        f"degree histogram {hist(len(e) - 1 for e in entries)}",
        f"weight histogram {hist(sum(abs(x) for x in e) for e in entries)}",
        f"alternating share {share(sum(any(x < 0 for x in e) for e in entries))}",
        f"t2-eligible share {share(sum(t2_eligible(e) for e in entries))}",
        "stratum shares " + " ".join(
            f"{s}:{share(c)}" for s, c in sorted(Counter(r.stratum for r in reqs).items())
        ),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    args = p.parse_args(argv)
    for w in WORKLOADS:
        print(f"[{w}]")
        for line in summary(draw(w, args.seed, args.seconds)):
            print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
