"""Seeded item generators for the four workloads.

A workload is a sequence of rounds.  Round r is drawn from its own
random stream, seeded by (workload, seed, r), so the same seed always
gives the same items and a run that stops early has issued a prefix of
the same list.  Each round holds a fixed number of items of every
class.  Where an item's cost depends on its size, the size is swept:
the range is cut into `period` bins and every `period` consecutive
rounds draw once from each bin, in a seeded order.  Where cost is jagged
in v, the size cycles through a short list of moduli of matched cost.
So two seeds put nearly the same work into a run and throughput
compares across seeds.  Items are shuffled within their round.

Every input is built here, from the reference arithmetic; the program
under test only ever sees the finished arguments.  Where an item has a
definite answer, the answer is fixed when the item is generated:

* an ISO pair is a seeded affine image of its first set;
* a NON-ISO pair is accepted only when the reference proves it NON-ISO,
  by canonical form for k <= 4 and by the Levi refinement invariant
  for the exact route.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

import reference as ref

WORKLOADS = ("census", "oracle", "iso-mix", "matrix")

# Rounds generated for a timed run (about twice what the seed commit
# completed in 25 s on two cores at most), and the fixed prefix that a
# traced run replays so that its counts repeat exactly.
MAX_ROUNDS = {"census": 48, "oracle": 60, "iso-mix": 300, "matrix": 60}
TRACE_ROUNDS = {"census": 2, "oracle": 2, "iso-mix": 10, "matrix": 2}

# Exact route: k = 5 at moduli where affine maps are not known to decide
# isomorphism, so `iso` must search.
EXACT_V = (28, 30, 36, 40, 42, 44, 45, 48)
# Safe primes p = 2q + 1: units of order up to p - 1, the costly case of
# the unit-sum census, at nearly the same cost for each.
SAFE_PRIMES = (2027, 2039, 2063, 2099)
# Moduli for `enumerate --reps` whose work (slice size * k * phi(v), the
# canonical-form sorts) lies within 10% of each other, so the draw of a
# modulus does not decide a run's throughput.
ENUMERATE_V = {3: (91, 99, 105, 106, 112, 126), 4: (37, 44, 48)}
# `count` moduli within 10% of one another in cost, as measured in
# fresh workload processes.  Two per round sit at the median of a round's
# latencies, so p50 lands inside a block of equal-cost items instead of
# hopping between moduli of uneven cost.
MEDIAN_V = (75, 76, 80, 82, 83, 84, 85, 107)
# 7-smooth composites for `count --mode sum`: their units have small
# orders, so each costs about the same few milliseconds.
SMOOTH_V = (2016, 3024, 4032, 5040, 6048, 7056, 8064, 9072)
# Gram moduli.  Berkowitz's cost depends on v alone, so each is a block of
# equal latencies; 24 twice puts the median inside its block, and 56 twice
# puts p90 inside the top block instead of on the edge between the two
# costliest.  All are multiples of 8, where the exceptional weight-4
# family exists.
GRAM_V = (16, 24, 24, 32, 40, 48, 56, 56)
# v = p*q with q | p - 1: the solving set for Z_pq exists.
PQ = ((7, 3), (13, 3), (19, 3), (31, 3), (37, 3))


def _bins(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """n consecutive integer intervals covering lo..hi."""
    width = hi - lo + 1
    return [(lo + width * b // n, lo + width * (b + 1) // n - 1) for b in range(n)]


def _cli(cls: str, argv: list[str], **extra) -> dict:
    return {"cls": cls, "call": "cli", "argv": argv, **extra}


class Round:
    """The random draws of round r of one (workload, seed)."""

    def __init__(self, workload: str, seed: int, r: int) -> None:
        self.key = f"{workload}:{seed}"
        self.r = r
        self.rng = random.Random(f"{self.key}:{r}")

    def _slot(self, name: str, period: int, index: int | None) -> int:
        cycle, pos = divmod(self.r if index is None else index, period)
        order = list(range(period))
        random.Random(f"{self.key}:{name}:{cycle}").shuffle(order)
        return order[pos]

    def sweep(self, name: str, lo: int, hi: int, period: int, index: int | None = None) -> int:
        """A value in lo..hi; each run of `period` indices draws once from each bin."""
        a, z = _bins(lo, hi, period)[self._slot(name, period, index)]
        return self.rng.randint(a, z)

    def cycle(self, name: str, options, index: int | None = None):
        """An element of options; each run of len(options) indices takes every one once."""
        return options[self._slot(name, len(options), index)]


# ------------------------------------------------------------------ census


def census_round(rnd: Round) -> list[dict]:
    items = []
    for b, (lo, hi) in enumerate(_bins(7, 200, 8)):
        v = rnd.sweep(f"count-all-{b}", lo, hi, 4)
        while v in MEDIAN_V:  # keep a round's moduli distinct, so no item hits another's cache
            v -= 1
        items.append(_cli("count-all", ["count", "--v", str(v)], v=v))
    for j in range(2):
        v = rnd.cycle("count-all-median", MEDIAN_V, index=2 * rnd.r + j)
        items.append(_cli("count-all", ["count", "--v", str(v)], v=v))
    v = rnd.cycle("sum-prime", SAFE_PRIMES)
    items.append(_cli("count-sum", ["count", "--v", str(v), "--mode", "sum"], v=v))
    v = rnd.cycle("sum-composite", SMOOTH_V)
    items.append(_cli("count-sum", ["count", "--v", str(v), "--mode", "sum"], v=v))
    for _ in range(3):
        v = rnd.rng.randint(1000, 10**9)
        items.append(_cli("count-formula", ["count", "--v", str(v), "--mode", "formula"], v=v))
    k = 3 if rnd.r % 2 == 0 else 4
    v = rnd.cycle(f"enumerate-k{k}", ENUMERATE_V[k], index=rnd.r // 2)
    argv = ["enumerate", "--v", str(v), "--reps"] + (["--k", "4"] if k == 4 else [])
    items.append(_cli(f"enumerate-k{k}", argv, v=v, k=k))
    return items


# ------------------------------------------------------------------ oracle


def oracle_round(rnd: Round) -> list[dict]:
    items = []
    for i, (lo, hi) in enumerate(_bins(7, 46, 8)):
        a = rnd.sweep(f"k3-{i}", lo, hi, 5)
        b = a + 1 if hi <= 26 else a
        items.append(_cli("verify-k3", ["verify", "--v", f"{a}..{b}", "--oracle"], lo=a, hi=b))
    for i, (lo, hi) in enumerate(_bins(13, 22, 4)):
        a = rnd.sweep(f"k4-{i}", lo, hi, hi - lo + 1)
        items.append(
            _cli("verify-k4", ["verify", "--v", f"{a}..{a}", "--k", "4", "--oracle"], lo=a, hi=a)
        )
    return items


# ----------------------------------------------------------------- iso-mix


def _iso_item(route: str, v: int, k: int, S1, S2, iso: bool, method: str = "auto") -> dict:
    argv = ["iso", "--v", str(v), "--s1", ",".join(map(str, S1)), "--s2", ",".join(map(str, S2))]
    if method != "auto":
        argv += ["--method", method]
    return _cli(f"iso-{route}", argv, v=v, k=k, s1=list(S1), s2=list(S2),
                expect="ISO" if iso else "NON-ISO", route=route)


def _translate(rng, S, v):
    t = rng.randrange(v)
    return tuple(sorted((s + t) % v for s in S))


def _image(rng, S, v):
    return ref.affine(S, ref.random_unit(rng, v), rng.randrange(v), v)


def _other_class(rng, S, v, k):
    """A base line in another affine class than S, or None after 50 draws."""
    c = ref.canonical(S, v)
    for _ in range(50):
        T = ref.random_base_line(rng, v, k)
        if ref.canonical(T, v) != c:
            return T
    return None


def _multiplier_pair(rng, k, lo, hi, iso):
    while True:
        v = rng.randint(lo, hi)
        S1 = ref.random_base_line(rng, v, k)
        S2 = _image(rng, S1, v) if iso else _other_class(rng, S1, v, k)
        if S2 is not None:
            return _iso_item("multiplier", v, k, _translate(rng, S1, v), S2, iso)


def _exact_pair(rng, v, iso):
    S1 = ref.random_base_line(rng, v, 5)
    if iso:
        S2 = _image(rng, S1, v)
    else:
        inv = ref.levi_invariant(S1, v)
        while ref.levi_invariant(S2 := ref.random_base_line(rng, v, 5), v) == inv:
            pass
    return _iso_item("exact", v, 5, _translate(rng, S1, v), S2, iso)


def _solving_set_pair(rng, iso):
    """S1 is an orbit of the multiplier b (plus 0 for k = 4), so b fixes its lines."""
    while True:
        p, q = rng.choice(PQ)
        v, k = p * q, rng.choice((3, 4))
        b = ref.pq_multiplier_b(p, q)
        x = ref.random_unit(rng, v)
        S1 = tuple(sorted({x, b * x % v, b * b % v * x % v} | ({0} if k == 4 else set())))
        if len(S1) != k or not ref.has_distinct_differences(S1, v):
            continue
        if not ref.is_connected(S1, v) or ref.class_shift_fixes(S1, v, q):
            continue
        S2 = _image(rng, S1, v) if iso else _other_class(rng, S1, v, k)
        if S2 is not None:
            return _iso_item("solving-set", v, k, _translate(rng, S1, v), S2, iso, "solving-set")


def _components_pair(rng, iso):
    """Both sets are g * (base line of Z_d), so each splits into g components."""
    while True:
        k = rng.choice((3, 4))
        g = rng.choice((2, 3, 4))
        d = rng.randint(16, 40) if k == 3 else rng.randint(24, 50)
        v = g * d
        T1 = ref.random_base_line(rng, d, k)
        T2 = _image(rng, T1, d) if iso else _other_class(rng, T1, d, k)
        if T2 is None:
            continue
        S1 = _translate(rng, [g * t for t in T1], v)
        S2 = _translate(rng, [g * t for t in T2], v)
        return _iso_item("components", v, k, S1, S2, iso)


def iso_round(rnd: Round) -> list[dict]:
    rng = rnd.rng
    items = []
    for k, lo, hi in ((3, 30, 1000), (4, 40, 600)):
        for i, (a, z) in enumerate(_bins(lo, hi, 4)):
            items.append(_multiplier_pair(rng, k, a, z, iso=i % 2 == 0))
    for i in range(4):
        v = rnd.cycle("exact", EXACT_V, index=4 * rnd.r + i)
        items.append(_exact_pair(rng, v, iso=i % 2 == 0))
    for iso in (True, False):
        items.append(_solving_set_pair(rng, iso))
        items.append(_components_pair(rng, iso))
    return items


# ------------------------------------------------------------------ matrix


def _exceptional_pairs(v: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The even-v family {0,x,y,y+u} / {0,x+u,y,y+u}, v = 2u, with its side conditions."""
    u = v // 2
    out = []
    for x in range(2, u + 1, 2):
        if u % (2 * x):
            continue
        for y in range(v):
            if gcd(gcd(x, y), v) != 1:
                continue
            if (x // 2) % (u // x) == (y + u // (2 * x)) % (u // x):
                continue
            d1 = {0, x, y, (y + u) % v}
            d2 = {0, (x + u) % v, y, (y + u) % v}
            if len(d1) == 4 and len(d2) == 4:
                out.append((tuple(sorted(d1)), tuple(sorted(d2))))
    return out


def _matrix_item(rng, call, v, exceptional):
    if exceptional:
        S1, S2 = rng.choice(_exceptional_pairs(v))
        S1, S2 = _image(rng, S1, v), _image(rng, S2, v)
    else:
        S1 = tuple(sorted(rng.sample(range(v), 4)))
        S2 = _image(rng, S1, v)
    kind = "exceptional" if exceptional else "affine"
    return {"cls": f"{call}-{kind}", "call": call, "v": v, "s1": list(S1), "s2": list(S2)}


def matrix_round(rnd: Round) -> list[dict]:
    items = []
    for i, v in enumerate(GRAM_V):
        items.append(_matrix_item(rnd.rng, "gram_similar", v, (i + rnd.r) % 2 == 0))
    for i, (lo, hi) in enumerate(_bins(16, 95, 3)):
        exceptional = (i + rnd.r) % 2 == 1
        if exceptional:
            v = next(x for x in range(lo, hi + 1) if x % 8 == 0)
        else:
            v = rnd.sweep(f"paq-{i}", lo, hi, 4)
        items.append(_matrix_item(rnd.rng, "paq_equivalent", v, exceptional))
    return items


ROUNDS = {
    "census": census_round,
    "oracle": oracle_round,
    "iso-mix": iso_round,
    "matrix": matrix_round,
}


def generate(workload: str, seed: int, rounds: int) -> list[dict]:
    """The first `rounds` rounds of a workload, items numbered in issue order."""
    make = ROUNDS[workload]
    items = []
    for r in range(rounds):
        rnd = Round(workload, seed, r)
        batch = make(rnd)
        rnd.rng.shuffle(batch)
        for item in batch:
            item["round"] = r
            item["id"] = len(items)
            items.append(item)
    return items


def items_digest(items: list[dict]) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
