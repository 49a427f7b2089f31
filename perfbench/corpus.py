"""Seeded inputs of the three workloads.

Each workload is a fixed list of operations built from the seed alone; a
run repeats whole passes over it. Words are drawn at random as a user would
type them, so they are not freely reduced. Words that feed the cube are
kept only when their generator count lies in a fixed band for their kind: a
random 12-crossing word can need anywhere from 40 thousand to a million
generators, and without the band two seeds would give corpora whose cost
differs by an order of magnitude.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

WORKLOADS = ("tables", "decide", "oracles")

# (crossings, lowest, highest generator count) for words that build a cube
TABLE_BAND = (12, 50_000, 56_000)
PAIR_BAND = (10, 9_000, 14_000)  # the difference braid of an equal or core pair
PLAM_BANDS = ((10, 15_000, 22_000), (11, 20_000, 30_000))

TABLE_STRANDS = (3, 4, 3, 4, 3, 4)
EQUAL_PAIRS = 10
CORE_PAIRS = 10
NONPURE_PAIRS = 2
PLAM_WORDS = 16  # each mix of 3 or 4 strands, 10 or 11 crossings, positive or not, twice
# (strands, letters): slots of about equal cost, so the median operation
# lies inside one mode instead of between two
ORACLE_SLOTS = ((4, 200), (5, 150), (6, 100))
ORACLE_WORDS_PER_SLOT = 4


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind is skh, kh, equal, plam or oracle. other is the second word of an
    equal pair. truth is the verdict of an equal pair as fixed by how the
    pair was built: equal, unequal-by-homology or unequal-by-permutation.
    """

    kind: str
    strands: int
    word: tuple[int, ...]
    other: tuple[int, ...] = ()
    truth: str = ""


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        return _tables(rng)
    if workload == "decide":
        return _decide(rng)
    if workload == "oracles":
        return _oracles(rng)
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-g for g in reversed(word))


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    stack: list[int] = []
    for g in word:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


def _letter(rng: random.Random, n: int) -> int:
    return rng.choice([g for g in range(1 - n, n) if g])


def _random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(_letter(rng, n) for _ in range(length))


def _reduced_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    out: list[int] = []
    while len(out) < length:
        g = _letter(rng, n)
        if not out or g != -out[-1]:
            out.append(g)
    return tuple(out)


def generator_count(strands: int, word: tuple[int, ...]) -> int:
    """The sum over all resolutions of 2^circles, row by row down the braid.

    A state matches the n top points (0..n-1) and the n current bottom points
    (n..2n-1) in pairs, weighted by 2^(circles closed so far). The braid-like
    smoothing keeps the state; the cap-cup one joins the partners of the two
    bottom points under the crossing and pairs those two points with each
    other. The closure then joins top point p to bottom point n + p.
    """
    n = strands
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): 1}
    for g in word:
        a = n + abs(g) - 1
        b = a + 1
        nxt: defaultdict = defaultdict(int)
        for state, weight in states.items():
            nxt[state] += weight
            if state[a] == b:
                nxt[state] += 2 * weight  # the cap closes a circle
            else:
                joined = list(state)
                pa, pb = state[a], state[b]
                joined[pa], joined[pb], joined[a], joined[b] = pb, pa, b, a
                nxt[tuple(joined)] += weight
        states = nxt
    total = 0
    for state, weight in states.items():
        seen = [False] * (2 * n)
        circles = 0
        for start in range(2 * n):
            if seen[start]:
                continue
            circles += 1
            x = start
            while not seen[x]:
                y = state[x]
                seen[x] = seen[y] = True
                x = y - n if y >= n else y + n
        total += weight << circles
    return total


def _in_band(n: int, word: tuple[int, ...], band: tuple[int, int, int]) -> bool:
    _, lo, hi = band
    return lo <= generator_count(n, word) <= hi


def _tables(rng: random.Random) -> list[Op]:
    ops = []
    for n in TABLE_STRANDS:
        while True:
            word = _random_word(rng, n, TABLE_BAND[0])
            if _in_band(n, word, TABLE_BAND):
                break
        ops += [Op("skh", n, word), Op("kh", n, word)]
    return ops


def _conjugated_pair(rng: random.Random, n: int, core: tuple[int, ...], truth: str) -> Op:
    """The pair (u core u^-1 s, s): equal exactly when core is trivial.

    u is freely reduced and meets core without cancelling, so the
    difference braid u core u^-1 has exactly 2|u| + |core| crossings.
    """
    crossings = PAIR_BAND[0]
    while True:
        u = _reduced_word(rng, n, (crossings - len(core)) // 2)
        diff = u + core + inverse(u)
        if free_reduce(diff) != diff:
            continue
        if truth == "unequal-by-permutation" or _in_band(n, diff, PAIR_BAND):
            break
    s = _reduced_word(rng, n, 6)
    return Op("equal", n, diff + s, s, truth)


def _relator(rng: random.Random, n: int) -> tuple[int, ...]:
    """A braid relator: a braid relation or a far commutation, read as w w'^-1."""
    far = [(i, j) for i in range(1, n) for j in range(1, n) if abs(i - j) >= 2]
    if far and rng.random() < 0.5:
        i, j = rng.choice(far)
        core = (i, j, -i, -j)
    else:
        i = rng.randint(1, n - 2)
        core = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    return core if rng.random() < 0.5 else inverse(core)


def _decide(rng: random.Random) -> list[Op]:
    ops = []
    for t in range(EQUAL_PAIRS):
        n = 3 + t % 2
        ops.append(_conjugated_pair(rng, n, _relator(rng, n), "equal"))
    for t in range(CORE_PAIRS):
        n = 3 + t % 2
        g = rng.randint(1, n - 1) * rng.choice((1, -1))
        ops.append(_conjugated_pair(rng, n, (g, g), "unequal-by-homology"))
    for t in range(NONPURE_PAIRS):
        n = 3 + t % 2
        g = rng.randint(1, n - 1) * rng.choice((1, -1))
        ops.append(_conjugated_pair(rng, n, (g,), "unequal-by-permutation"))
    for t in range(PLAM_WORDS):
        n = 3 + t % 2
        band = PLAM_BANDS[(t // 2) % 2]
        positive = (t // 4) % 2 == 0
        while True:
            word = _random_word(rng, n, band[0])
            if positive:
                word = tuple(abs(g) for g in word)
            if _in_band(n, word, band):
                break
        ops.append(Op("plam", n, word))
    return ops


def bigelow_word() -> tuple[int, ...]:
    """Bigelow's 122-letter word in B5 (Geom. Topol. 3 (1999) 397-404).

    Written out here so the benchmark does not take it from the program
    under test: psi1 = s3^-1 s2 s1^2 s2 s4^3 s3 s2,
    psi2 = s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5, and the word is the
    commutator [psi1^-1 s4 psi1, psi2^-1 (s4 s3 s2 s1^2 s2 s3 s4) psi2].
    """
    psi1 = (-3, 2, 1, 1, 2, 4, 4, 4, 3, 2)
    psi2 = (-4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4)
    a = inverse(psi1) + (4,) + psi1
    b = inverse(psi2) + (4, 3, 2, 1, 1, 2, 3, 4) + psi2
    return a + b + inverse(a) + inverse(b)


def _oracles(rng: random.Random) -> list[Op]:
    ops = [Op("oracle", 5, bigelow_word())]
    for n, length in ORACLE_SLOTS:
        for _ in range(ORACLE_WORDS_PER_SLOT):
            ops.append(Op("oracle", n, _random_word(rng, n, length)))
    return ops
