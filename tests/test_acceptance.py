"""The nine go/no-go checks, one test each, printing one verdict line apiece.

Run with `pytest -s tests/test_acceptance.py` to see the lines; several
checks sweep seeded pseudorandom words, so the whole module takes a few
minutes.
"""

import math
import random
import time

from conftest import FIXTURE_WORDS, fixture_word

from annkh.burau import (
    BivariatePoly,
    LaurentMatrix,
    LaurentPoly,
    bigelow_kernel_word,
    burau_kernel_check,
    burau_matrix,
    char_poly,
    laurent_det,
)
from annkh.cube import build_complex
from annkh.diagram import closure_diagram
from annkh.garside import words_equal
from annkh.homology import kh, skh
from annkh.invariants import (
    flype_pair,
    plamenevskaya,
    right_veering_obstruction,
    skh_trivial,
    words_equal_homological,
)
from annkh.words import BraidWord


def _report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _random_word(rng, n, max_len):
    alphabet = [g for g in range(-(n - 1), n) if g != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


def test_acceptance_1_trivial_braid_closed_form():
    started = time.perf_counter()
    ok = all(skh(BraidWord(n, ())) == skh_trivial(n) for n in range(1, 7))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(1, ok, f"skh of the trivial braid matches binomials for n=1..6 in {elapsed:.3f}s")


def test_acceptance_2_reverse_invariance():
    rng = random.Random(42)
    words = [_random_word(rng, 3, 10) for _ in range(50)]
    words += [_random_word(rng, 4, 9) for _ in range(20)]
    bad = [w for w in words if skh(w) != skh(w.reverse())]
    _report(2, not bad, f"skh(w) = skh(reverse(w)) for {len(words) - len(bad)}/{len(words)} words")


def _pure_difference_pairs(rng, count):
    relators = {
        3: [(1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1)],
        4: [
            (1, 2, 1, -2, -1, -2),
            (2, 3, 2, -3, -2, -3),
            (1, 3, -1, -3),
            (3, 1, -3, -1),
        ],
    }
    pairs = []
    while len(pairs) < count:
        n = rng.choice((3, 4))
        alphabet = [g for g in range(-(n - 1), n) if g != 0]
        kind = len(pairs) % 5
        u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
        if kind in (0, 1):
            core = rng.choice(relators[n])
        elif kind in (2, 3):
            g = rng.randint(1, n - 1)
            core = (g, g) if rng.random() < 0.5 else (-g, -g)
        else:
            g = rng.randint(1, n - 1)
            core = rng.choice(relators[n]) + (g, g)
        p = BraidWord(n, u + core + tuple(-x for x in reversed(u)))
        diff = p.free_reduce()
        if len(diff.letters) > 12 or not diff.is_pure():
            continue
        s = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))))
        pairs.append((p.concat(s), s))
    return pairs


def test_acceptance_3_word_problem_agreement():
    rng = random.Random(1009)
    pairs = _pure_difference_pairs(rng, 100)
    agreements = 0
    for w1, w2 in pairs:
        diff = w1.concat(w2.inverse()).free_reduce()
        assert diff.is_pure() and len(diff.letters) <= 12
        if words_equal_homological(w1, w2).equal == words_equal(w1, w2):
            agreements += 1
    _report(3, agreements == len(pairs), f"homological = Garside on {agreements}/{len(pairs)} pairs")


def test_acceptance_4_bigraded_bounds_and_euler(fixture_complexes):
    ok = True
    for (n, letters), (w, cx, graded, full) in fixture_complexes.items():
        collapsed = {}
        for (i, j, k), d in graded.items():
            collapsed[(i, j)] = collapsed.get((i, j), 0) + d
        for (i, j), d in full.items():
            if d > collapsed.get((i, j), 0):
                ok = False
        euler_full = {}
        for (i, j), d in full.items():
            euler_full[j] = euler_full.get(j, 0) + (-1) ** i * d
        euler_graded = {}
        for (i, j), d in collapsed.items():
            euler_graded[j] = euler_graded.get(j, 0) + (-1) ** i * d
        if {j: e for j, e in euler_full.items() if e} != {
            j: e for j, e in euler_graded.items() if e
        }:
            ok = False
    _report(4, ok, f"dim Kh <= sum_k dim SKh and Euler characteristics agree on {len(fixture_complexes)} fixtures")


def test_acceptance_5_filtration_and_d_squared(fixture_complexes):
    ok = True
    # every build checks that no boundary component raises k
    for (n, letters), (w, cx, graded, full) in fixture_complexes.items():
        if not cx.d_squared_is_zero():
            ok = False
    _report(5, ok, f"no k-raising components and d.d = 0 in both boundaries on {len(fixture_complexes)} fixtures")


def test_acceptance_6_plamenevskaya_behavior():
    ok = True
    negative_fixtures = []
    for n, letters in FIXTURE_WORDS:
        gens = range(1, n)
        if any(-i in letters and i not in letters for i in gens):
            negative_fixtures.append((n, letters))
    assert negative_fixtures
    for n, letters in negative_fixtures:
        if plamenevskaya(fixture_word(n, letters)).nonzero:
            ok = False
    for n in range(1, 5):
        r = right_veering_obstruction(BraidWord(n, ()))
        if not (r.psi_nonzero and r.mirror_psi_nonzero and r.trivial_certificate):
            ok = False
    for n, letters in FIXTURE_WORDS:
        w = fixture_word(n, letters)
        if plamenevskaya(w).bidegree != (0, w.writhe() - n):
            ok = False
    _report(
        6,
        ok,
        f"psi vanishes on {len(negative_fixtures)} generator-negative words, survives with "
        "its mirror on trivial braids, bidegree (0, writhe - n) throughout",
    )


def test_acceptance_7_flype_pairs_share_homology():
    params = [
        (3, 2, -1, 1),
        (2, 3, 1, -1),
        (-2, 1, 3, 1),
        (1, -3, 2, -1),
        (3, -2, -3, 1),
        (-1, -1, -1, -1),
        (2, 2, 2, 1),
        (-3, 3, -2, -1),
        (1, 2, 3, -1),
        (-2, -3, 1, 1),
    ]
    good = 0
    for u, v, w, sign in params:
        first, second = flype_pair(u, v, w, sign)
        if skh(first) == skh(second):
            good += 1
    _report(7, good == len(params), f"flype pairs share skh in {good}/{len(params)} instantiations")


def test_acceptance_8_burau():
    ok = True
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) == 1:
                    if burau_matrix(BraidWord(n, (i, j, i))) != burau_matrix(
                        BraidWord(n, (j, i, j))
                    ):
                        ok = False
                elif abs(i - j) >= 2:
                    if burau_matrix(BraidWord(n, (i, j))) != burau_matrix(BraidWord(n, (j, i))):
                        ok = False
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        w = _random_word(rng, n, 8)
        e = w.writhe()
        if laurent_det(burau_matrix(w)) != LaurentPoly.t_power(e, 1 if e % 2 == 0 else -1):
            ok = False
    for n in range(1, 7):
        expected = {}
        for m in range(n + 1):
            coeff = (-1) ** (n - m) * math.comb(n, m)
            expected[(m, 0)] = coeff
        if char_poly(LaurentMatrix.identity(n)) != BivariatePoly.from_dict(expected):
            ok = False
    kernel = bigelow_kernel_word()
    if not burau_kernel_check(kernel):
        ok = False
    if words_equal(kernel, BraidWord(5, ())):
        ok = False
    _report(
        8,
        ok,
        "braid relations for n<=6, det = (-T)^writhe, char poly of identity, "
        "and the 122-letter kernel word: Burau-trivial yet Garside-nontrivial",
    )


def test_acceptance_9_one_crossing_regression():
    got_skh = skh(BraidWord(2, (1,)))
    got_kh = kh(BraidWord(2, (1,)))
    ok = got_skh == {(0, 3, 2): 1, (0, 1, 0): 1, (1, 3, 0): 1, (0, -1, -2): 1}
    ok = ok and got_kh == {(0, 1): 1, (0, -1): 1}
    _report(9, ok, "one-crossing closure: frozen skh table and unknot kh table reproduced")
