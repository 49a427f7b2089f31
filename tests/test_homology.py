import random

from hypothesis import given, settings
from hypothesis import strategies as st
from naive_skh import naive_kh, naive_skh

from annkh.homology import kh, poincare_polynomial, skh, total_dim
from annkh.invariants import skh_trivial
from annkh.words import BraidWord, parse_word


def random_word(rng, n, max_len):
    alphabet = [g for g in range(-(n - 1), n) if g != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


def test_trivial_closures_match_closed_form():
    for n in range(1, 7):
        assert skh(BraidWord(n, ())) == skh_trivial(n)


def test_trivial_closures_match_naive():
    for n in range(1, 4):
        assert naive_skh(n, ()) == skh_trivial(n)


def test_one_crossing_tables():
    # single positive crossing on two strands: unknot closure
    assert skh(parse_word("1")) == {(0, 3, 2): 1, (0, 1, 0): 1, (1, 3, 0): 1, (0, -1, -2): 1}
    assert kh(parse_word("1")) == {(0, 1): 1, (0, -1): 1}
    assert skh(parse_word("-1")) == {
        (-1, -3, 0): 1,
        (0, -3, -2): 1,
        (0, -1, 0): 1,
        (0, 1, 2): 1,
    }
    assert kh(parse_word("-1")) == {(0, 1): 1, (0, -1): 1}


def test_trefoil_and_figure_eight_tables():
    # regression values, originally cross-derived with the brute-force oracle
    assert kh(parse_word("1 1 1")) == {
        (0, 1): 1,
        (0, 3): 1,
        (2, 5): 1,
        (2, 7): 1,
        (3, 7): 1,
        (3, 9): 1,
    }
    assert kh(parse_word("1 -2 1 -2")) == {
        (-2, -5): 1,
        (-2, -3): 1,
        (-1, -3): 1,
        (-1, -1): 1,
        (0, -1): 1,
        (0, 1): 1,
        (1, 1): 1,
        (1, 3): 1,
        (2, 3): 1,
        (2, 5): 1,
    }
    assert naive_kh(2, (1, 1, 1)) == kh(parse_word("1 1 1"))


def test_engine_matches_naive_oracle():
    rng = random.Random(20260821)
    for _ in range(25):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 6)
        assert skh(w) == naive_skh(n, w.letters), w
        assert kh(w) == naive_kh(n, w.letters), w


def test_mirror_flips_all_three_gradings():
    rng = random.Random(404)
    words = [random_word(rng, rng.randint(2, 4), 6) for _ in range(12)]
    words.append(parse_word("1 1 1"))
    words.append(parse_word("1 -2", strands=3))
    for w in words:
        flipped = {(-i, -j, -k): d for (i, j, k), d in skh(w).items()}
        assert skh(w.mirror()) == flipped, w


def test_stabilization_preserves_khovanov_but_not_annular():
    # positive Markov stabilization keeps the closure as a plain link, so
    # the ordinary homology agrees; the annular embedding changes (one
    # more strand around the axis), and the triple-graded table sees that
    for text, n in [("1", 2), ("1 1 1", 2), ("1 -2", 3)]:
        w = parse_word(text, strands=n)
        stab = BraidWord(n + 1, w.letters + (n,))
        assert kh(stab) == kh(w)
        assert skh(stab) != skh(w)


def test_poincare_polynomial_formatting():
    assert poincare_polynomial(skh_trivial(2)) == "q^-2*a^-2 + 2 + q^2*a^2"
    assert poincare_polynomial({}) == "0"
    assert poincare_polynomial({(1, 3, 0): 1}) == "t*q^3"
    assert poincare_polynomial({(2, 0, -1): 3}) == "3*t^2*a^-1"
    assert poincare_polynomial({(0, 0, 0): 5}) == "5"
    # bigraded keys work the same way
    assert poincare_polynomial({(0, -1): 1, (0, 1): 1}) == "q^-1 + q"


def test_total_dim():
    assert total_dim(skh_trivial(3)) == 8
    assert total_dim({}) == 0


@st.composite
def small_words(draw):
    n = draw(st.integers(2, 4))
    alphabet = [g for g in range(1 - n, n) if g != 0]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(alphabet), max_size=8))))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_words())
def test_sl2_weight_symmetry(w):
    # the sl2 action on annular homology (Grigsby-Licata-Wehrli) makes each
    # weight string symmetric: (i, j, k) and (i, j - 2k, -k) have equal dims
    table = skh(w)
    for (i, j, k), dim in table.items():
        assert table.get((i, j - 2 * k, -k)) == dim
