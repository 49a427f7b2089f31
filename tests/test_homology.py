import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_skh import naive_kh, naive_psi_nonzero, naive_skh

from annkh.cube import CrossingLimitError
from annkh.homology import kh, poincare_polynomial, skh, total_dim
from annkh.invariants import plamenevskaya, skh_trivial
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
def small_words(draw, max_len=8):
    n = draw(st.integers(2, 4))
    alphabet = [g for g in range(1 - n, n) if g != 0]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(alphabet), max_size=max_len))))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_words())
def test_sl2_weight_symmetry(w):
    # the sl2 action on annular homology (Grigsby-Licata-Wehrli) makes each
    # weight string symmetric: (i, j, k) and (i, j - 2k, -k) have equal dims
    table = skh(w)
    for (i, j, k), dim in table.items():
        assert table.get((i, j - 2 * k, -k)) == dim


@st.composite
def padded_words(draw):
    """A word of at most 6 letters conjugated by one letter, with a pair inserted.

    The padded word has at most 10 letters, which keeps the naive oracle fast.
    """
    w = draw(small_words(max_len=6))
    alphabet = [g for g in range(1 - w.strands, w.strands) if g != 0]
    u = draw(st.sampled_from(alphabet))
    g = draw(st.sampled_from(alphabet))
    cut = draw(st.integers(0, len(w)))
    letters = (u,) + w.letters[:cut] + (g, -g) + w.letters[cut:] + (-u,)
    return BraidWord(w.strands, letters)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(padded_words())
def test_reduced_conjugate_matches_naive_oracle_of_the_typed_word(w):
    # the engine builds the cube of w.cyclic_reduce(); the oracle builds w
    # as typed, sharing no code with the reduction
    assert skh(w) == naive_skh(w.strands, w.letters)
    assert kh(w) == naive_kh(w.strands, w.letters)
    assert plamenevskaya(w).nonzero == naive_psi_nonzero(w.strands, w.letters)


def test_crossing_limit_applies_to_the_typed_word():
    # 22 letters that reduce to nothing are still refused at the default 20
    w = BraidWord(2, (1, -1) * 11)
    assert w.cyclic_reduce() == BraidWord(2, ())
    for invariant in (skh, kh, plamenevskaya):
        with pytest.raises(CrossingLimitError, match="22 crossings"):
            invariant(w)
