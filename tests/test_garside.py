import random

import pytest
from garside_sweep import sweep_normal_form
from hypothesis import given, settings
from hypothesis import strategies as st

from annkh.burau import bigelow_kernel_word
from annkh.garside import NormalForm, is_left_weighted, left_normal_form, words_equal
from annkh.words import MAX_STRANDS, BraidWord, Permutation, parse_word


def random_word(rng, n, max_len):
    alphabet = [g for g in range(-(n - 1), n) if g != 0]
    if not alphabet:
        return BraidWord(n, ())
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


def test_trivial_and_delta_forms():
    assert left_normal_form(BraidWord(3, ())) == NormalForm(3, 0, ())
    # half twist on three strands
    assert left_normal_form(parse_word("1 2 1")) == NormalForm(3, 1, ())
    assert left_normal_form(parse_word("2 1 2")) == NormalForm(3, 1, ())
    # B2: every sigma_1 power is a Delta power
    assert left_normal_form(parse_word("1 1")) == NormalForm(2, 2, ())


def test_negative_generator_is_delta_inverse_in_b2():
    assert left_normal_form(parse_word("-1")) == NormalForm(2, -1, ())
    assert left_normal_form(parse_word("-1 -1 -1")) == NormalForm(2, -3, ())


def test_single_generator_form():
    nf = left_normal_form(parse_word("1", strands=3))
    assert nf.infimum == 0
    assert nf.factors == (Permutation.transposition(3, 0),)
    assert is_left_weighted(nf)


def test_negative_generator_in_b3():
    nf = left_normal_form(parse_word("-2", strands=3))
    assert nf.infimum == -1
    assert nf.canonical_length() == 1
    assert is_left_weighted(nf)
    assert nf.permutation() == Permutation.transposition(3, 1)


def test_braid_relations():
    assert words_equal(parse_word("1 2 1"), parse_word("2 1 2"))
    assert words_equal(parse_word("1 3"), parse_word("3 1"))
    assert not words_equal(parse_word("1 2"), parse_word("2 1"))


def test_free_and_nonfree_triviality():
    assert words_equal(parse_word("1 -1 2 -2", strands=3), BraidWord(3, ()))
    assert not words_equal(parse_word("1 1"), BraidWord(2, ()))
    assert not words_equal(parse_word("1", strands=3), BraidWord(3, ()))


def test_strand_mismatch_rejected():
    with pytest.raises(ValueError):
        words_equal(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_normal_form_uniqueness_on_equal_words():
    pairs = [
        ("1 2 1", "2 1 2"),
        ("1 2 1 1", "2 1 2 1"),
        ("1 -2 2 1", "1 1"),
        ("-1 1 2", "2"),
    ]
    for a, b in pairs:
        wa, wb = parse_word(a, strands=3), parse_word(b, strands=3)
        assert left_normal_form(wa) == left_normal_form(wb)


def test_randomized_normal_forms_are_valid_and_faithful():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(1, 5)
        w = random_word(rng, n, 14)
        nf = left_normal_form(w)
        assert is_left_weighted(nf)
        assert nf.permutation() == w.permutation()
        assert words_equal(w.concat(w.inverse()), BraidWord(n, ()))
        assert words_equal(w, w)


def test_conjugation_preserves_triviality():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 6)
        u = random_word(rng, n, 4)
        conj = u.concat(w).concat(u.inverse())
        assert words_equal(w, BraidWord(n, ())) == words_equal(conj, BraidWord(n, ()))


def test_conjugate_differs_for_noncommuting_witness():
    # u w u^-1 != w when u and w do not commute
    w = parse_word("1", strands=3)
    u = parse_word("2", strands=3)
    conj = u.concat(w).concat(u.inverse())
    assert not words_equal(conj, w)


def test_mixed_sign_words_agree_with_letterwise_cancellation():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 5)
        w = random_word(rng, n, 10)
        # inserting a cancelling pair anywhere preserves the element
        if w.letters:
            k = rng.randrange(len(w.letters))
            g = rng.choice([x for x in range(-(n - 1), n) if x != 0])
            padded = w.letters[:k] + (g, -g) + w.letters[k:]
            assert words_equal(w, BraidWord(n, padded))


@st.composite
def oracle_words(draw):
    n = draw(st.integers(2, 8))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=30))
    if draw(st.booleans()):
        signs = [-1] * len(letters)
    else:
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(letters), max_size=len(letters)))
    return BraidWord(n, tuple(g * s for g, s in zip(letters, signs)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(oracle_words())
def test_one_pass_matches_the_sweep(w):
    assert left_normal_form(w) == sweep_normal_form(w)


def test_one_pass_matches_the_sweep_on_bigelows_word():
    w = bigelow_kernel_word()
    nf = left_normal_form(w)
    assert nf == sweep_normal_form(w)
    assert not nf.is_trivial()


def test_normal_forms_at_the_strand_limit():
    n = MAX_STRANDS
    assert words_equal(BraidWord(n, (1,)), BraidWord(n, (1,)))
    assert left_normal_form(BraidWord(n, (1, -1))).is_trivial()
    w = BraidWord(n, (1, 2, -1, 3, -2))
    nf = left_normal_form(w)
    assert (nf.infimum, nf.canonical_length()) == (-1, 2)
    assert is_left_weighted(nf)
    assert nf.permutation() == w.permutation()


def test_wide_normal_forms_match_the_sweep():
    for letters in ((1, -1), (1, 2, -1, 3, -2)):
        w = BraidWord(50, letters)
        assert left_normal_form(w) == sweep_normal_form(w)
