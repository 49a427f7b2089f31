import random
import tracemalloc

import pytest

from annkh.words import MAX_STRANDS, MAX_WORD_LETTERS, BraidWord, Permutation, parse_word


def test_permutation_composition_is_apply_then():
    s1 = Permutation.transposition(3, 0)
    s2 = Permutation.transposition(3, 1)
    # strand at position 0 first crosses to position 1, then to position 2
    assert (s1 * s2).images == (2, 0, 1)
    assert (s2 * s1).images == (1, 2, 0)


def test_permutation_cycles_and_inverse():
    p = Permutation((2, 0, 1, 3))
    assert p.inverse() * p == Permutation.identity(4)
    assert p.cycles() == ((0, 2, 1), (3,))
    assert p.num_cycles() == 2
    assert not p.is_identity()
    assert Permutation.identity(3).is_identity()


def test_longest_element():
    w0 = Permutation.longest(4)
    assert w0.images == (3, 2, 1, 0)
    assert w0 * w0 == Permutation.identity(4)
    assert w0.descents() == frozenset({0, 1, 2})


def test_word_permutation_matches_letter_product():
    w = BraidWord(3, (1, 2))
    assert w.permutation().images == (2, 0, 1)
    w = BraidWord(3, (1, -1, 2, 2))
    assert w.permutation() == Permutation.identity(3)
    assert w.is_pure()


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    BraidWord(1, ())  # no letters possible but the group exists


def test_inverse_reverse_mirror():
    w = BraidWord(3, (1, -2, 2, 1))
    assert w.inverse().letters == (-1, -2, 2, -1)
    assert w.reverse().letters == (1, 2, -2, 1)
    assert w.mirror().letters == (-1, 2, -2, -1)
    assert w.inverse().inverse() == w
    assert w.writhe() == 2
    assert w.mirror().writhe() == -2


def test_concat_and_strand_mismatch():
    a = BraidWord(3, (1,))
    b = BraidWord(3, (2,))
    assert a.concat(b).letters == (1, 2)
    with pytest.raises(ValueError):
        a.concat(BraidWord(4, (3,)))


def test_free_reduce():
    w = BraidWord(3, (1, 2, -2, -1, 2))
    assert w.free_reduce().letters == (2,)
    assert BraidWord(2, (1, -1)).free_reduce().letters == ()
    assert BraidWord(2, (1, 1)).free_reduce().letters == (1, 1)


def test_closure_components():
    assert BraidWord(3, ()).closure_components() == 3
    assert BraidWord(2, (1,)).closure_components() == 1
    assert BraidWord(3, (1, 2)).closure_components() == 1
    assert BraidWord(2, (1, 1)).closure_components() == 2
    assert BraidWord(3, (1, 1)).closure_components() == 3


def test_parse_word_basic():
    w = parse_word("1 2 -1")
    assert w.strands == 3
    assert w.letters == (1, 2, -1)
    assert parse_word("1, 2, -1").letters == (1, 2, -1)
    assert parse_word("").strands == 1
    assert parse_word("", strands=4).strands == 4


def test_parse_word_powers():
    assert parse_word("1^3").letters == (1, 1, 1)
    assert parse_word("2^-2").letters == (-2, -2)
    assert parse_word("-1^2").letters == (-1, -1)
    assert parse_word("1^0 2").letters == (2,)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("0")
    with pytest.raises(ValueError):
        parse_word("x")
    with pytest.raises(ValueError):
        parse_word("1 2", strands=2)


def test_parse_word_refuses_long_words_before_expanding():
    assert len(parse_word(f"1^{MAX_WORD_LETTERS}").letters) == MAX_WORD_LETTERS
    half = MAX_WORD_LETTERS // 2 + 1
    with pytest.raises(ValueError, match="letters"):
        parse_word(f"1^{half} -2^{half}")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="letters"):
            parse_word("1^2000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # expanding the power first would hold a 16 MB list of letters
    assert peak < 100_000


def test_parse_word_refuses_too_many_strands():
    assert parse_word(str(MAX_STRANDS - 1)).strands == MAX_STRANDS
    assert parse_word("1", strands=MAX_STRANDS).strands == MAX_STRANDS
    for text, strands in [
        (str(MAX_STRANDS), None),
        ("999999999999999999", None),
        ("1", MAX_STRANDS + 1),
        ("1", 10**9),
    ]:
        with pytest.raises(ValueError, match=f"over the limit of {MAX_STRANDS}"):
            parse_word(text, strands=strands)


def test_as_text_roundtrip():
    w = BraidWord(4, (1, -3, 2, 2))
    assert parse_word(w.as_text(), strands=4) == w


def test_cyclic_reduce_examples():
    # far letters between a pair do not block it, neighbouring ones do
    assert BraidWord(4, (1, 3, -1)).cyclic_reduce().letters == (3,)
    assert BraidWord(4, (1, 3, -1, 2)).cyclic_reduce().letters == (3, 2)
    assert BraidWord(3, (1, 2, -1, -2)).cyclic_reduce().letters == (1, 2, -1, -2)
    # pairs that meet only across the end of the word cancel too
    assert BraidWord(3, (1, 2, -1)).cyclic_reduce().letters == (2,)
    assert BraidWord(3, (2, 1, 1, -2)).cyclic_reduce().letters == (1, 1)
    assert BraidWord(2, (1, -1) * 11).cyclic_reduce() == BraidWord(2, ())
    assert BraidWord(4, (2,)).cyclic_reduce() == BraidWord(4, (2,))


def _cycle_type(w):
    return sorted(len(c) for c in w.permutation().cycles())


def test_cyclic_reduce_keeps_the_conjugacy_data():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(2, 5)
        alphabet = [g for g in range(1 - n, n) if g]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
        r = w.cyclic_reduce()
        assert r.strands == w.strands
        assert len(r) <= len(w.free_reduce()) <= len(w)
        assert r.writhe() == w.writhe()
        assert _cycle_type(r) == _cycle_type(w)
        assert r.cyclic_reduce() == r
