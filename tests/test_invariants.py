import random

import pytest

from naive_skh import naive_psi_nonzero

from annkh import cli, invariants
from annkh.cube import DEFAULT_MAX_CROSSINGS, CrossingLimitError
from annkh.diagram import AnnularClosureDiagram
from annkh.garside import words_equal
from annkh.homology import skh
from annkh.invariants import (
    Decision,
    flype_pair,
    is_trivial,
    plamenevskaya,
    right_veering_obstruction,
    skh_trivial,
    words_equal_homological,
)
from annkh.words import BraidWord, parse_word


def test_skh_trivial_closed_form():
    assert skh_trivial(1) == {(0, 1, 1): 1, (0, -1, -1): 1}
    assert skh_trivial(2) == {(0, 2, 2): 1, (0, 0, 0): 2, (0, -2, -2): 1}
    assert skh_trivial(3) == {(0, 3, 3): 1, (0, 1, 1): 3, (0, -1, -1): 3, (0, -3, -3): 1}
    assert sum(skh_trivial(6).values()) == 64
    with pytest.raises(ValueError):
        skh_trivial(0)


def test_decision_invariants():
    with pytest.raises(ValueError):
        Decision("nope")
    with pytest.raises(ValueError):
        Decision("equal", witness=({}, {}))
    with pytest.raises(ValueError):
        Decision("unequal-by-homology")
    d = Decision("unequal-by-homology", witness=({}, {}))
    assert not d.equal


def test_is_trivial_examples():
    assert is_trivial(parse_word("1 -1 2 -2", strands=3)).verdict == "equal"
    assert is_trivial(parse_word("1")).verdict == "unequal-by-permutation"
    d = is_trivial(parse_word("1 1"))
    assert d.verdict == "unequal-by-homology"
    computed, expected = d.witness
    assert expected == skh_trivial(2)
    assert computed == skh(parse_word("1 1"))


def test_words_equal_homological_examples():
    assert words_equal_homological(parse_word("1 2 1"), parse_word("2 1 2")).verdict == "equal"
    assert (
        words_equal_homological(parse_word("1"), parse_word("-1")).verdict
        == "unequal-by-homology"
    )
    assert (
        words_equal_homological(parse_word("1 2"), parse_word("2 1")).verdict
        == "unequal-by-permutation"
    )
    with pytest.raises(ValueError):
        words_equal_homological(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_homological_equality_agrees_with_garside():
    rng = random.Random(2)
    relators = {
        3: [(1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1)],
        4: [(1, 2, 1, -2, -1, -2), (2, 3, 2, -3, -2, -3), (1, 3, -1, -3), (3, 1, -3, -1)],
    }
    for trial in range(25):
        n = rng.choice((3, 4))
        alphabet = [g for g in range(-(n - 1), n) if g != 0]
        s = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4))))
        if trial % 2 == 0:
            p = BraidWord(n, rng.choice(relators[n]))
        else:
            g = rng.randint(1, n - 1)
            u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
            p = BraidWord(n, u + (g, g) + tuple(-x for x in reversed(u)))
        w1 = p.concat(s)
        decision = words_equal_homological(w1, s)
        assert decision.equal == words_equal(w1, s), (w1, s)


def test_plamenevskaya_examples():
    psi = plamenevskaya(parse_word("-1"))
    assert psi.bidegree == (0, -3)
    assert not psi.nonzero
    psi = plamenevskaya(parse_word("1"))
    assert psi.bidegree == (0, -1)
    assert psi.nonzero
    for n in range(1, 5):
        psi = plamenevskaya(BraidWord(n, ()))
        assert psi.nonzero
        assert psi.bidegree == (0, -n)


def test_plamenevskaya_vanishes_for_generator_negative_words():
    # words using some generator only negatively
    for text, n in [("-1", 2), ("-1 -1 -1", 2), ("1 1 -2", 3), ("-1 2 -3 2", 4)]:
        assert not plamenevskaya(parse_word(text, strands=n)).nonzero


def test_plamenevskaya_matches_naive():
    rng = random.Random(99)
    for trial in range(64):
        n = rng.randint(2, 4)
        alphabet = [g for g in range(-(n - 1), n) if g != 0]
        if trial % 4 == 1:
            alphabet = [g for g in alphabet if g > 0]
        elif trial % 4 == 2:
            alphabet = [g for g in alphabet if g < 0]
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        w = BraidWord(n, letters)
        assert plamenevskaya(w).nonzero == naive_psi_nonzero(n, letters), w
        mirror = w.mirror()
        assert plamenevskaya(mirror).nonzero == naive_psi_nonzero(n, mirror.letters), mirror


def test_plamenevskaya_at_the_crossing_limit(monkeypatch, capsys):
    # the slice of a 20-crossing positive word has 1 + 20 vertices, and so
    # has that of its mirror; the whole cube would have 2^20
    calls = []
    traced = []
    original_trace = AnnularClosureDiagram._trace
    original_build = invariants.build_complex

    def counting_trace(d, vertex):
        calls.append(vertex)
        return original_trace(d, vertex)

    def counting_build(*args, **kwargs):
        before = len(calls)
        cx = original_build(*args, **kwargs)
        traced.append(len(calls) - before)
        return cx

    monkeypatch.setattr(AnnularClosureDiagram, "_trace", counting_trace)
    monkeypatch.setattr(invariants, "build_complex", counting_build)
    w = BraidWord(3, (1, 2) * 10)
    assert len(w) == DEFAULT_MAX_CROSSINGS
    assert plamenevskaya(w).nonzero
    assert not plamenevskaya(w.mirror()).nonzero
    assert len(traced) == 2 and max(traced) <= 21
    longer = BraidWord(3, w.letters + (1,))
    with pytest.raises(CrossingLimitError):
        plamenevskaya(longer)
    with pytest.raises(CrossingLimitError):
        plamenevskaya(longer.mirror())
    assert cli.run(["plam", "--strands", "3", "--", longer.as_text()]) == 1
    assert "crossings" in capsys.readouterr().err


def test_right_veering_reports():
    r = right_veering_obstruction(BraidWord(2, ()))
    assert r.psi_nonzero and r.mirror_psi_nonzero
    assert r.trivial_certificate
    assert r.status == "right-veering"

    r = right_veering_obstruction(parse_word("-1"))
    assert not r.psi_nonzero
    assert r.status == "inconclusive"
    assert not r.trivial_certificate

    r = right_veering_obstruction(parse_word("1 1 1"))
    assert r.psi_nonzero
    assert not r.mirror_psi_nonzero
    assert not r.trivial_certificate
    assert r.status == "right-veering"


def test_trivial_certificate_only_for_trivial_words():
    words = [
        BraidWord(3, ()),
        parse_word("1 -1", strands=3),
        parse_word("1 1"),
        parse_word("1 -2", strands=3),
        parse_word("-1 -1 -1"),
    ]
    for w in words:
        r = right_veering_obstruction(w)
        if r.trivial_certificate:
            assert words_equal(w, BraidWord(w.strands, ())), w


def test_flype_pair_template():
    first, second = flype_pair(3, 2, -1, 1)
    assert first.letters == (1, 1, 1, 2, 2, -1, 2)
    assert second.letters == (1, 1, 1, 2, -1, 2, 2)
    first, second = flype_pair(0, 0, 0, 1)
    assert first.letters == (2,)
    assert second.letters == (2,)
    first, second = flype_pair(1, -2, 2, -1)
    assert first.letters == (1, -2, -2, 1, 1, -2)
    assert second.letters == (1, -2, 1, 1, -2, -2)
    with pytest.raises(ValueError):
        flype_pair(1, 1, 1, 2)


def test_flype_reverse_is_rotation_of_second():
    for params in [(3, 2, -1, 1), (2, -3, 1, -1), (1, 1, 1, 1), (-2, 2, -2, -1), (0, 3, -1, 1)]:
        first, second = flype_pair(*params)
        rev = first.reverse().letters
        doubled = second.letters + second.letters
        assert len(rev) == len(second.letters)
        assert any(
            doubled[r : r + len(rev)] == rev for r in range(max(len(rev), 1))
        ), params


def test_flype_pair_has_equal_homology():
    first, second = flype_pair(2, -1, 1, 1)
    assert skh(first) == skh(second)
