import random
import weakref

import numpy as np
import pytest

from annkh.cube import (
    DEFAULT_MAX_CROSSINGS,
    CrossingLimitError,
    build_complex,
    enhanced_generator,
    generator_count,
    plamenevskaya_generator,
)
from annkh.diagram import closure_diagram
from annkh.gf2 import F2Matrix
from annkh.homology import homology_full, homology_graded
from annkh.words import BraidWord, parse_word


def cx_of(text, strands=None, **kw):
    return build_complex(closure_diagram(parse_word(text, strands=strands)), **kw)


def test_crossing_limit():
    w = BraidWord(2, (1,) * 21)
    with pytest.raises(CrossingLimitError) as err:
        build_complex(closure_diagram(w))
    msg = str(err.value)
    assert "21" in msg and str(DEFAULT_MAX_CROSSINGS) in msg
    assert "2^21" in msg
    # explicit override allows it in principle (not executed: too large),
    # and a tighter limit refuses smaller words
    with pytest.raises(CrossingLimitError):
        build_complex(closure_diagram(BraidWord(2, (1, 1))), max_crossings=1)


def test_transfer_count_matches_the_cube():
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(1, 5)
        alphabet = [g for g in range(1 - n, n) if g]
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 9) if n > 1 else 0))
        d = closure_diagram(BraidWord(n, letters))
        assert generator_count(d) == build_complex(d).total_generators, (n, letters)


def test_single_crossing_generators():
    d = closure_diagram(parse_word("1"))
    # braid-like vertex: two essential circles
    g = enhanced_generator(d, 0, 0b00)
    assert (g.i, g.j, g.k) == (0, -1, -2)
    g = enhanced_generator(d, 0, 0b11)
    assert (g.i, g.j, g.k) == (0, 3, 2)
    # cap-cup vertex: one trivial circle
    g = enhanced_generator(d, 1, 0b0)
    assert (g.i, g.j, g.k) == (1, 1, 0)
    g = enhanced_generator(d, 1, 0b1)
    assert (g.i, g.j, g.k) == (1, 3, 0)


def test_enhanced_generator_validation():
    d = closure_diagram(parse_word("1"))
    with pytest.raises(ValueError):
        enhanced_generator(d, 2, 0)
    with pytest.raises(ValueError):
        enhanced_generator(d, 1, 2)  # one circle, so labels < 2


def test_plamenevskaya_generator_degrees():
    for text, n in [("1", 2), ("-1", 2), ("1 -2 1", 3), ("-1 -2 -1", 3), ("1 2 3", 4)]:
        w = parse_word(text, strands=n)
        d = closure_diagram(w)
        g = plamenevskaya_generator(d)
        assert g.labels == 0
        assert (g.i, g.j, g.k) == (0, w.writhe() - n, -n)
        # the chosen vertex really is the braid-like one
        for t in range(d.num_crossings):
            assert d.braid_like(t, g.vertex)


def test_generator_counts():
    cx = cx_of("1 1")
    # vertices 00,01,10,11 have 2,1,1,2 circles
    assert cx.total_generators == 4 + 2 + 2 + 4
    assert cx.num_vertices == 4
    assert sum(cx.full_dims.values()) == cx.total_generators
    assert sum(cx.graded_dims.values()) == cx.total_generators


def test_dims_agree_between_groupings():
    cx = cx_of("1 -2 1", strands=3)
    rolled = {}
    for (j, k, i), dim in cx.graded_dims.items():
        rolled[(j, i)] = rolled.get((j, i), 0) + dim
    assert rolled == cx.full_dims


def test_d_squared_zero_and_filtration():
    for text, n in [("1 1 1", 2), ("1 -2 1 -2", 3), ("-1 2 -3", 4), ("1 2 1 2 1 2", 3)]:
        cx = cx_of(text, strands=n)
        assert cx.k_increase_components == 0
        assert cx.d_squared_is_zero("graded")
        assert cx.d_squared_is_zero("full")
    with pytest.raises(ValueError):
        cx_of("1").d_squared_is_zero("nonsense")


def test_bottom_k_dimension_is_one():
    for text, n in [("1", 2), ("-1", 2), ("1 2 1", 3), ("1 -2 3 -2", 4), ("", 3)]:
        cx = cx_of(text, strands=n)
        assert cx.bottom_k_chain_dim() == 1


def test_full_position_roundtrip():
    w = parse_word("1 -2", strands=3)
    d = closure_diagram(w)
    cx = build_complex(d)
    seen = {}
    for v in range(4):
        m = len(d.resolve(v).circles)
        for labels in range(1 << m):
            g = enhanced_generator(d, v, labels)
            key, pos = cx.full_position(v, labels)
            assert key == (g.j, g.i)
            assert 0 <= pos < cx.full_dims[key]
            assert (key, pos) not in seen
            seen[(key, pos)] = (v, labels)
    assert len(seen) == cx.total_generators


def test_progress_callback():
    calls = []
    cx_of("1 1 1", progress=lambda done, total: calls.append((done, total)))
    assert calls[-1] == (8, 8)
    assert all(total == 8 for _, total in calls)


def test_empty_word_complex():
    cx = cx_of("", strands=3)
    assert cx.total_generators == 8
    assert cx.graded_boundary == {}
    assert cx.full_boundary == {}
    assert cx.bottom_k_chain_dim() == 1


def test_each_caller_packs_only_what_it_reads(monkeypatch):
    calls = []
    original = F2Matrix.from_entries

    def counting(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(F2Matrix, "from_entries", staticmethod(counting))
    cx = cx_of("1 -2 1 -2", strands=3)
    assert calls == []
    homology_graded(cx)
    assert len(calls) == len(cx.graded_boundary) > 0
    calls.clear()
    cx = cx_of("1 -2 1 -2", strands=3)
    homology_full(cx)
    assert len(calls) == len(cx.full_boundary) > 0


def test_homology_holds_one_packed_block_at_a_time(monkeypatch):
    # each block is ranked and dropped before the next one is packed
    packed = []
    held = []
    original = F2Matrix.from_entries

    def tracking(*args):
        held.append(sum(ref() is not None for ref in packed))
        mat = original(*args)
        packed.append(weakref.ref(mat.data))
        return mat

    monkeypatch.setattr(F2Matrix, "from_entries", staticmethod(tracking))
    cx = cx_of("1 -2 1 -2 1", strands=3)
    homology_graded(cx)
    homology_full(cx)
    assert len(held) > 4 and max(held) == 0


def _same_blocks(part, whole):
    assert part.keys() <= whole.keys()
    for key, mat in part.items():
        other = whole[key]
        assert (mat.rows, mat.cols) == (other.rows, other.cols), key
        assert np.array_equal(mat.data, other.data), key


def _check_slice(d, degrees, quantum, whole=None):
    whole = whole or build_complex(d)
    part = build_complex(d, degrees=degrees, quantum=quantum)
    inside = lambda key: key[0] == quantum and key[-1] in degrees
    built = lambda key: inside(key) and key[-1] + 1 in degrees
    assert part.graded_dims == {k: v for k, v in whole.graded_dims.items() if inside(k)}
    assert part.full_dims == {k: v for k, v in whole.full_dims.items() if inside(k)}
    assert part.total_generators == sum(part.graded_dims.values())
    assert part.num_vertices == sum(
        1 for v in range(1 << d.num_crossings) if v.bit_count() - d.n_minus in degrees
    )
    assert part.k_increase_components == 0
    assert set(part.graded_boundary) == {k for k in whole.graded_boundary if built(k)}
    assert set(part.full_boundary) == {k for k in whole.full_boundary if built(k)}
    _same_blocks(part.graded_boundary, whole.graded_boundary)
    _same_blocks(part.full_boundary, whole.full_boundary)
    return part


def test_slice_equals_whole_cube():
    rng = random.Random(8)
    for trial in range(120):
        n = rng.randint(1, 4)
        alphabet = [g for g in range(1 - n, n) if g]
        size = rng.randint(0, 8) if n > 1 else 0
        if trial % 6 == 0:  # n_minus = 0: degree -1 has no vertex
            alphabet = [g for g in alphabet if g > 0]
        elif trial % 6 == 1:  # n_minus = c: degree +1 has no vertex
            alphabet = [g for g in alphabet if g < 0]
        letters = tuple(rng.choice(alphabet) for _ in range(size)) if alphabet else ()
        w = BraidWord(n, letters)
        d = closure_diagram(w)
        j0 = w.writhe() - n
        whole = build_complex(d)
        _check_slice(d, range(-1, 2), j0, whole)
        # another quantum degree and another window of degrees
        lo = rng.randint(-d.n_minus - 1, d.n_plus)
        degrees = range(lo, lo + rng.randint(1, 3))
        _check_slice(d, degrees, j0 + 2 * rng.randint(-2, 2), whole)


def test_slice_edge_cases():
    w = parse_word("1 1 1")
    part = _check_slice(closure_diagram(w), range(-1, 2), w.writhe() - 2)
    assert part.num_vertices == 1 + 3  # n_minus = 0: nothing at degree -1
    w = parse_word("-1 -1 -1")
    part = _check_slice(closure_diagram(w), range(-1, 2), w.writhe() - 2)
    assert part.num_vertices == 3 + 1  # n_minus = c: nothing at degree +1
    # j of the wrong parity: the vertices are traced, no labeling is built
    part = _check_slice(closure_diagram(w), range(-1, 2), w.writhe() - 1)
    assert part.num_vertices == 4
    assert part.total_generators == 0 and part.graded_dims == {} and part.full_boundary == {}
    # degrees the cube does not have: no vertex at all
    part = build_complex(closure_diagram(w), degrees=[5], quantum=0)
    assert part.num_vertices == part.total_generators == 0
    assert part.graded_boundary == {} and part.full_boundary == {}
