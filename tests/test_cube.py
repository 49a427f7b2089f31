import pytest

from annkh.cube import (
    DEFAULT_MAX_CROSSINGS,
    CrossingLimitError,
    build_complex,
    enhanced_generator,
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
