import random

import pytest

from annkh.diagram import AnnularClosureDiagram, closure_diagram
from annkh.words import BraidWord, parse_word


def test_site_layout():
    d = closure_diagram(parse_word("1 -2", strands=3))
    assert d.strands == 3
    assert d.num_crossings == 2
    assert d.num_sites == 6 + 8
    assert d.site_name(0) == "T1"
    assert d.site_name(3) == "B1"
    assert d.site_name(6) == "c1.nw"
    assert d.site_name(13) == "c2.se"


def test_crossing_signs():
    d = closure_diagram(parse_word("1 -2 2", strands=3))
    assert d.crossings == ((1, 1), (2, -1), (2, 1))
    assert d.n_plus == 2
    assert d.n_minus == 1
    assert d.writhe == 1


def test_braid_like_convention():
    d = closure_diagram(parse_word("1 -1"))
    # positive crossing: bit 0 is braid-like; negative: bit 1 is
    assert d.braid_like(0, 0b00)
    assert not d.braid_like(0, 0b01)
    assert not d.braid_like(1, 0b00)
    assert d.braid_like(1, 0b10)


def test_identity_braid_resolution():
    d = closure_diagram(BraidWord(3, ()))
    state = d.resolve(0)
    assert state.num_circles == 3
    assert state.windings == (1, 1, 1)
    assert state.essential_count == 3


def test_single_crossing_resolutions():
    d = closure_diagram(parse_word("1"))
    braidlike = d.resolve(0)
    assert braidlike.num_circles == 2
    assert sorted(braidlike.windings) == [1, 1]
    capcup = d.resolve(1)
    assert capcup.num_circles == 1
    assert capcup.windings == (0,)
    assert capcup.essential_count == 0


def test_two_crossing_capcup_chain():
    d = closure_diagram(parse_word("1 1"))
    # both crossings cap-cup: a trivial middle circle plus one winding-zero loop
    state = d.resolve(0b11)
    assert state.num_circles == 2
    assert state.essential_count == 0
    # both braid-like: two essential circles
    state = d.resolve(0b00)
    assert state.num_circles == 2
    assert state.essential_count == 2


def test_negative_crossing_braidlike_bit():
    d = closure_diagram(parse_word("-1"))
    state = d.resolve(0b1)
    assert state.num_circles == 2
    assert state.essential_count == 2
    state = d.resolve(0b0)
    assert state.num_circles == 1
    assert state.essential_count == 0


def test_circles_listed_by_min_site():
    d = closure_diagram(parse_word("1 2", strands=3))
    for v in range(4):
        state = d.resolve(v)
        mins = [min(c) for c in state.circles]
        assert mins == sorted(mins)
        seen = sorted(s for c in state.circles for s in c)
        assert seen == list(range(d.num_sites))


def test_an_edge_keeps_the_order_of_untouched_circles():
    # the edge sweep relabels circles by bit position: mapped through its
    # least site, each untouched circle must land in order, and the first
    # circle the edge changes must keep its number
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 5)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 9))]
        d = closure_diagram(BraidWord(n, tuple(letters)))
        traces = [d._trace(v) for v in range(1 << d.num_crossings)]
        for v, (stcv, windings, mins) in enumerate(traces):
            for t in range(d.num_crossings):
                if (v >> t) & 1:
                    continue
                stcu, windings_u, _ = traces[v | (1 << t)]
                changed_src = sorted({stcv[s] for s in d.crossing_sites(t)})
                changed_dst = sorted({stcu[s] for s in d.crossing_sites(t)})
                untouched = [ci for ci in range(len(windings)) if ci not in changed_src]
                images = [stcu[mins[ci]] for ci in untouched]
                kept = [ci for ci in range(len(windings_u)) if ci not in changed_dst]
                assert images == kept, (letters, v, t)
                assert changed_src[0] == changed_dst[0], (letters, v, t)


def test_windings_bounded():
    for text, n in [("1 2 1 2", 3), ("-1 2 -1 2", 3), ("1 1 1", 2), ("1 -2 3 -1", 4)]:
        d = closure_diagram(parse_word(text, strands=n))
        for v in range(1 << d.num_crossings):
            for wdg in d.resolve(v).windings:
                assert wdg in (-1, 0, 1)


def test_vertex_out_of_range():
    d = closure_diagram(parse_word("1"))
    with pytest.raises(ValueError):
        d.resolve(2)
    with pytest.raises(ValueError):
        d.resolve(-1)


def test_crossing_position_validation():
    with pytest.raises(ValueError):
        AnnularClosureDiagram(2, ((2, 1),))
    with pytest.raises(ValueError):
        AnnularClosureDiagram(2, ((1, 0),))
