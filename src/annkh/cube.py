"""The triple-graded GF(2) chain complex of an annular braid closure.

Generators are pairs (vertex, labels): vertex is the c-bit smoothing choice
and labels is a bitmask over the circles of that resolution, bit set for a
plus label. With r the number of 1-smoothings of the vertex the gradings
are

    i = r - n_minus
    j = (#plus - #minus) + r + n_plus - 2 * n_minus
    k = (#plus essential) - (#minus essential)

with no further shift on k, so the trivial braid is symmetric about k = 0.
One function, _degrees, computes them, for one labeling or for all the
labelings built at a vertex at once.

The boundary sums the GF(2) Frobenius maps over the cube edges. Merging
two circles sends plus,plus to plus, a mixed pair to minus, and minus,minus
to zero; splitting one circle sends plus to the two mixed labelings and
minus to minus,minus; untouched circles keep their labels. Every component
preserves j, raises i by one, and never raises k, and every build checks
all three on each of its components. Grouping the full boundary by (j, i)
computes ordinary Khovanov homology of the closure; keeping only the
k-preserving components and grouping by (j, k, i) gives the associated
graded boundary whose homology is the annular invariant.

Every generator has one index, numbered block by block in (j, i, k)
order, so a graded block (j, k, i) is a range of it, and so is a full
block (j, i): its graded blocks side by side in increasing k. One edge
sweep lists every boundary entry as a (source, target) pair of indices,
in two columns sorted by source, from which each boundary's blocks are
packed when read. A crossing's four legs lie on one or two circles, so
the least and greatest circle ids of its legs are the circles its edge
changes: the edge merges them when the source has two and splits one
when the target has two. Circles are numbered by least site, and an
edge shares the sites of the circles it changes out anew, so the
untouched circles keep their order and the first changed circle keeps
its number: a target labeling is the source labeling with the second
source circle's bit dropped (a merge) or a bit opened for the second
target circle (a split), and the Frobenius map sets the changed
circles' bits.
The labelings built at a vertex, all or all with one plus count, are
symmetric in the circles, so the columns are sized from them in advance.
The cube is enumerated exhaustively, so the state count is exponential in
the number of crossings and a hard limit (default 20) guards against
runaway jobs.

build_complex builds the diagram it is given, crossing for crossing, and
either the whole cube or a slice of it: some homological degrees at one
quantum degree, on one path that lists the vertices of the wanted
degrees by their sets of 1-smoothings. Every boundary component
preserves j and raises i by one, so a slice's blocks are exactly the
whole cube's blocks at the same keys, except that its top degree has no
outgoing boundary. skh and kh hand it the closure of a cyclically
reduced conjugate of their word (homology.reduced_complex), which can
have far fewer crossings, and build the whole cube; plamenevskaya hands
it the word as typed and builds the slice i in {-1, 0, 1} at
j = writhe - n. generator_count gives the size of a diagram's cube by a
transfer down the braid, without building it, so the size of the typed
word's cube can still be reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable

import numpy as np

from .diagram import AnnularClosureDiagram
from .gf2 import F2Matrix

__all__ = [
    "DEFAULT_MAX_CROSSINGS",
    "CrossingLimitError",
    "EnhancedGenerator",
    "enhanced_generator",
    "plamenevskaya_generator",
    "AnnularComplex",
    "build_complex",
    "generator_count",
]

DEFAULT_MAX_CROSSINGS = 20


class CrossingLimitError(ValueError):
    """Raised instead of enumerating a state space that was not asked for."""

    def __init__(self, crossings: int, limit: int, strands: int, circles: int | None = None):
        self.crossings = crossings
        self.limit = limit
        self.circles = circles
        if circles is None:
            msg = (
                f"diagram has {crossings} crossings, over the limit of {limit}: the cube "
                f"holds 2^{crossings} resolutions and on the order of "
                f"2^{crossings} * 2^(circles) enhanced states (up to {strands + crossings} "
                "circles per resolution); pass a larger max_crossings to proceed anyway"
            )
        else:
            # label bitmasks live in int64 lanes, so 26 circles is the packing bound
            msg = (
                f"a resolution of this {strands}-strand diagram has {circles} circles, "
                "over the 26 supported per resolution; that is "
                f"2^{circles} labelings of a single resolution, more state than the "
                "packed cube is built to hold"
            )
        super().__init__(msg)


@dataclass(frozen=True)
class EnhancedGenerator:
    """One enhanced state: a cube vertex, a label bitmask, and its gradings."""

    vertex: int
    labels: int
    i: int
    j: int
    k: int


def _degrees(d: AnnularClosureDiagram, vertex: int, windings: tuple, labels):
    """i at the vertex, and j and k of labels, one labeling or an array."""
    r = vertex.bit_count()
    emask = sum(1 << ci for ci, w in enumerate(windings) if w != 0)
    plus = np.asarray(np.bitwise_count(labels), dtype=np.int64)
    plus_essential = np.asarray(np.bitwise_count(labels & emask), dtype=np.int64)
    j = 2 * plus + (r + d.n_plus - 2 * d.n_minus - len(windings))
    return r - d.n_minus, j, 2 * plus_essential - emask.bit_count()


def enhanced_generator(d: AnnularClosureDiagram, vertex: int, labels: int) -> EnhancedGenerator:
    c = d.num_crossings
    if not 0 <= vertex < (1 << c):
        raise ValueError(f"vertex {vertex} out of range for {c} crossings")
    _, windings, _ = d._trace(vertex)
    m = len(windings)
    if not 0 <= labels < (1 << m):
        raise ValueError(f"labels {labels} out of range for {m} circles")
    i, j, k = _degrees(d, vertex, windings, labels)
    return EnhancedGenerator(vertex=vertex, labels=labels, i=i, j=int(j), k=int(k))


def plamenevskaya_generator(d: AnnularClosureDiagram) -> EnhancedGenerator:
    """The all-minus labeling of the braid-like resolution.

    Its vertex picks the braid-like smoothing at every crossing (bit 0 at
    positive crossings, bit 1 at negative ones), so the resolution is the
    trivial closure with exactly n essential circles, and the generator
    sits in bidegree (i, j) = (0, writhe - n) with k = -n.
    """
    vertex = 0
    for t, (_pos, sign) in enumerate(d.crossings):
        if sign < 0:
            vertex |= 1 << t
    return enhanced_generator(d, vertex, 0)


class AnnularComplex:
    """Blockwise chain data of one closure diagram.

    graded_dims / graded_boundary are keyed by (j, k, i); the matrix at a
    key maps the (j, k, i) chain block to (j, k, i+1) and a missing matrix
    is the zero map. full_dims / full_boundary are the same thing for the
    full boundary, keyed by (j, i). Every block key ends in i, and a block
    maps to the key one higher in i. The build fails if a boundary entry
    leaves the slice or its quantum block or raises k. num_vertices,
    total_generators, the dims and both boundaries describe what was
    built: the whole cube, or the slice that build_complex was asked for.

    Every generator has one index, numbered block by block in (j, i, k)
    order, and by vertex and then labels within a block. A graded block
    (j, k, i) is a range [start, end) of that index, and so is a full block
    (j, i): its graded blocks in increasing k. The boundary is one list of
    (source, target) index pairs sorted by source. A block of either
    boundary is packed from the entries whose source lies in its range,
    taken relative to the start of its own range and of its successor's,
    when first read: a caller that reads one boundary never allocates the
    other, and graded_blocks / full_blocks pack one block at a time for a
    caller that needs each block only once.
    """

    def __init__(
        self,
        blocks: dict[tuple[int, int, int], int],
        slot: dict[int, int],
        index: list[np.ndarray],
        entries: tuple[np.ndarray, np.ndarray],
    ):
        """blocks gives each graded block's size in index order; index gives,
        per built vertex in slot order, each labeling's index or -1."""
        self.num_vertices = len(slot)
        self._slot = slot
        self._index = index
        self._entries = entries
        self.graded_dims = blocks
        self.total_generators = sum(blocks.values())
        self._graded: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._full: dict[tuple[int, int], tuple[int, int]] = {}
        start = 0
        for (j, k, i), size in blocks.items():
            self._graded[(j, k, i)] = start, start + size
            self._full[(j, i)] = self._full.get((j, i), (start,))[0], start + size
            start += size
        self.full_dims = {key: end - start for key, (start, end) in self._full.items()}

        # safety checks over every boundary entry, run on every build, by
        # looking up each generator's k and full block
        sizes = list(blocks.values())
        gen_k = np.repeat(np.array([k for _j, k, _i in blocks], dtype=np.int16), sizes)
        fid = {key: f for f, key in enumerate(self._full)}
        gen_full = np.repeat(np.array([fid[(j, i)] for j, _k, i in blocks], dtype=np.int32), sizes)
        next_full = np.array([fid.get((j, i + 1), -1) for j, i in self._full], dtype=np.int32)
        src, dst = entries
        if dst.size and dst.min() < 0:
            raise AssertionError("a boundary component left the slice")
        if np.any(gen_k[dst] > gen_k[src]):
            raise AssertionError("a boundary component raised k")
        if not np.array_equal(gen_full[dst], next_full[gen_full][src]):
            raise AssertionError("a boundary component left its quantum block")

    @cached_property
    def graded_boundary(self) -> dict:
        """The k-preserving boundary blocks, keyed by (j, k, i)."""
        return dict(self.graded_blocks())

    @cached_property
    def full_boundary(self) -> dict:
        """The whole boundary's blocks, keyed by (j, i)."""
        return dict(self.full_blocks())

    def graded_blocks(self):
        """Yield graded_boundary's items, packing each block when reached."""
        return self._blocks("graded_boundary", self._graded)

    def full_blocks(self):
        """Yield full_boundary's items, packing each block when reached."""
        return self._blocks("full_boundary", self._full)

    def _blocks(self, cached: str, ranges: dict):
        # each range's entries go to its successor's range, or, in the
        # graded case, to a block of lower k, which is left out
        if cached in self.__dict__:
            yield from self.__dict__[cached].items()
            return
        src, dst = self._entries
        for key, (start, end) in ranges.items():
            target = ranges.get(_shift_i(key))
            if target is None:
                continue
            s, e = np.searchsorted(src, (start, end))
            rows, cols = src[s:e] - start, dst[s:e] - target[0]
            size = target[1] - target[0]
            keep = (cols >= 0) & (cols < size)
            if keep.any():
                yield key, F2Matrix.from_entries(end - start, size, rows[keep], cols[keep])

    def full_position(self, vertex: int, labels: int) -> tuple[tuple[int, int], int]:
        """Locate a generator in its full block: ((j, i), column index)."""
        gi = self._index[self._slot[vertex]] if vertex in self._slot else ()
        idx = int(gi[labels]) if 0 <= labels < len(gi) else -1
        for key, (start, end) in self._full.items():
            if start <= idx < end:
                return key, idx - start
        raise ValueError(f"generator ({vertex}, {labels}) was not built")

    def d_squared_is_zero(self) -> bool:
        """Exhaustive check that consecutive blocks of both boundaries compose to zero."""
        for boundary in (self.graded_boundary, self.full_boundary):
            for key, mat in boundary.items():
                nxt = boundary.get(_shift_i(key))
                if nxt is not None and not mat.compose_is_zero(nxt):
                    return False
        return True


def build_complex(
    d: AnnularClosureDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    progress: Callable[[int, int], None] | None = None,
    *,
    degrees: Iterable[int] | None = None,
    quantum: int | None = None,
) -> AnnularComplex:
    """Enumerate the cube of resolutions and list every boundary entry.

    degrees (homological degrees i) and quantum (one quantum degree j)
    restrict the build to a slice; None, the default, keeps the whole
    cube. Either is built on one path, which traces only the vertices with
    i in degrees, indexes only their labelings with j = quantum, and
    sweeps only the edges between two of those vertices. A slice's blocks
    are those of the whole cube at the same keys, except that the top
    degree has no outgoing boundary.

    progress, when given, is called as progress(vertices_processed,
    total_vertices) at a coarse cadence during the edge sweep.
    """
    c = d.num_crossings
    n = d.strands
    if c > max_crossings:
        raise CrossingLimitError(c, max_crossings, n)
    n_plus, n_minus = d.n_plus, d.n_minus
    # the vertices with r one-smoothings for each r in ones, in increasing
    # order, so a block lists its generators in the same order in the
    # whole cube and in any slice; degrees may be an iterator, read once
    ones = set(range(c + 1))
    if degrees is not None:
        ones &= {i + n_minus for i in degrees}
    vertices = sorted(
        sum(1 << t for t in chosen) for r in ones for chosen in combinations(range(c), r)
    )
    slot = {v: s for s, v in enumerate(vertices)}

    # per-vertex resolution data and the labelings built there, listed by
    # the vertex's slot in vertices. Each built labeling gets a cell, one
    # integer that increases with its graded block in (j, i, k) order:
    # r = i + n_minus lies in [0, c] and k + n in [0, 2n], as every
    # essential circle crosses the n closing strands.
    stc_list: list[bytearray] = []
    m_list: list[int] = []
    labels_list: list[np.ndarray] = []
    out_counts: list[tuple[int, int]] = []
    cells: list[np.ndarray] = []
    label_sets: dict[tuple[int, int | None], tuple[np.ndarray, int, int]] = {}
    kspan = 2 * n + 1

    for v in vertices:
        stc, windings, _ = d._trace(v)
        m = len(windings)
        if m > 26:
            raise CrossingLimitError(c, max_crossings, n, circles=m)
        plus = None
        if quantum is not None:
            # j = 2 * plus + the scalar term of _degrees; odd differences are unreachable
            twice = quantum - (v.bit_count() + n_plus - 2 * n_minus - m)
            plus = twice >> 1 if twice % 2 == 0 else -1
        if (m, plus) not in label_sets:
            labels = np.arange(1 << m, dtype=np.int64)
            if plus is not None:
                labels = labels[np.bitwise_count(labels) == plus]
            # the set holds all labelings or all with one plus count, so it
            # is symmetric in the circles: a merge maps the labelings not
            # minus on circles 0 and 1, a split those plus on circle 0 twice
            merges = labels.size - np.count_nonzero(labels & 3 == 0)
            label_sets[(m, plus)] = labels, merges, labels.size + np.count_nonzero(labels & 1)
        labels, merges, splits = label_sets[(m, plus)]
        stc_list.append(stc)
        m_list.append(m)
        labels_list.append(labels)
        out_counts.append((merges, splits))
        i, jj, kk = _degrees(d, v, windings, labels)
        cells.append((jj * (c + 1) + (i + n_minus)) * kspan + kk + n)

    # number the generators by cell; the stable sort keeps vertex and then
    # labels order within a block. index[s] maps each labeling of the
    # vertex at slot s to its generator index, -1 outside the slice.
    cell = np.concatenate(cells or [np.empty(0, dtype=np.int64)])
    del cells
    order = np.argsort(cell, kind="stable")
    position = np.empty(cell.size, dtype=np.int32)
    position[order] = np.arange(cell.size, dtype=np.int32)
    del order
    cell, sizes = np.unique(cell, return_counts=True)
    jr, kn = np.divmod(cell, kspan)
    jv, rv = np.divmod(jr, c + 1)
    blocks = {
        (int(j), int(k) - n, int(r) - n_minus): int(size)
        for j, k, r, size in zip(jv, kn, rv, sizes)
    }
    index: list[np.ndarray] = []
    first = 0
    for m, labels in zip(m_list, labels_list):
        gi = np.full(1 << m, -1, dtype=np.int32)
        gi[labels] = position[first : first + labels.size]
        index.append(gi)
        first += labels.size
    del position

    # edge sweep over the edges between built vertices: vectorize the
    # Frobenius map over the built labelings at once, writing (source,
    # target) generator indices into two columns sized in advance from
    # each source vertex's merge and split entry counts.
    va = np.asarray(vertices, dtype=np.int64)
    m_arr = np.array(m_list, dtype=np.int64)
    merges, splits = np.array(out_counts, dtype=np.int64).reshape(-1, 2).T
    swept = np.isin(np.bitwise_count(va) + 1, list(ones))  # its upper neighbours are built
    total = 0
    for t in range(c):
        src = np.flatnonzero(swept & ((va >> t) & 1 == 0))
        dst = np.searchsorted(va, va[src] | (1 << t))
        total += int(np.where(m_arr[dst] < m_arr[src], merges[src], splits[src]).sum())
    src_col = np.empty(total, dtype=np.int32)
    dst_col = np.empty(total, dtype=np.int32)
    filled = 0

    legs = [itemgetter(*d.crossing_sites(t)) for t in range(c)]
    nv = len(vertices)
    for sv, v in enumerate(vertices):
        if progress is not None and (sv & 511) == 0:
            progress(sv, nv)
        labels = labels_list[sv]
        if not labels.size or not swept[sv]:
            continue
        stcv = stc_list[sv]
        for t in range(c):
            if (v >> t) & 1:
                continue
            su = slot[v | (1 << t)]
            stcu = stc_list[su]
            src_ids, dst_ids = legs[t](stcv), legs[t](stcu)
            a, b = min(src_ids), max(src_ids)
            if (a != b) == (min(dst_ids) != max(dst_ids)):
                raise AssertionError("a resolution change must merge two circles or split one")
            # the first changed circle keeps its least site and so its
            # number; the second source bit is dropped, or a target bit opened
            if a != b:
                x1, x2 = (labels >> a) & 1, (labels >> b) & 1
                keep = (x1 | x2) != 0
                rest = ((labels >> (b + 1)) << b) | (labels & ((1 << b) - 1) & ~(1 << a))
                src, dst = labels[keep], rest[keep] | ((x1 & x2)[keep] << a)
            else:
                b = max(dst_ids)
                ispos = (labels >> a) & 1 != 0
                rest = ((labels >> b) << (b + 1)) | (labels & ((1 << b) - 1))
                src = np.concatenate([labels[~ispos]] + [labels[ispos]] * 2)
                dst = np.concatenate([rest[~ispos], rest[ispos], rest[ispos] ^ ((1 << a) | (1 << b))])
            src_col[filled : filled + src.size] = index[sv][src]
            dst_col[filled : filled + src.size] = index[su][dst]
            filled += src.size
    if progress is not None:
        progress(nv, nv)
    if filled != total:
        raise AssertionError("the edge sweep wrote a different number of entries than counted")

    # sort by source, one column at a time, so one column is held twice;
    # the order of the targets of one source is immaterial, as packing ORs
    order = np.argsort(src_col)
    src_col = src_col[order]
    dst_col = dst_col[order]
    del order
    return AnnularComplex(blocks, slot, index, (src_col, dst_col))


def _shift_i(key: tuple, step: int = 1) -> tuple:
    """The block key step homological degrees on; every block key ends in i."""
    return key[:-1] + (key[-1] + step,)


def generator_count(d: AnnularClosureDiagram) -> int:
    """The generator count of the cube, the sum over resolutions of 2^circles.

    Counted by a transfer down the braid, one crossing at a time, without
    tracing a resolution. A partial state pairs the n top points (0..n-1)
    and the n current bottom points (n..2n-1), and is weighted by 2 to the
    number of circles it has closed. The braid-like smoothing keeps the
    pairing; the cap-cup one joins the partners of the two bottom points
    under the crossing (closing a circle if they were partners of each
    other) and pairs those two points anew. The closure finally joins top
    point p to bottom point n + p.
    """
    n = d.strands
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): 1}
    for pos, _sign in d.crossings:
        a, b = n + pos - 1, n + pos
        nxt: defaultdict = defaultdict(int)
        for pairing, weight in states.items():
            nxt[pairing] += weight
            if pairing[a] == b:
                nxt[pairing] += 2 * weight
            else:
                joined = list(pairing)
                pa, pb = pairing[a], pairing[b]
                joined[pa], joined[pb], joined[a], joined[b] = pb, pa, b, a
                nxt[tuple(joined)] += weight
        states = nxt
    total = 0
    for pairing, weight in states.items():
        seen = [False] * (2 * n)
        circles = 0
        for start in range(2 * n):
            if not seen[start]:
                circles += 1
                x = start
                while not seen[x]:
                    y = pairing[x]
                    seen[x] = seen[y] = True
                    x = y - n if y >= n else y + n
        total += weight << circles
    return total
