"""The triple-graded GF(2) chain complex of an annular braid closure.

Generators are pairs (vertex, labels): vertex is the c-bit smoothing choice
and labels is a bitmask over the circles of that resolution, bit set for a
plus label. With r the number of 1-smoothings of the vertex the gradings
are

    i = r - n_minus
    j = (#plus - #minus) + r + n_plus - 2 * n_minus
    k = (#plus essential) - (#minus essential)

with no further shift on k, so the trivial braid is symmetric about k = 0.

The boundary sums the GF(2) Frobenius maps over the cube edges. Merging
two circles sends plus,plus to plus, a mixed pair to minus, and minus,minus
to zero; splitting one circle sends plus to the two mixed labelings and
minus to minus,minus; untouched circles keep their labels. Every component
preserves j, raises i by one, and never raises k. Grouping the full
boundary by (j, i) computes ordinary Khovanov homology of the closure;
keeping only the k-preserving components and grouping by (j, k, i) gives
the associated graded boundary whose homology is the annular invariant.

Generators are indexed once, by graded block (j, k, i); a full block
(j, i) is its graded blocks laid side by side in increasing k. One edge
sweep with vectorized label arithmetic lists every boundary entry into
columns sized in advance, sorted by source block, and each boundary's
blocks are packed from that list when they are read.
The cube is enumerated exhaustively, so the state count is exponential in
the number of crossings and a hard limit (default 20) guards against
runaway jobs.

build_complex builds the diagram it is given, crossing for crossing, and
either the whole cube or a slice of it: some homological degrees at one
quantum degree. Every boundary component preserves j and raises i by
one, so a slice's blocks are exactly the whole cube's blocks at the same
keys, except that its top degree has no outgoing boundary. skh and kh
hand it the closure of a cyclically reduced conjugate of their word
(homology.reduced_complex), which can have far fewer crossings, and
build the whole cube; plamenevskaya hands it the word as typed and builds
the slice i in {-1, 0, 1} at j = writhe - n. generator_count gives the
size of a diagram's cube by a transfer down the braid, without building
it, so the size of the typed word's cube can still be reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
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


def enhanced_generator(d: AnnularClosureDiagram, vertex: int, labels: int) -> EnhancedGenerator:
    c = d.num_crossings
    if not 0 <= vertex < (1 << c):
        raise ValueError(f"vertex {vertex} out of range for {c} crossings")
    _, windings, _ = d._trace(vertex)
    m = len(windings)
    if not 0 <= labels < (1 << m):
        raise ValueError(f"labels {labels} out of range for {m} circles")
    r = vertex.bit_count()
    plus = labels.bit_count()
    essential_plus = sum(1 for ci, w in enumerate(windings) if w != 0 and (labels >> ci) & 1)
    essential = sum(1 for w in windings if w != 0)
    i = r - d.n_minus
    j = (2 * plus - m) + r + d.n_plus - 2 * d.n_minus
    k = 2 * essential_plus - essential
    return EnhancedGenerator(vertex=vertex, labels=labels, i=i, j=j, k=k)


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
    full boundary, keyed by (j, i). k_increase_components counts boundary
    components that raised k; it must be zero. num_vertices,
    total_generators, the dims and both boundaries describe what was
    built: the whole cube, or the slice that build_complex was asked for.

    Generators are indexed once, by graded block: g_bid / g_pos give each
    labeling's block and position, per built vertex, listed in the order
    that slot maps a vertex to. A full block (j, i) is
    its graded blocks (j, k, i) laid side by side in increasing k, so each
    graded block has a full block id and a column offset there. Both
    boundaries are packed from one shared entry list, sorted by source
    block, when first read: a caller that reads one never allocates the
    other, and graded_blocks / full_blocks pack one block at a time for a
    caller that needs each block only once.
    """

    def __init__(
        self,
        diagram: AnnularClosureDiagram,
        gkeys: dict,
        gsizes: list[int],
        slot: dict[int, int] | range,
        g_bid: list[np.ndarray],
        g_pos: list[np.ndarray],
        entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ):
        self.diagram = diagram
        self.strands = diagram.strands
        self.total_generators = sum(gsizes)
        self.num_vertices = len(slot)
        self._slot = slot
        self._g_bid = g_bid
        self._g_pos = g_pos
        # entries arrive sorted by source block; the source column is then
        # redundant: the entries of graded block g are [bounds[g], bounds[g + 1])
        src, row, dst, col = entries
        self._bounds = np.searchsorted(src, np.arange(len(gsizes) + 1)).tolist()
        self._entries = row, dst, col

        self._gkey_list = list(gkeys)
        self._gsizes = gsizes
        self._gsucc = np.array(
            [gkeys.get((j, k, i + 1), -1) for (j, k, i) in gkeys], dtype=np.int32
        )
        self.graded_dims = dict(zip(self._gkey_list, gsizes))
        block_k = np.array([k for _j, k, _i in self._gkey_list], dtype=np.int16)

        fkeys: dict[tuple[int, int], int] = {}
        for j, _k, i in self._gkey_list:
            fkeys.setdefault((j, i), len(fkeys))
        self._fkey_list = list(fkeys)
        self._fsizes = [0] * len(fkeys)
        self._fsucc = np.array([fkeys.get((j, i + 1), -1) for (j, i) in fkeys], dtype=np.int32)
        self._fmembers: list[list[int]] = [[] for _ in fkeys]
        self._block_fid = np.empty(len(gsizes), dtype=np.int32)
        self._block_offset = np.empty(len(gsizes), dtype=np.int64)
        for gid in np.argsort(block_k, kind="stable"):
            j, _k, i = self._gkey_list[gid]
            fid = fkeys[(j, i)]
            self._fmembers[fid].append(int(gid))
            self._block_fid[gid] = fid
            self._block_offset[gid] = self._fsizes[fid]
            self._fsizes[fid] += gsizes[gid]
        self.full_dims = dict(zip(self._fkey_list, self._fsizes))

        # safety checks over every boundary entry, run on every build
        per_block = np.diff(self._bounds)
        src_k = np.repeat(block_k, per_block)
        if dst.size and dst.min() < 0:
            raise AssertionError("a boundary component left the slice")
        self.k_increase_components = int(np.count_nonzero(block_k[dst] > src_k))
        src_next = np.repeat(self._fsucc[self._block_fid], per_block)
        if not np.array_equal(self._block_fid[dst], src_next):
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
        if "graded_boundary" in self.__dict__:
            yield from self.graded_boundary.items()
            return
        row, dst, col = self._entries
        bounds = self._bounds
        for gid, key in enumerate(self._gkey_list):
            s, e, succ = bounds[gid], bounds[gid + 1], int(self._gsucc[gid])
            keep = dst[s:e] == succ
            if succ >= 0 and keep.any():
                rows, cols = self._gsizes[gid], self._gsizes[succ]
                yield key, F2Matrix.from_entries(rows, cols, row[s:e][keep], col[s:e][keep])

    def full_blocks(self):
        """Yield full_boundary's items, packing each block when reached."""
        if "full_boundary" in self.__dict__:
            yield from self.full_boundary.items()
            return
        row, dst, col = self._entries
        bounds, offset = self._bounds, self._block_offset
        for fid, key in enumerate(self._fkey_list):
            spans = [(g, bounds[g], bounds[g + 1]) for g in self._fmembers[fid]]
            spans = [(g, s, e) for g, s, e in spans if e > s]
            if not spans:
                continue
            rows = np.concatenate([offset[g] + row[s:e] for g, s, e in spans])
            cols = np.concatenate([offset[dst[s:e]] + col[s:e] for _g, s, e in spans])
            shape = self._fsizes[fid], self._fsizes[int(self._fsucc[fid])]
            yield key, F2Matrix.from_entries(*shape, rows, cols)

    def full_position(self, vertex: int, labels: int) -> tuple[tuple[int, int], int]:
        """Locate a generator in its full block: ((j, i), column index)."""
        s = self._slot[vertex]
        gid = int(self._g_bid[s][labels])
        pos = int(self._block_offset[gid]) + int(self._g_pos[s][labels])
        return self._fkey_list[self._block_fid[gid]], pos

    def d_squared_is_zero(self, mode: str = "graded") -> bool:
        """Exhaustive matrix check that consecutive boundaries compose to zero."""
        if mode == "graded":
            boundary = self.graded_boundary
            succ = lambda key: (key[0], key[1], key[2] + 1)
        elif mode == "full":
            boundary = self.full_boundary
            succ = lambda key: (key[0], key[1] + 1)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        for key, mat in boundary.items():
            nxt = boundary.get(succ(key))
            if nxt is not None and not mat.compose_is_zero(nxt):
                return False
        return True

    def bottom_k_chain_dim(self) -> int:
        """Number of generators in the bottommost annular grading k = -n.

        Empirically this is 1 (the distinguished all-minus braid-like
        state); callers should check rather than assume.
        """
        return sum(dim for (_j, k, _i), dim in self.graded_dims.items() if k == -self.strands)


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
    cube. A slice traces only the vertices with i in degrees, indexes only
    their labelings with j = quantum, and sweeps only the edges between
    two of those vertices. Its blocks are those of the whole cube at the
    same keys, except that the top degree has no outgoing boundary.

    progress, when given, is called as progress(vertices_processed,
    total_vertices) at a coarse cadence during the edge sweep.
    """
    c = d.num_crossings
    n = d.strands
    if c > max_crossings:
        raise CrossingLimitError(c, max_crossings, n)
    n_plus, n_minus = d.n_plus, d.n_minus
    # vertices are built in increasing order, so a block lists its
    # generators in the same order in the whole cube and in any slice
    ones = set(range(c + 1))
    if degrees is None:
        vertices = slot = range(1 << c)  # each vertex is its own slot
    else:
        ones &= {i + n_minus for i in degrees}
        vertices = sorted(
            sum(1 << t for t in chosen) for r in ones for chosen in combinations(range(c), r)
        )
        slot = {v: s for s, v in enumerate(vertices)}

    # per-vertex resolution data, and the labelings built there indexed
    # into graded blocks (j, k, i); labels outside the slice get block -1.
    # Lists are indexed by the vertex's slot in vertices.
    stc_list: list[bytearray] = []
    min_list: list[tuple[int, ...]] = []
    m_list: list[int] = []
    labels_list: list[np.ndarray] = []
    out_counts: list[tuple[int, int]] = []
    gkeys: dict[tuple[int, int, int], int] = {}
    gsizes: list[int] = []
    g_bid: list[np.ndarray] = []
    g_pos: list[np.ndarray] = []
    label_sets: dict[tuple[int, int | None], np.ndarray] = {}
    kspan = 2 * n + 2

    for v in vertices:
        stc, windings, min_sites = d._trace(v)
        m = len(windings)
        if m > 26:
            raise CrossingLimitError(c, max_crossings, n, circles=m)
        emask = 0
        for ci, w in enumerate(windings):
            if w != 0:
                emask |= 1 << ci
        ecnt = emask.bit_count()
        r = v.bit_count()
        i = r - n_minus
        jbase = r + n_plus - 2 * n_minus
        plus = None
        if quantum is not None:
            # j = 2 * plus - m + jbase; no labeling reaches an odd difference
            twice = quantum - jbase + m
            plus = twice >> 1 if twice % 2 == 0 else -1
        labels = label_sets.get((m, plus))
        if labels is None:
            labels = np.arange(1 << m, dtype=np.int64)
            if plus is not None:
                labels = labels[np.bitwise_count(labels) == plus]
            label_sets[(m, plus)] = labels
        gb = np.full(1 << m, -1, dtype=np.int32)
        gp = np.empty(1 << m, dtype=np.int32)
        stc_list.append(stc)
        min_list.append(min_sites)
        m_list.append(m)
        labels_list.append(labels)
        out_counts.append(_entry_counts(m, plus))
        g_bid.append(gb)
        g_pos.append(gp)
        if not labels.size:
            continue
        jj = 2 * np.bitwise_count(labels).astype(np.int64) - m + jbase
        kk = 2 * np.bitwise_count(labels & emask).astype(np.int64) - ecnt
        code = jj * kspan + kk
        order = np.argsort(code, kind="stable")
        members = labels[order]
        sorted_code = code[order]
        new_group = np.empty(sorted_code.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_code[1:] != sorted_code[:-1]
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], sorted_code.size)
        for s, e in zip(starts, ends):
            key = (int(jj[order[s]]), int(kk[order[s]]), i)
            gid = gkeys.get(key)
            if gid is None:
                gid = gkeys[key] = len(gsizes)
                gsizes.append(0)
            gb[members[s:e]] = gid
            gp[members[s:e]] = gsizes[gid] + np.arange(e - s, dtype=np.int32)
            gsizes[gid] += int(e - s)

    # edge sweep over the edges between built vertices: vectorize the
    # Frobenius map over the built labelings at once, writing (source block,
    # source position, target block, target position) into columns sized in
    # advance from each source vertex's merge and split entry counts.
    va = np.asarray(vertices, dtype=np.int64)
    m_arr = np.array(m_list, dtype=np.int64)
    merges, splits = np.array(out_counts, dtype=np.int64).reshape(-1, 2).T
    swept = np.isin(np.bitwise_count(va) + 1, list(ones))  # its upper neighbours are built
    total = 0
    for t in range(c):
        src = np.flatnonzero(swept & ((va >> t) & 1 == 0))
        dst = np.searchsorted(va, va[src] | (1 << t))
        total += int(np.where(m_arr[dst] < m_arr[src], merges[src], splits[src]).sum())
    entries = [np.empty(total, dtype=np.int32) for _ in range(4)]
    filled = 0

    nv = len(vertices)
    for sv, v in enumerate(vertices):
        if progress is not None and (sv & 511) == 0:
            progress(sv, nv)
        labels = labels_list[sv]
        if not labels.size or not swept[sv]:
            continue
        mv = m_list[sv]
        stcv = stc_list[sv]
        mins = min_list[sv]
        for t in range(c):
            if (v >> t) & 1:
                continue
            su = slot[v | (1 << t)]
            stcu = stc_list[su]
            sites = d.crossing_sites(t)
            affected_src = {stcv[s] for s in sites}
            affected_dst = {stcu[s] for s in sites}
            if len(affected_src) + len(affected_dst) != 3:
                raise AssertionError("a resolution change must merge two circles or split one")
            pairs = [
                (ci, stcu[mins[ci]]) for ci in range(mv) if ci not in affected_src
            ]
            if len(affected_src) == 2:
                a1, a2 = sorted(affected_src)
                (dd,) = affected_dst
                x1 = (labels >> a1) & 1
                x2 = (labels >> a2) & 1
                keep = (x1 | x2) != 0
                src = labels[keep]
                dst = np.zeros(src.shape, dtype=np.int64)
                for sb, db in pairs:
                    dst |= ((src >> sb) & 1) << db
                dst |= (x1 & x2)[keep] << dd
            else:
                (aa,) = affected_src
                d1, d2 = sorted(affected_dst)
                base = np.zeros(labels.shape, dtype=np.int64)
                for sb, db in pairs:
                    base |= ((labels >> sb) & 1) << db
                ispos = ((labels >> aa) & 1) != 0
                neg_dst = base[~ispos]
                pos_base = base[ispos]
                pos_src = labels[ispos]
                src = np.concatenate([labels[~ispos], pos_src, pos_src])
                dst = np.concatenate([neg_dst, pos_base | (1 << d1), pos_base | (1 << d2)])
            span = slice(filled, filled + src.size)
            entries[0][span] = g_bid[sv][src]
            entries[1][span] = g_pos[sv][src]
            entries[2][span] = g_bid[su][dst]
            entries[3][span] = g_pos[su][dst]
            filled += src.size
    if progress is not None:
        progress(nv, nv)
    if filled != total:
        raise AssertionError("the edge sweep wrote a different number of entries than counted")

    # sort by source block one column at a time, so one column is held twice;
    # the order within a block is immaterial, as packing ORs the entries
    order = np.argsort(entries[0])
    for idx in range(4):
        entries[idx] = entries[idx][order]
    del order
    return AnnularComplex(d, gkeys, gsizes, slot, g_bid, g_pos, tuple(entries))


def _entry_counts(m: int, plus: int | None) -> tuple[int, int]:
    """Boundary entries of a merge and of a split out of a vertex with m circles.

    plus is the plus count of the labelings built there, None for all.
    """
    if plus is None:
        return (3 << m) >> 2, (3 << m) >> 1
    if not 0 <= plus <= m:
        return 0, 0
    # a merge drops the labelings minus on both merged circles, a split
    # maps those plus on the split circle twice
    both_minus = comb(m - 2, plus) if m >= 2 else 0
    plus_on_one = comb(m - 1, plus - 1) if plus else 0
    return comb(m, plus) - both_minus, comb(m, plus) + plus_on_one


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
