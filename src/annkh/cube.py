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

build_complex builds the diagram it is given, crossing for crossing. skh
and kh hand it the closure of a cyclically reduced conjugate of their word
(homology.reduced_complex), which can have far fewer crossings;
plamenevskaya hands it the word as typed. generator_count gives the size
of a diagram's cube by a transfer down the braid, without building it, so
the size of the typed word's cube can still be reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
                f"holds 2^{crossings} = {1 << crossings} resolutions and on the order of "
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
    components that raised k; it must be zero.

    Generators are indexed once, by graded block. A full block (j, i) is
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
        g_bid: list[np.ndarray],
        g_pos: list[np.ndarray],
        entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        circle_counts: list[int],
        essential_counts: list[int],
    ):
        self.diagram = diagram
        self.strands = diagram.strands
        self.total_generators = sum(1 << m for m in circle_counts)
        self.num_vertices = 1 << diagram.num_crossings
        self._g_bid = g_bid
        self._g_pos = g_pos
        # entries arrive sorted by source block; the source column is then
        # redundant: the entries of graded block g are [bounds[g], bounds[g + 1])
        src, row, dst, col = entries
        self._bounds = np.searchsorted(src, np.arange(len(gsizes) + 1)).tolist()
        self._entries = row, dst, col
        self._circle_counts = circle_counts
        self._essential_counts = essential_counts

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
        gid = int(self._g_bid[vertex][labels])
        pos = int(self._block_offset[gid]) + int(self._g_pos[vertex][labels])
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
        n = self.strands
        total = 0
        for m, e in zip(self._circle_counts, self._essential_counts):
            if e == n:
                total += 1 << (m - n)
        return total


def build_complex(
    d: AnnularClosureDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    progress: Callable[[int, int], None] | None = None,
) -> AnnularComplex:
    """Enumerate the cube of resolutions and list every boundary entry.

    progress, when given, is called as progress(vertices_processed,
    total_vertices) at a coarse cadence during the edge sweep.
    """
    c = d.num_crossings
    n = d.strands
    if c > max_crossings:
        raise CrossingLimitError(c, max_crossings, n)
    nv = 1 << c
    n_plus, n_minus = d.n_plus, d.n_minus

    # per-vertex resolution data
    stc_list: list[bytearray] = []
    min_list: list[tuple[int, ...]] = []
    m_list: list[int] = []
    ecnt_list: list[int] = []
    emask_list: list[int] = []
    for v in range(nv):
        stc, windings, min_sites = d._trace(v)
        stc_list.append(stc)
        min_list.append(min_sites)
        m_list.append(len(windings))
        emask = 0
        for ci, w in enumerate(windings):
            if w != 0:
                emask |= 1 << ci
        emask_list.append(emask)
        ecnt_list.append(emask.bit_count())
        if len(windings) > 26:
            raise CrossingLimitError(c, max_crossings, n, circles=len(windings))

    # per-vertex label indexing into graded blocks (j, k, i)
    gkeys: dict[tuple[int, int, int], int] = {}
    gsizes: list[int] = []
    g_bid: list[np.ndarray] = []
    g_pos: list[np.ndarray] = []
    ranges: dict[int, np.ndarray] = {}
    kspan = 2 * n + 2

    for v in range(nv):
        m = m_list[v]
        emask, ecnt = emask_list[v], ecnt_list[v]
        r = v.bit_count()
        i = r - n_minus
        jbase = r + n_plus - 2 * n_minus
        labels = ranges.get(m)
        if labels is None:
            labels = ranges[m] = np.arange(1 << m, dtype=np.int64)
        plus = np.bitwise_count(labels).astype(np.int64)
        eplus = np.bitwise_count(labels & emask).astype(np.int64)
        jj = 2 * plus - m + jbase
        kk = 2 * eplus - ecnt
        code = jj * kspan + kk
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        new_group = np.empty(sorted_code.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_code[1:] != sorted_code[:-1]
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], sorted_code.size)
        gb = np.empty(1 << m, dtype=np.int32)
        gp = np.empty(1 << m, dtype=np.int32)
        for s, e in zip(starts, ends):
            sel = order[s:e]
            key = (int(jj[sel[0]]), int(kk[sel[0]]), i)
            gid = gkeys.get(key)
            if gid is None:
                gid = gkeys[key] = len(gsizes)
                gsizes.append(0)
            gb[sel] = gid
            gp[sel] = gsizes[gid] + np.arange(e - s, dtype=np.int32)
            gsizes[gid] += int(e - s)
        g_bid.append(gb)
        g_pos.append(gp)

    # edge sweep: vectorize the Frobenius map over all labelings at once,
    # writing (source block, source position, target block, target position)
    # into preallocated columns. A merge maps the three quarters of the
    # labelings that are not minus on both merged circles, a split maps each
    # labeling once or (plus on the split circle) twice, so the entry count
    # is known before the sweep.
    m_arr = np.array(m_list, dtype=np.int64)
    vertices = np.arange(nv)
    total = 0
    for t in range(c):
        below = vertices[(vertices >> t) & 1 == 0]
        mv, mu = m_arr[below], m_arr[below | (1 << t)]
        total += int(np.where(mu < mv, (3 << mv) >> 2, (3 << mv) >> 1).sum())
    entries = [np.empty(total, dtype=np.int32) for _ in range(4)]
    filled = 0

    for v in range(nv):
        if progress is not None and (v & 511) == 0:
            progress(v, nv)
        mv = m_list[v]
        stcv = stc_list[v]
        mins = min_list[v]
        labels = ranges[mv]
        for t in range(c):
            if (v >> t) & 1:
                continue
            u = v | (1 << t)
            stcu = stc_list[u]
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
            entries[0][span] = g_bid[v][src]
            entries[1][span] = g_pos[v][src]
            entries[2][span] = g_bid[u][dst]
            entries[3][span] = g_pos[u][dst]
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
    return AnnularComplex(d, gkeys, gsizes, g_bid, g_pos, tuple(entries), m_list, ecnt_list)


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
