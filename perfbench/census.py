"""Resolution census of a braid closure, written without the engine.

For every vertex of the cube of resolutions it counts the circles and the
essential circles. It shares no code with ``annkh``: the closure is a graph
on vertical segments (column p, gap g), every segment has exactly two
neighbours, and circles are its connected components, found for all
vertices at once as one sparse graph. A circle is essential
exactly when it crosses a radial cut of the annulus an odd number of
times; the cut sits on the closure arcs, and each closure arc touches one
top segment (gap 0), so the parity is that of the top segments the circle
contains.

Bit t of a vertex picks the 0-smoothing at crossing t. The 0-smoothing of
a positive crossing is the braid-like one; of a negative crossing, the
cap-cup one (Khovanov's convention).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def vertex_census(strands: int, letters: tuple[int, ...]) -> np.ndarray:
    """Rows (r, circles, essential circles), one per vertex in vertex order."""
    n, c = strands, len(letters)
    nv = 1 << c
    nodes = n * (c + 1)  # segment (p, g) is node g * n + p, p counted from 0
    vertices = np.arange(nv, dtype=np.int64)
    # every vertex has exactly `nodes` edges: n per crossing row plus n closure arcs
    ends_a = np.empty((nv, nodes), dtype=np.int64)
    ends_b = np.empty((nv, nodes), dtype=np.int64)
    ends_a[:, :n] = np.arange(c * n, c * n + n)
    ends_b[:, :n] = np.arange(n)
    for t, g in enumerate(letters):
        pos = abs(g) - 1
        bit = (vertices >> t) & 1
        braid_like = bit == 0 if g > 0 else bit == 1
        col = (t + 1) * n
        for p in range(n):
            ends_a[:, col + p] = t * n + p
            ends_b[:, col + p] = (t + 1) * n + p
        # braid-like keeps both columns; cap-cup joins the two upper legs
        # and the two lower legs
        ends_b[:, col + pos] = np.where(braid_like, (t + 1) * n + pos, t * n + pos + 1)
        ends_a[:, col + pos + 1] = np.where(braid_like, t * n + pos + 1, (t + 1) * n + pos)
    base = (vertices * nodes)[:, None]
    graph = coo_matrix(
        (np.ones(nv * nodes, dtype=np.int8), ((ends_a + base).ravel(), (ends_b + base).ravel())),
        shape=(nv * nodes, nv * nodes),
    )
    count, label = connected_components(graph, directed=False)
    _, first = np.unique(label, return_index=True)
    owner = first // nodes  # the vertex each circle belongs to
    circles = np.bincount(owner, minlength=nv)
    top = label.reshape(nv, nodes)[:, :n].ravel()
    odd = (np.bincount(top, minlength=count) & 1).astype(bool)
    essential = np.bincount(owner[odd], minlength=nv)
    r = np.bitwise_count(vertices).astype(np.int64)
    return np.stack([r, circles, essential], axis=1)

