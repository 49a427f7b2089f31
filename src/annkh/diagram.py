"""Annular closure diagrams of braid words and their resolved states.

The closure of a braid word lives in an annulus around the braid axis: the
bottom of strand column p wraps around the axis back to the top of column
p. A radial cut arc from the axis out to infinity is placed in that closure
region, so it meets each of the n closure arcs exactly once and nothing
else. The winding number of a resolution circle is then the signed count of
closure arcs it traverses: +1 taken in the braid orientation (bottom back
to top), -1 against it. Embedded circles in an annulus satisfy
|winding| <= 1; a circle is essential exactly when |winding| = 1 and the
tracer asserts this on every circle it closes.

Each crossing is resolved in one of two ways: the braid-like smoothing
keeps both strands in their columns, the cap-cup smoothing joins the two
upper legs and the two lower legs. Resolution choices are packed into a
vertex bitmask, bit t for crossing t counted from the top. At a positive
crossing bit 0 means braid-like; at a negative crossing the roles swap, so
bit 0 is always the standard 0-smoothing of Khovanov's cube.

Site numbering (stable ids make circle enumeration reproducible):

* 0 .. n-1      top boundary points of the columns
* n .. 2n-1     bottom boundary points
* 2n+4t+q      the four legs of crossing t; q = 0 upper-left, 1
                upper-right, 2 lower-left, 3 lower-right

Every site has exactly two incident arcs, a vertical one inside its column
and one other arc (the closure arc at a boundary site, the chosen smoothing
at a crossing leg), so circles are traced a vertical arc and then the
other kind at a time: a circle that leaves its first site by the vertical
arc comes back to it by the other kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import BraidWord

__all__ = ["AnnularClosureDiagram", "ResolutionState", "closure_diagram"]

_QUADRANTS = ("nw", "ne", "sw", "se")


@dataclass(frozen=True)
class AnnularClosureDiagram:
    """A braid closure drawn in the annulus: strand count plus crossings.

    crossings holds (position, sign) per letter, top to bottom, with
    position the 1-based column pair index and sign +1 or -1.
    """

    strands: int
    crossings: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        for pos, sign in self.crossings:
            if not 1 <= pos <= self.strands - 1:
                raise ValueError(f"crossing position {pos} out of range")
            if sign not in (-1, 1):
                raise ValueError(f"crossing sign must be +1 or -1, got {sign}")

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @cached_property
    def n_plus(self) -> int:
        return sum(1 for _, sign in self.crossings if sign > 0)

    @cached_property
    def n_minus(self) -> int:
        return sum(1 for _, sign in self.crossings if sign < 0)

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def num_sites(self) -> int:
        return 2 * self.strands + 4 * len(self.crossings)

    def crossing_sites(self, t: int) -> tuple[int, int, int, int]:
        base = 2 * self.strands + 4 * t
        return (base, base + 1, base + 2, base + 3)

    def site_name(self, site: int) -> str:
        n = self.strands
        if site < n:
            return f"T{site + 1}"
        if site < 2 * n:
            return f"B{site - n + 1}"
        t, q = divmod(site - 2 * n, 4)
        return f"c{t + 1}.{_QUADRANTS[q]}"

    @cached_property
    def _vertical_partner(self) -> tuple[int, ...]:
        # Pair up the sites along each column: top boundary, then the legs
        # of the crossings touching the column in order, then the bottom.
        n = self.strands
        partner = [0] * self.num_sites
        for p in range(n):
            chain = [p]
            for t, (pos, _sign) in enumerate(self.crossings):
                col = pos - 1
                base = 2 * n + 4 * t
                if col == p:
                    chain += [base + 0, base + 2]
                elif col + 1 == p:
                    chain += [base + 1, base + 3]
            chain.append(n + p)
            for a, b in zip(chain[0::2], chain[1::2]):
                partner[a] = b
                partner[b] = a
        return tuple(partner)

    def braid_like(self, t: int, vertex: int) -> bool:
        """Does bit t of the vertex pick the braid-like smoothing at crossing t?"""
        bit = (vertex >> t) & 1
        return bit == (0 if self.crossings[t][1] > 0 else 1)

    def _trace(self, vertex: int) -> tuple[bytearray, tuple[int, ...], tuple[int, ...]]:
        """Trace every circle of one resolution.

        Returns (site_to_circle, windings, min_sites): circles are numbered
        in order of their minimal site id, which makes the enumeration
        canonical.
        """
        n = self.strands
        size = self.num_sites
        vp = self._vertical_partner
        smooth = [0] * size
        for t in range(len(self.crossings)):
            base = 2 * n + 4 * t
            if self.braid_like(t, vertex):
                smooth[base], smooth[base + 2] = base + 2, base
                smooth[base + 1], smooth[base + 3] = base + 3, base + 1
            else:
                smooth[base], smooth[base + 1] = base + 1, base
                smooth[base + 2], smooth[base + 3] = base + 3, base + 2
        site_to_circle = bytearray(size)
        seen = bytearray(size)
        windings: list[int] = []
        min_sites: list[int] = []
        for s0 in range(size):
            if seen[s0]:
                continue
            cid = len(windings)
            if cid > 255:
                raise ValueError("more than 256 circles in one resolution; diagram too large")
            wind = 0
            cur = s0
            while True:
                mate = vp[cur]
                seen[cur] = seen[mate] = 1
                site_to_circle[cur] = site_to_circle[mate] = cid
                if mate < n:  # top boundary: closure arc against the orientation
                    wind -= 1
                    cur = mate + n
                elif mate < 2 * n:  # bottom boundary: closure arc with it
                    wind += 1
                    cur = mate - n
                else:
                    cur = smooth[mate]
                if cur == s0:
                    break
            if wind not in (-1, 0, 1):
                raise AssertionError(
                    f"circle with winding {wind}: embedded circles in the annulus "
                    "wind at most once, the tracer is broken"
                )
            windings.append(wind)
            min_sites.append(s0)
        return site_to_circle, tuple(windings), tuple(min_sites)

    def resolve(self, vertex: int) -> "ResolutionState":
        """The fully resolved state at one cube vertex."""
        c = len(self.crossings)
        if not 0 <= vertex < (1 << c):
            raise ValueError(f"vertex {vertex} out of range for {c} crossings")
        site_to_circle, windings, _ = self._trace(vertex)
        groups: list[list[int]] = [[] for _ in windings]
        for site, cid in enumerate(site_to_circle):
            groups[cid].append(site)
        circles = tuple(tuple(g) for g in groups)
        return ResolutionState(vertex=vertex, circles=circles, windings=windings)


@dataclass(frozen=True)
class ResolutionState:
    """Circles of one resolution, ordered by minimal site id."""

    vertex: int
    circles: tuple[tuple[int, ...], ...]
    windings: tuple[int, ...]

    @property
    def num_circles(self) -> int:
        return len(self.circles)

    @property
    def essential_count(self) -> int:
        return sum(1 for w in self.windings if w != 0)


def closure_diagram(w: BraidWord) -> AnnularClosureDiagram:
    crossings = tuple((abs(g), 1 if g > 0 else -1) for g in w.letters)
    return AnnularClosureDiagram(strands=w.strands, crossings=crossings)
