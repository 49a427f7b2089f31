"""Decision procedures built on the annular homology engine.

The load-bearing fact: the closure's triple-graded homology over GF(2)
matches that of the trivial closure if and only if the braid is trivial.
That turns a homology computation into a word-problem decision, checkable
against the classical Garside solution. The distinguished bottom-k class
(the all-minus braid-like state) gives a transverse-flavored obstruction:
it dies only for braids that fail to be right-veering, and survival of
both it and its mirror forces the braid to be trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cube import DEFAULT_MAX_CROSSINGS, build_complex, plamenevskaya_generator
from .diagram import closure_diagram
from .gf2 import pack_unit_row
from .homology import skh
from .words import BraidWord

__all__ = [
    "Decision",
    "PlamenevskayaClass",
    "VeeringReport",
    "skh_trivial",
    "is_trivial",
    "words_equal_homological",
    "plamenevskaya",
    "right_veering_obstruction",
    "flype_pair",
]

EQUAL = "equal"
UNEQUAL_BY_PERMUTATION = "unequal-by-permutation"
UNEQUAL_BY_HOMOLOGY = "unequal-by-homology"


@dataclass(frozen=True)
class Decision:
    """Outcome of a homological equality test.

    verdict is one of "equal", "unequal-by-permutation",
    "unequal-by-homology"; witness carries the (computed, expected)
    dimension tables exactly in the homology case.
    """

    verdict: str
    witness: tuple[dict, dict] | None = None

    def __post_init__(self):
        if self.verdict not in (EQUAL, UNEQUAL_BY_PERMUTATION, UNEQUAL_BY_HOMOLOGY):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.witness is not None) != (self.verdict == UNEQUAL_BY_HOMOLOGY):
            raise ValueError("witness present iff verdict is unequal-by-homology")

    @property
    def equal(self) -> bool:
        return self.verdict == EQUAL


def skh_trivial(n: int) -> dict[tuple[int, int, int], int]:
    """Closed-form homology of the trivial closure on n strands.

    The 0-crossing complex has zero differential and n essential circles,
    so the table is {(0, n-2m, n-2m): binomial(n, m)} for m = 0..n.
    """
    if n < 1:
        raise ValueError("strand count must be positive")
    return {(0, n - 2 * m, n - 2 * m): math.comb(n, m) for m in range(n + 1)}


def is_trivial(w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> Decision:
    """Decide whether w is the trivial braid from its closure homology.

    Non-pure words are rejected by the permutation check before any
    homology is computed. For pure words the computed table equal to the
    trivial closed form is a complete certificate of triviality.
    """
    if not w.is_pure():
        return Decision(UNEQUAL_BY_PERMUTATION)
    computed = skh(w, max_crossings=max_crossings)
    expected = skh_trivial(w.strands)
    if computed == expected:
        return Decision(EQUAL)
    return Decision(UNEQUAL_BY_HOMOLOGY, witness=(computed, expected))


def words_equal_homological(
    w1: BraidWord, w2: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> Decision:
    """Decide w1 = w2 by testing the difference braid for triviality."""
    if w1.strands != w2.strands:
        raise ValueError(f"strand counts differ: {w1.strands} vs {w2.strands}")
    return is_trivial(w1.concat(w2.inverse()).free_reduce(), max_crossings=max_crossings)


@dataclass(frozen=True)
class PlamenevskayaClass:
    """Survival data of the distinguished bottom-k cycle.

    bidegree is always (0, writhe - n); nonzero records whether the class
    lives in homology, i.e. is not a boundary in the full complex.
    """

    bidegree: tuple[int, int]
    nonzero: bool


def plamenevskaya(w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> PlamenevskayaClass:
    """Compute the distinguished class of the closure and test nonvanishing.

    The generator is the all-minus labeling of the braid-like resolution.
    It is checked to be a cycle, then tested for membership in the image
    of the incoming full boundary of its own quantum block. Only those two
    full blocks, (j0, -1) -> (j0, 0) -> (j0, 1) with j0 = writhe - n, are
    read, so only that slice of the cube is built: homological degrees
    -1, 0 and 1 at quantum degree j0. The cube is that of w as typed: the
    class is a transverse invariant and a reduced conjugate would give the
    same answer, but the reduction is not applied here yet (see ROADMAP).
    """
    d = closure_diagram(w)
    j0 = w.writhe() - w.strands
    cx = build_complex(d, max_crossings=max_crossings, degrees=range(-1, 2), quantum=j0)
    gen = plamenevskaya_generator(d)
    if (gen.i, gen.j) != (0, j0) or gen.k != -w.strands:
        raise AssertionError("distinguished generator landed in the wrong degree")
    key, pos = cx.full_position(gen.vertex, gen.labels)
    if key != (j0, 0):
        raise AssertionError("distinguished generator landed in the wrong block")
    outgoing = cx.full_boundary.get((j0, 0))
    if outgoing is not None and not outgoing.row_is_zero(pos):
        raise AssertionError("distinguished generator is not a cycle")
    incoming = cx.full_boundary.get((j0, -1))
    if incoming is None:
        nonzero = True
    else:
        nonzero = not incoming.row_in_span(pack_unit_row(incoming.cols, pos))
    return PlamenevskayaClass(bidegree=(0, j0), nonzero=nonzero)


@dataclass(frozen=True)
class VeeringReport:
    """What the distinguished class and its mirror say about the braid.

    A surviving class certifies the braid right-veering (a vanishing one
    proves nothing either way, hence status "inconclusive"). Survival of
    both the class and its mirror certifies the braid trivial.
    """

    psi_nonzero: bool
    mirror_psi_nonzero: bool
    status: str
    trivial_certificate: bool


def right_veering_obstruction(
    w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> VeeringReport:
    psi = plamenevskaya(w, max_crossings=max_crossings)
    mirror_psi = plamenevskaya(w.mirror(), max_crossings=max_crossings)
    return VeeringReport(
        psi_nonzero=psi.nonzero,
        mirror_psi_nonzero=mirror_psi.nonzero,
        status="right-veering" if psi.nonzero else "inconclusive",
        trivial_certificate=psi.nonzero and mirror_psi.nonzero,
    )


def _twists(gen: int, count: int) -> list[int]:
    return [gen] * count if count >= 0 else [-gen] * (-count)


def flype_pair(u: int, v: int, w: int, sign: int) -> tuple[BraidWord, BraidWord]:
    """Instantiate the 3-strand flype template.

    Returns (s1^u s2^v s1^w s2^sign, s1^u s2^sign s1^w s2^v). The second
    word's closure is oriented-isotopic to the reverse of the first, so
    the two closures always share their annular homology; for suitable
    parameters the underlying braids are not conjugate (a literature fact
    the CLI cites rather than re-proving).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    first = _twists(1, u) + _twists(2, v) + _twists(1, w) + [2 * sign]
    second = _twists(1, u) + [2 * sign] + _twists(1, w) + _twists(2, v)
    return BraidWord(3, tuple(first)), BraidWord(3, tuple(second))
