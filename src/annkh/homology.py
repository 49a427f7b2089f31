"""Homology of the blockwise chain complexes, over the two-element field.

Within one block chain  C^{i-1} -> C^i -> C^{i+1}  the homology dimension
at i is dim C^i minus the ranks of the two adjacent matrices, so everything
reduces to GF(2) rank computations on the packed blocks.

skh and kh are invariants of the braid's conjugacy class, so they are
computed from the cube of a cyclically reduced conjugate (see
reduced_complex); the crossing limit still applies to the word as typed.
Each boundary block is packed, ranked and dropped in turn, so only one
block is held at a time.
"""

from __future__ import annotations

from .burau import _poly_str
from .cube import DEFAULT_MAX_CROSSINGS, AnnularComplex, CrossingLimitError, _shift_i, build_complex
from .diagram import closure_diagram
from .words import BraidWord

__all__ = [
    "reduced_complex",
    "homology_graded",
    "homology_full",
    "skh",
    "kh",
    "poincare_polynomial",
    "total_dim",
]


def reduced_complex(w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> AnnularComplex:
    """The complex of the closure of w.cyclic_reduce(), a conjugate of w.

    The crossing limit is applied to w as typed, so it does not depend on
    how far the word reduces; build_complex checks its circle bound on the
    diagram it builds.
    """
    if len(w) > max_crossings:
        raise CrossingLimitError(len(w), max_crossings, w.strands)
    return build_complex(closure_diagram(w.cyclic_reduce()), max_crossings=max_crossings)


def _block_ranks(dims: dict, blocks) -> dict:
    # blocks are (key, matrix) pairs; each is dropped once ranked
    ranks = {}
    for key, mat in blocks:
        ranks[key] = mat.rank()
        del mat
    out = {}
    for key, dim in dims.items():
        h = dim - ranks.get(key, 0) - ranks.get(_shift_i(key, -1), 0)
        if h:
            out[key] = h
    return out


def homology_graded(cx: AnnularComplex) -> dict[tuple[int, int, int], int]:
    """Annular homology dimensions keyed by (j, k, i), zeros omitted."""
    return _block_ranks(cx.graded_dims, cx.graded_blocks())


def homology_full(cx: AnnularComplex) -> dict[tuple[int, int], int]:
    """Ordinary Khovanov homology dimensions keyed by (j, i), zeros omitted."""
    return _block_ranks(cx.full_dims, cx.full_blocks())


def skh(
    w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> dict[tuple[int, int, int], int]:
    """Triple-graded annular homology of the closure, keyed by (i, j, k).

    Keys follow the reporting order (homological, quantum, annular); the
    internal block keys use (j, k, i).
    """
    cx = reduced_complex(w, max_crossings=max_crossings)
    return {(i, j, k): dim for (j, k, i), dim in homology_graded(cx).items()}


def kh(w: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> dict[tuple[int, int], int]:
    """Ordinary Khovanov homology of the closure over GF(2), keyed by (i, j)."""
    cx = reduced_complex(w, max_crossings=max_crossings)
    return {(i, j): dim for (j, i), dim in homology_full(cx).items()}


def total_dim(dims: dict) -> int:
    return sum(dims.values())


def poincare_polynomial(dims: dict) -> str:
    """Render graded dimensions as a polynomial string.

    Keys are (i, j) or (i, j, k) exponent tuples for the variables
    (t, q, a) and values are dimensions, printed as coefficients by the
    Burau polynomials' printer: terms are sorted by key, zeros are left
    out and factors within a term are joined with '*'; a bare coefficient
    stands alone, as in "q^-2*a^-2 + 2 + q^2*a^2". A negative
    coefficient, which no homology table holds, prints as "- 2*q".
    """
    return _poly_str([(key, c) for key, c in sorted(dims.items()) if c], "tqa")
