"""Dense GF(2) matrices with bit-packed rows.

Rows are packed eight columns to a byte (little bit order, so column c
lives at bit c & 7 of byte c >> 3). Rank is computed by Gaussian
elimination pivoting on columns in index order, which makes every result
deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["F2Matrix", "pack_unit_row"]


def _width(cols: int) -> int:
    return (cols + 7) >> 3


def pack_unit_row(cols: int, pos: int) -> np.ndarray:
    """The packed standard basis row e_pos of length cols."""
    if not 0 <= pos < cols:
        raise ValueError(f"position {pos} out of range for {cols} columns")
    row = np.zeros(_width(cols), dtype=np.uint8)
    row[pos >> 3] = np.uint8(1) << np.uint8(pos & 7)
    return row


class F2Matrix:
    """A rows x cols matrix over GF(2), rows stored as packed bitsets."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray):
        if data.shape != (rows, _width(cols)):
            raise ValueError("packed data has the wrong shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, np.zeros((rows, _width(cols)), dtype=np.uint8))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "F2Matrix":
        dense = np.asarray(dense, dtype=np.uint8) & 1
        rows, cols = dense.shape
        return cls(rows, cols, np.packbits(dense, axis=1, bitorder="little"))

    @classmethod
    def from_entries(cls, rows: int, cols: int, rIdx: np.ndarray, cIdx: np.ndarray) -> "F2Matrix":
        """Build from coordinate lists; repeated entries are OR-ed, not added."""
        rIdx = np.asarray(rIdx, dtype=np.int64)
        cIdx = np.asarray(cIdx, dtype=np.int64)
        if rIdx.size and (rIdx.min() < 0 or rIdx.max() >= rows or cIdx.min() < 0 or cIdx.max() >= cols):
            raise ValueError("entry index out of range")
        data = np.zeros((rows, _width(cols)), dtype=np.uint8)
        np.bitwise_or.at(data, (rIdx, cIdx >> 3), np.uint8(1) << (cIdx & 7).astype(np.uint8))
        return cls(rows, cols, data)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.data, axis=1, bitorder="little", count=self.cols)

    def row_is_zero(self, r: int) -> bool:
        return not self.data[r].any()

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return len(_eliminate(self.data.copy(), self.cols))

    def row_in_span(self, extra: np.ndarray) -> bool:
        """Is the packed row in the row space of this matrix?

        One elimination brings the rows to echelon form; the extra row is
        reduced against them in pivot order and lies in the span exactly
        when nothing is left.
        """
        if not extra.any():
            return True
        work = self.data.copy()
        pivots = _eliminate(work, self.cols)
        rest = extra.copy()
        for row, col in zip(work, pivots):
            if (rest[col >> 3] >> (col & 7)) & 1:
                rest ^= row
        return not rest.any()

    def compose_is_zero(self, other: "F2Matrix") -> bool:
        """Is the product self (R x M) times other (M x C) the zero matrix?"""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in composition")
        for r in range(self.rows):
            bits = np.flatnonzero(
                np.unpackbits(self.data[r], bitorder="little", count=self.cols)
            )
            if bits.size and np.bitwise_xor.reduce(other.data[bits], axis=0).any():
                return False
        return True


def _eliminate(work: np.ndarray, cols: int) -> list[int]:
    """Row-reduce work in place to echelon form; return its pivot columns.

    Row t of the result starts at column pivots[t] and is zero at every
    earlier pivot column, so the rank is the number of pivots.
    """
    nrows = work.shape[0]
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        if r == nrows:
            break
        byte, bit = col >> 3, np.uint8(col & 7)
        live = np.flatnonzero((work[r:, byte] >> bit) & 1)
        if live.size == 0:
            continue
        pivot = r + live[0]
        if pivot != r:
            work[[r, pivot]] = work[[pivot, r]]
        below = live[1:] + r
        if below.size:
            work[below] ^= work[r]
        pivots.append(col)
        r += 1
    return pivots
