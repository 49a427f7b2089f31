import random

import numpy as np
import pytest

from annkh.gf2 import F2Matrix, pack_unit_row


def naive_rank(rows_as_ints):
    pivots = []
    rank = 0
    for row in rows_as_ints:
        cur = row
        for pbit, prow in pivots:
            if (cur >> pbit) & 1:
                cur ^= prow
        if cur:
            pivots.append((cur.bit_length() - 1, cur))
            rank += 1
    return rank


def from_bits(rows, cols):
    dense = np.zeros((len(rows), cols), dtype=np.uint8)
    for r, bits in enumerate(rows):
        for c in range(cols):
            dense[r, c] = (bits >> c) & 1
    return F2Matrix.from_dense(dense)


def test_identity_rank():
    m = from_bits([1, 2, 4], 3)
    assert m.rank() == 3


def test_dependent_rows():
    m = from_bits([0b011, 0b101, 0b110], 3)
    assert m.rank() == 2
    m = from_bits([0b11, 0b11, 0b00], 2)
    assert m.rank() == 1


def test_rank_matches_naive_on_randoms():
    rng = random.Random(1234)
    for _ in range(200):
        rows = rng.randint(0, 12)
        cols = rng.randint(1, 70)
        ints = [rng.getrandbits(cols) for _ in range(rows)]
        assert from_bits(ints, cols).rank() == naive_rank(ints)


def test_row_in_span():
    m = from_bits([0b011, 0b110], 3)
    assert m.row_in_span(pack_unit_row(3, 0) ^ pack_unit_row(3, 1))
    assert not m.row_in_span(pack_unit_row(3, 0))
    # XOR of the two rows
    assert m.row_in_span(np.array([5], dtype=np.uint8))  # 0b101
    # zero vector always in span
    assert m.row_in_span(np.zeros(1, dtype=np.uint8))


def test_row_in_span_matches_rank_difference():
    rng = random.Random(5)
    answers = []
    for _ in range(200):
        rows, cols = rng.randint(0, 30), rng.randint(1, 40)
        density = rng.choice((0.05, 0.2, 0.5))
        dense = np.array(
            [[rng.random() < density for _ in range(cols)] for _ in range(rows)], dtype=np.uint8
        ).reshape(rows, cols)
        m = F2Matrix.from_dense(dense)
        extra = from_bits([rng.getrandbits(cols)], cols).data[0]
        if rng.random() < 0.3:
            # a sum of rows always lies in the span
            extra = np.zeros_like(extra)
            for r in range(rows):
                if rng.random() < 0.5:
                    extra ^= m.data[r]
        answers.append(m.row_in_span(extra))
        stacked = F2Matrix(rows + 1, cols, np.vstack([m.data, extra[None, :]]))
        assert answers[-1] == (stacked.rank() == m.rank())
    assert 40 < sum(answers) < 160


def test_row_is_zero():
    m = from_bits([0b00, 0b10], 2)
    assert m.row_is_zero(0)
    assert not m.row_is_zero(1)


def test_from_entries_matches_dense():
    rng = random.Random(77)
    for _ in range(50):
        rows = rng.randint(1, 40)
        cols = rng.randint(1, 40)
        count = rng.randint(0, rows * cols // 2)
        seen = set()
        while len(seen) < count:
            seen.add((rng.randrange(rows), rng.randrange(cols)))
        rr = np.array([p[0] for p in seen], dtype=np.int64)
        cc = np.array([p[1] for p in seen], dtype=np.int64)
        m = F2Matrix.from_entries(rows, cols, rr, cc)
        dense = np.zeros((rows, cols), dtype=np.uint8)
        dense[rr, cc] = 1
        assert np.array_equal(m.to_dense(), dense)


def test_from_entries_bounds():
    with pytest.raises(ValueError):
        F2Matrix.from_entries(2, 2, np.array([2]), np.array([0]))
    with pytest.raises(ValueError):
        F2Matrix.from_entries(2, 2, np.array([0]), np.array([-1]))


def test_compose_is_zero():
    a = from_bits([0b01, 0b10], 2)  # identity
    b = from_bits([0b1, 0b1], 1)
    assert not a.compose_is_zero(b)
    z = from_bits([0b11, 0b11], 2)  # rows sum to zero against b
    assert z.compose_is_zero(b)


def test_compose_shape_check():
    a = from_bits([0b1], 1)
    b = from_bits([0b1, 0b1], 1)
    with pytest.raises(ValueError):
        a.compose_is_zero(b)


def test_empty_matrices():
    m = F2Matrix.zeros(0, 5)
    assert m.rank() == 0
    assert not m.row_in_span(pack_unit_row(5, 2))
    m = F2Matrix.zeros(3, 0)
    assert m.rank() == 0
