import random

import pytest

from annkh.burau import (
    BivariatePoly,
    LaurentMatrix,
    LaurentPoly,
    bigelow_kernel_word,
    burau_kernel_check,
    burau_matrix,
    char_poly,
    laurent_det,
)
from annkh.garside import words_equal
from annkh.words import BraidWord, parse_word


def random_word(rng, n, max_len):
    alphabet = [g for g in range(-(n - 1), n) if g != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


def test_laurent_arithmetic():
    one = LaurentPoly.const(1)
    t = LaurentPoly.t_power(1)
    p = one.sub(t)
    assert str(p) == "1 - T"
    assert str(p.mul(p)) == "1 - 2*T + T^2"
    assert p.sub(p).is_zero()
    assert str(LaurentPoly.t_power(-1)) == "T^-1"
    assert LaurentPoly.const(0).is_zero()
    assert one.is_one()
    assert str(t.neg()) == "-T"


def test_generator_matrix_and_inverse():
    m = burau_matrix(parse_word("1"))
    assert [[str(e) for e in row] for row in m.entries] == [["1 - T", "T"], ["1", "0"]]
    assert burau_matrix(parse_word("1 -1")).is_identity()
    assert burau_matrix(parse_word("-1 1")).is_identity()
    assert burau_matrix(BraidWord(3, ())).is_identity()


def _letter_matrix(n, g):
    # explicit n x n matrix of one letter; block at (a, a+1) per the module convention
    one, zero, t = LaurentPoly.const(1), LaurentPoly(), LaurentPoly.t_power(1)
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    a = abs(g) - 1
    if g > 0:
        block = [[one.sub(t), t], [one, zero]]
    else:
        t_inv = LaurentPoly.t_power(-1)
        block = [[zero, one], [t_inv, one.sub(t_inv)]]
    for i in range(2):
        for j in range(2):
            rows[a + i][a + j] = block[i][j]
    return rows


def _matmul(x, y):
    n = len(x)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = LaurentPoly()
            for m in range(n):
                acc = acc.add(x[r][m].mul(y[m][c]))
            row.append(acc)
        out.append(row)
    return out


def test_burau_matrix_is_the_product_of_its_letters():
    rng = random.Random(29)
    words = [BraidWord(n, (g,)) for n in range(2, 7) for g in range(-(n - 1), n) if g]
    words += [random_word(rng, rng.randint(2, 6), 12) for _ in range(60)]
    for w in words:
        expected = [list(row) for row in LaurentMatrix.identity(w.strands).entries]
        for g in w.letters:
            expected = _matmul(expected, _letter_matrix(w.strands, g))
        assert [list(row) for row in burau_matrix(w).entries] == expected, w


def test_the_shapes_the_benchmark_reads():
    rng = random.Random(31)
    for _ in range(10):
        w = random_word(rng, rng.randint(2, 5), 10)
        m = burau_matrix(w)
        polys = [laurent_det(m)] + [e for row in m.entries for e in row]
        for p in polys:
            assert type(p) is LaurentPoly
            assert isinstance(p.terms, tuple)
            for e, c in p.terms:
                assert type(e) is int and type(c) is int
        cp = char_poly(m)
        lam = type(cp).lam()
        assert type(cp) is BivariatePoly
        assert cp.add(lam).sub(cp) == lam
    assert LaurentPoly() != BivariatePoly()
    assert LaurentPoly.const(1) != BivariatePoly.from_dict({(0, 0): 1})
    # the same terms tuple in two classes
    assert LaurentPoly.t_power(1) != BivariatePoly.from_dict({1: 1})
    assert len({LaurentPoly(), BivariatePoly()}) == 2


def test_braid_relations_symbolically():
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) == 1:
                    lhs = burau_matrix(BraidWord(n, (i, j, i)))
                    rhs = burau_matrix(BraidWord(n, (j, i, j)))
                elif abs(i - j) >= 2:
                    lhs = burau_matrix(BraidWord(n, (i, j)))
                    rhs = burau_matrix(BraidWord(n, (j, i)))
                else:
                    continue
                assert lhs == rhs, (n, i, j)


def test_determinant_tracks_writhe():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 5)
        w = random_word(rng, n, 8)
        e = w.writhe()
        expected = LaurentPoly.t_power(e, 1 if e % 2 == 0 else -1)
        assert laurent_det(burau_matrix(w)) == expected, w


def test_char_poly_examples():
    cp = char_poly(burau_matrix(parse_word("1")))
    # L^2 - (1 - T)L - T
    assert cp == BivariatePoly.from_dict({(2, 0): 1, (1, 0): -1, (1, 1): 1, (0, 1): -1})
    assert str(cp) == "L^2 - L + L*T - T"
    for n in range(1, 6):
        cp = char_poly(LaurentMatrix.identity(n))
        expected = BivariatePoly.from_dict(
            {(m, 0): (-1) ** (n - m) * _binom(n, m) for m in range(n + 1)}
        )
        assert cp == expected, n


def _binom(n, m):
    import math

    return math.comb(n, m)


def test_char_poly_braid_relation_and_conjugation():
    assert char_poly(burau_matrix(parse_word("1 2 1"))) == char_poly(
        burau_matrix(parse_word("2 1 2"))
    )
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        w = random_word(rng, n, 5)
        u = random_word(rng, n, 3)
        conj = u.concat(w).concat(u.inverse())
        assert char_poly(burau_matrix(conj)) == char_poly(burau_matrix(w)), (w, u)


def test_kernel_check_basics():
    assert burau_kernel_check(BraidWord(4, ()))
    assert not burau_kernel_check(parse_word("1"))
    assert burau_kernel_check(parse_word("1 -1 2 -2", strands=3))


def test_bigelow_word_is_in_the_kernel_but_nontrivial():
    w = bigelow_kernel_word()
    assert w.strands == 5
    assert len(w.letters) == 122
    assert w.writhe() == 0
    assert w.is_pure()
    assert burau_kernel_check(w)
    assert not words_equal(w, BraidWord(5, ()))


def test_bivariate_str_order():
    p = BivariatePoly.from_dict({(0, 0): -1, (2, 0): 1, (1, -1): 3})
    assert str(p) == "L^2 + 3*L*T^-1 - 1"
    assert str(BivariatePoly()) == "0"


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        LaurentMatrix(((LaurentPoly.const(1),), ()))
