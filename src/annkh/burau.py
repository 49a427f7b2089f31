"""Unreduced Burau matrices over exact integer Laurent polynomials.

Convention (conventions vary in the literature, so it is fixed here once):
the generator at strands (i, i+1) maps to the identity except for the
2x2 block

    [[1 - T, T],
     [1,     0]]

whose determinant is -T; the inverse generator's block is
[[0, 1], [T^-1, 1 - T^-1]]. Words map to ordered products, first letter
leftmost; each letter rewrites only the two columns it touches.
Characteristic polynomials det(L*I - M) are computed over the exact
bivariate ring Z[L, T^{+-1}] by subset expansion; L is the eigenvalue
variable. `LaurentPoly` (in T) and `BivariatePoly` (in L and T) share one
sparse arithmetic, `_Poly`, and differ only in how exponents add, their
constructors and their print orders. All arithmetic is arbitrary-precision
integer, no floating point anywhere.

The representation is famously non-injective for five or more strands;
a five-strand kernel word taken verbatim from Bigelow, "The Burau
representation is not faithful for n >= 5", Geom. Topol. 3 (1999) 397-404,
ships as a fixture so the defect is demonstrable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord

__all__ = [
    "MAX_DET_SIZE",
    "LaurentPoly",
    "LaurentMatrix",
    "BivariatePoly",
    "burau_matrix",
    "laurent_det",
    "char_poly",
    "burau_kernel_check",
    "bigelow_kernel_word",
]


def _canon(d: dict) -> tuple:
    return tuple(sorted((e, c) for e, c in d.items() if c))


@dataclass(frozen=True)
class _Poly:
    """Sparse integer polynomial: sorted (exponent, coeff) pairs, no zeros.

    The arithmetic lives here once. A subclass says only how its exponents
    add (`_shift(e, exps)` adds e to each of exps), how to build its
    constants and how it prints. Results keep the class of the left
    operand, and values of different subclasses never compare equal.
    """

    terms: tuple = ()

    @classmethod
    def from_dict(cls, d: dict):
        return cls(_canon(d))

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other):
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return type(self)(_canon(d))

    def neg(self):
        return type(self)(tuple((e, -c) for e, c in self.terms))

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        shift = self._shift
        exps = [e for e, _ in other.terms]
        coeffs = [c for _, c in other.terms]
        d: dict = {}
        get = d.get
        for e1, c1 in self.terms:
            for e, c2 in zip(shift(e1, exps), coeffs):
                d[e] = get(e, 0) + c1 * c2
        return type(self)(_canon(d))


class LaurentPoly(_Poly):
    """Integer Laurent polynomial in T; terms are (T-exponent, coeff)."""

    @staticmethod
    def _shift(e: int, exps: list[int]) -> list[int]:
        return [e + x for x in exps]

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls(((0, c),) if c else ())

    @classmethod
    def t_power(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls(((e, c),) if c else ())

    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    def __str__(self) -> str:
        return _poly_str(sorted(self.terms), _t_monomial)


class BivariatePoly(_Poly):
    """Integer polynomial in L (eigenvalue variable) and T^{+-1}.

    Terms are ((L-exponent, T-exponent), coefficient); canonical print
    order is descending in L, then ascending in T.
    """

    @staticmethod
    def _shift(e: tuple[int, int], exps: list[tuple[int, int]]) -> list[tuple[int, int]]:
        le, te = e
        return [(le + a, te + b) for a, b in exps]

    @classmethod
    def from_laurent(cls, p: LaurentPoly, lexp: int = 0) -> "BivariatePoly":
        return cls(tuple(((lexp, e), c) for e, c in p.terms))

    @classmethod
    def lam(cls) -> "BivariatePoly":
        return cls((((1, 0), 1),))

    def __str__(self) -> str:
        ordered = sorted(self.terms, key=lambda item: (-item[0][0], item[0][1]))
        return _poly_str(ordered, lambda e: _lt_monomial(*e))


def _t_monomial(e: int) -> str:
    if e == 0:
        return ""
    return "T" if e == 1 else f"T^{e}"


def _lt_monomial(le: int, te: int) -> str:
    parts = []
    if le:
        parts.append("L" if le == 1 else f"L^{le}")
    if te:
        parts.append("T" if te == 1 else f"T^{te}")
    return "*".join(parts)


def _poly_str(terms, mono) -> str:
    """Print (exponent, coeff) terms in the order given."""
    pieces = []
    for e, c in terms:
        m = mono(e)
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = m
        else:
            body = f"{abs(c)}*{m}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_ZERO = LaurentPoly()
_ONE = LaurentPoly.const(1)


@dataclass(frozen=True)
class LaurentMatrix:
    """Square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls(tuple(tuple(_ONE if r == c else _ZERO for c in range(n)) for r in range(n)))

    def is_identity(self) -> bool:
        return self == LaurentMatrix.identity(self.n)


_T = LaurentPoly.t_power(1)
_T_INV = LaurentPoly.t_power(-1)
_ONE_MINUS_T = LaurentPoly.from_dict({0: 1, 1: -1})
_ONE_MINUS_T_INV = LaurentPoly.from_dict({0: 1, -1: -1})


def burau_matrix(w: BraidWord) -> LaurentMatrix:
    """The product of the letters' matrices, first letter leftmost.

    Right-multiplying by a letter at strands (a+1, a+2) changes only
    columns a and a+1 of the product: in each row, sigma maps the pair
    (x, y) to ((1 - T)x + y, Tx) and its inverse maps it to
    (T^-1 y, x + (1 - T^-1)y).
    """
    rows = [list(row) for row in LaurentMatrix.identity(w.strands).entries]
    for g in w.letters:
        a = abs(g) - 1
        for row in rows:
            x, y = row[a], row[a + 1]
            if g > 0:
                row[a], row[a + 1] = _ONE_MINUS_T.mul(x).add(y), _T.mul(x)
            else:
                row[a], row[a + 1] = _T_INV.mul(y), x.add(_ONE_MINUS_T_INV.mul(y))
    return LaurentMatrix(tuple(tuple(row) for row in rows))


# The subset expansion holds 2^n minors and its time grows about 4x every
# two rows, so larger matrices are refused before it allocates them.
MAX_DET_SIZE = 20


def _subset_det(rows, one, zero):
    # D[mask] = det of the submatrix on the first popcount(mask) rows and
    # the columns of mask; masks visit in increasing order so the smaller
    # subsets are always ready.
    n = len(rows)
    if n > MAX_DET_SIZE:
        raise ValueError(
            f"determinant of a {n}x{n} matrix is refused: the subset expansion "
            f"is limited to {MAX_DET_SIZE} rows"
        )
    full = (1 << n) - 1
    dets = [None] * (full + 1)
    dets[0] = one
    for mask in range(1, full + 1):
        r = mask.bit_count() - 1
        acc = zero
        t = 0
        rest = mask
        while rest:
            bit = rest & -rest
            c = bit.bit_length() - 1
            term = rows[r][c].mul(dets[mask ^ bit])
            acc = acc.add(term) if (r + t) % 2 == 0 else acc.sub(term)
            rest ^= bit
            t += 1
        dets[mask] = acc
    return dets[full]


def laurent_det(m: LaurentMatrix) -> LaurentPoly:
    return _subset_det(m.entries, _ONE, _ZERO)


def char_poly(m: LaurentMatrix) -> BivariatePoly:
    """det(L*I - M) over Z[L, T^{+-1}], exact."""
    lam = BivariatePoly.lam()
    rows = []
    for r in range(m.n):
        row = []
        for c in range(m.n):
            entry = BivariatePoly.from_laurent(m.entries[r][c]).neg()
            if r == c:
                entry = entry.add(lam)
            row.append(entry)
        rows.append(row)
    return _subset_det(rows, BivariatePoly.from_dict({(0, 0): 1}), BivariatePoly())


def burau_kernel_check(w: BraidWord) -> bool:
    """True iff the word's Burau matrix is the identity."""
    return burau_matrix(w).is_identity()


def _inv(seq: list[int]) -> list[int]:
    return [-g for g in reversed(seq)]


def bigelow_kernel_word() -> BraidWord:
    """A nontrivial five-strand braid word with identity Burau matrix.

    Taken verbatim from Bigelow, Geom. Topol. 3 (1999) 397-404: with
    psi1 = s3^-1 s2 s1^2 s2 s4^3 s3 s2 and
    psi2 = s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5, the commutator
    [psi1^-1 s4 psi1, psi2^-1 (s4 s3 s2 s1^2 s2 s3 s4) psi2] lies in the
    kernel. The word is far beyond the resolution cube's reach (122
    crossings), so only its matrix image and Garside normal form are
    checkable here.
    """
    psi1 = [-3, 2, 1, 1, 2, 4, 4, 4, 3, 2]
    psi2 = [-4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4]
    a = _inv(psi1) + [4] + psi1
    b = _inv(psi2) + [4, 3, 2, 1, 1, 2, 3, 4] + psi2
    return BraidWord(5, tuple(a + b + _inv(a) + _inv(b)))
