"""Exact word-problem oracle via Garside left normal form.

Every braid has a unique expression Delta^p A_1 ... A_m where Delta is the
half twist, each factor A_t is a permutation braid (a positive braid in
which any two strands cross at most once, so factors are stored as plain
permutations), no factor is trivial or Delta, and adjacent factors are
left-weighted: the starting set of A_{t+1} is contained in the finishing
set of A_t. Two words are equal in the braid group exactly when these
normal forms coincide, which gives a decision procedure that is completely
independent of the homological route.

Permutation-braid bookkeeping, in the left-to-right composition convention
of words.Permutation:

* starting set  S(x) = {i : x = sigma_i * (positive)}  = descents of x
* finishing set F(x) = {i : x = (positive) * sigma_i}  = descents of x^-1
* sigma_i^-1 = Delta^-1 * (Delta s_i); pushing all Delta^-1 powers to the
  front conjugates earlier factors by Delta, which maps s_i to s_{n-2-i}.

The normal form is built in one left-to-right pass (Epstein et al., "Word
Processing in Groups", ch. 9; El-Rifai and Morton 1994): each letter's
factor is appended to the left-weighted factors so far, and adjacent pairs
are left-weighted leftward from the new factor until a pair does not move.
Factors are plain tuples until the result is returned. A pair (x, y) is
left-weighted by sliding sigma_s from the front of y to the back of x while
s is in S(y) but not in F(x), with positions taken from a worklist: a
slide at s can only make s-1 and s+1 candidates, so the cost of a pair is
one O(n) scan plus O(1) per crossing moved, and since the left-weighted
pair is unique the worklist order does not change the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Permutation

__all__ = ["NormalForm", "left_normal_form", "words_equal", "is_left_weighted"]


@dataclass(frozen=True)
class NormalForm:
    """Left normal form Delta^infimum * factors, on a fixed strand count."""

    strands: int
    infimum: int
    factors: tuple[Permutation, ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return self.infimum == 0 and not self.factors

    def permutation(self) -> Permutation:
        """Underlying permutation, a consistency hook for tests."""
        acc = Permutation.longest(self.strands) if self.infimum % 2 else Permutation.identity(self.strands)
        for f in self.factors:
            acc = acc * f
        return acc


def _inverse(p) -> list[int]:
    inv = [0] * len(p)
    for pos, v in enumerate(p):
        inv[v] = pos
    return inv


def _left_weight(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The left-weighted pair (x', y') with x' y' = x y, or None if (x, y) is one.

    Works on x^-1, so that moving sigma_s from y to x swaps the entries at
    s and s+1 of both lists; a worklist entry is checked again when popped.
    """
    xinv, y = _inverse(x), list(y)
    last = len(y) - 2
    todo = [i for i in range(last + 1) if y[i] > y[i + 1] and xinv[i] < xinv[i + 1]]
    if not todo:
        return None
    while todo:
        s = todo.pop()
        if y[s] > y[s + 1] and xinv[s] < xinv[s + 1]:
            y[s], y[s + 1] = y[s + 1], y[s]
            xinv[s], xinv[s + 1] = xinv[s + 1], xinv[s]
            if s > 0:
                todo.append(s - 1)
            if s < last:
                todo.append(s + 1)
    return tuple(_inverse(xinv)), tuple(y)


def left_normal_form(w: BraidWord) -> NormalForm:
    n = w.strands
    identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
    # with every Delta^-1 at the front, a letter has been conjugated by
    # Delta once per negative letter after it
    negatives = flips = sum(g < 0 for g in w.letters)
    fs: list[tuple[int, ...]] = []
    for g in w.letters:
        flips -= g < 0
        i = abs(g) - 1 if flips % 2 == 0 else n - 1 - abs(g)
        # s_i swaps the entries at i and i+1, Delta s_i the values i and i+1
        f, pos = (list(identity), i) if g > 0 else (list(delta), n - 2 - i)
        f[pos], f[pos + 1] = f[pos + 1], f[pos]
        fs.append(tuple(f))
        t = len(fs) - 1
        while t > 0 and (pair := _left_weight(fs[t - 1], fs[t])) is not None:
            fs[t - 1], fs[t] = pair
            t -= 1
        # only a suffix can become trivial: (1, y) is left-weighted only if y = 1
        while fs and fs[-1] == identity:
            fs.pop()
    p = 0
    while p < len(fs) and fs[p] == delta:
        p += 1
    return NormalForm(n, p - negatives, tuple(Permutation(f) for f in fs[p:]))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Group-theoretic equality test: the normal form of w1 w2^-1 is trivial."""
    if w1.strands != w2.strands:
        raise ValueError("words live on different strand counts")
    return left_normal_form(w1.concat(w2.inverse())).is_trivial()


def is_left_weighted(nf: NormalForm) -> bool:
    """Validity of a normal form: no trivial or Delta factor, adjacency condition."""
    delta = Permutation.longest(nf.strands)
    for f in nf.factors:
        if f.is_identity() or f == delta:
            return False
    for x, y in zip(nf.factors, nf.factors[1:]):
        if not y.descents() <= x.inverse().descents():
            return False
    return True
