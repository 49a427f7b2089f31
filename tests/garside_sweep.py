"""Reference Garside normal form: the slide-until-nothing-moves sweep.

An independent, slow route to the left normal form, kept as the oracle that
`annkh.garside.left_normal_form` is compared against. Every crossing slide
builds a validated Permutation and recomputes two descent sets, and the
sweep repeats over all adjacent pairs until no pair moves, so it costs
about n^3 per factor on n strands; use it on small strand counts only.
"""

from __future__ import annotations

from annkh.garside import NormalForm
from annkh.words import BraidWord, Permutation


def _append_transposition(p: Permutation, i: int) -> Permutation:
    # p * s_i in apply-then order swaps the values i and i+1
    images = list(p.images)
    for pos, v in enumerate(images):
        if v == i:
            images[pos] = i + 1
        elif v == i + 1:
            images[pos] = i
    return Permutation(tuple(images))


def _strip_transposition(p: Permutation, i: int) -> Permutation:
    # s_i * p in apply-then order swaps the entries at positions i and i+1
    images = list(p.images)
    images[i], images[i + 1] = images[i + 1], images[i]
    return Permutation(tuple(images))


def _left_complement(p: Permutation, delta: Permutation) -> Permutation:
    # the permutation braid C with C * p = Delta, i.e. Delta * p^-1
    return delta * p.inverse()


def _normalize(n: int, factors: list[Permutation]) -> tuple[int, tuple[Permutation, ...]]:
    """Left-weight a sequence of permutation-braid factors.

    Repeated local moves: whenever some sigma_s starts the right factor of
    an adjacent pair but does not finish the left one, slide it across.
    Each move shifts one crossing strictly leftward so the sweep
    terminates; half twists pile up at the front and are absorbed into the
    Delta power, trivial factors are dropped.
    """
    delta = Permutation.longest(n)
    fs = [f for f in factors if not f.is_identity()]
    changed = True
    while changed:
        changed = False
        for t in range(len(fs) - 1):
            x, y = fs[t], fs[t + 1]
            moved = False
            extra = y.descents() - x.inverse().descents()
            while extra:
                s = min(extra)
                x = _append_transposition(x, s)
                y = _strip_transposition(y, s)
                moved = True
                if y.is_identity():
                    break
                extra = y.descents() - x.inverse().descents()
            if moved:
                fs[t], fs[t + 1] = x, y
                changed = True
        if changed:
            fs = [f for f in fs if not f.is_identity()]
    p = 0
    while fs and fs[0] == delta:
        fs.pop(0)
        p += 1
    return p, tuple(fs)


def sweep_normal_form(w: BraidWord) -> NormalForm:
    """The left normal form of w, by the sweep above."""
    n = w.strands
    if n == 1:
        return NormalForm(1, 0, ())
    delta = Permutation.longest(n)
    factors: list[Permutation] = []
    powers: list[int] = []
    for g in w.letters:
        s = Permutation.transposition(n, abs(g) - 1)
        if g > 0:
            factors.append(s)
            powers.append(0)
        else:
            factors.append(_left_complement(s, delta))
            powers.append(-1)
    # push the Delta^-1 powers to the front; tau = conjugation by Delta has
    # order two on permutations, so only the parity of the exponent matters
    exponent = 0
    for idx in range(len(factors) - 1, -1, -1):
        if exponent % 2:
            factors[idx] = delta * factors[idx] * delta
        exponent += powers[idx]
    extra, fs = _normalize(n, factors)
    return NormalForm(n, exponent + extra, fs)
