"""Braid words, permutations, and the elementary word operations.

Conventions used throughout the package:

* A braid on n strands is a word in the generators sigma_1 .. sigma_{n-1}.
  The integer letter +g encodes sigma_g and -g encodes its inverse.
* Words are read top to bottom: the first letter is the crossing nearest the
  top of the braid, and the letter g crosses whatever strands currently sit
  in positions |g| and |g|+1.
* Permutations compose left to right, matching the stacking of braids, so
  the underlying permutation of a concatenation is the product of the two
  underlying permutations in the same order.
* The strand count is part of the value. The empty word on 3 strands and
  the empty word on 4 strands are different braids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["MAX_WORD_LETTERS", "Permutation", "BraidWord", "parse_word"]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}; images[p] is the image of p.

    Products compose left to right: (p * q) means "apply p, then q".
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The adjacent transposition swapping positions i and i+1 (0-based)."""
        if not 0 <= i < n - 1:
            raise ValueError(f"transposition index {i} out of range for n={n}")
        images = list(range(n))
        images[i], images[i + 1] = images[i + 1], images[i]
        return Permutation(tuple(images))

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing permutation, i.e. the half twist on n strands."""
        return Permutation(tuple(range(n - 1, -1, -1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(other.images[v] for v in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for p, v in enumerate(self.images):
            images[v] = p
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(v == p for p, v in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, fixed points included, each cycle led by its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return tuple(out)

    def num_cycles(self) -> int:
        return len(self.cycles())

    def descents(self) -> frozenset[int]:
        """Positions i with images[i] > images[i+1]."""
        return frozenset(i for i in range(self.n - 1) if self.images[i] > self.images[i + 1])


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count plus a tuple of nonzero generator letters."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be at least 1, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) > self.strands - 1:
                raise ValueError(
                    f"letter {g} is not a valid generator index on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def as_text(self) -> str:
        """The wire format accepted back by parse_word."""
        return " ".join(str(g) for g in self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-g for g in reversed(self.letters)))

    def reverse(self) -> "BraidWord":
        """The same letters read back to front, signs kept."""
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def mirror(self) -> "BraidWord":
        """Flip every crossing, keeping the order."""
        return BraidWord(self.strands, tuple(-g for g in self.letters))

    def concat(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError(
                f"cannot concatenate words on {self.strands} and {other.strands} strands"
            )
        return BraidWord(self.strands, self.letters + other.letters)

    def permutation(self) -> Permutation:
        """Where each top position ends up at the bottom of the braid."""
        # Track occupants (which strand sits at each position) with O(1)
        # swaps per crossing, then invert: occupant tracking computes the
        # inverse of the strand-to-endpoint map.
        occupant = list(range(self.strands))
        for g in self.letters:
            i = abs(g) - 1
            occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
        images = [0] * self.strands
        for pos, strand in enumerate(occupant):
            images[strand] = pos
        return Permutation(tuple(images))

    def is_pure(self) -> bool:
        return self.permutation().is_identity()

    def closure_components(self) -> int:
        """Number of link components of the closure: cycles of the permutation."""
        return self.permutation().num_cycles()

    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent sigma sigma^-1 pairs until none remain."""
        stack: list[int] = []
        for g in self.letters:
            if stack and stack[-1] == -g:
                stack.pop()
            else:
                stack.append(g)
        return BraidWord(self.strands, tuple(stack))

    def cyclic_reduce(self) -> "BraidWord":
        """A word for a conjugate of this braid with no cancellable pair left.

        A letter g cancels against the next letter, read cyclically, that
        does not commute with it (index distance below 2) whenever that
        letter is -g. Each cancellation is a free cancellation after far
        commutations, possibly after a cyclic rotation, so the strand
        count, the writhe and the annular closure up to isotopy are
        unchanged.
        """
        letters = list(self.letters)
        p = 0
        while p < len(letters):
            g, n = letters[p], len(letters)
            ahead = ((p + step) % n for step in range(1, n))
            q = next((q for q in ahead if abs(abs(letters[q]) - abs(g)) < 2), p)
            if letters[q] == -g:
                del letters[max(p, q)], letters[min(p, q)]
                p = 0
            else:
                p += 1
        return BraidWord(self.strands, tuple(letters))


_TOKEN = re.compile(r"([+-]?\d+)(?:\^([+-]?\d+))?\Z")

# Checked before powers are expanded, so that a token such as 1^1000000000
# cannot exhaust memory; far above the longest fixture or benchmark word
# (200 letters), and its tuple of letters stays under a megabyte.
MAX_WORD_LETTERS = 100_000


def parse_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse the textual word grammar: signed indices with optional ^power.

    "1 -2 1^3" means sigma_1 sigma_2^-1 sigma_1^3; "2^-2" expands to two
    copies of sigma_2^-1. Tokens are separated by whitespace or commas.
    A word of more than MAX_WORD_LETTERS letters is refused before any
    power is expanded. The strand count defaults to (max |index|) + 1, or
    to the explicit argument when that is larger; an explicit count too
    small for some letter is an error.
    """
    powers: list[tuple[int, int]] = []
    for token in re.split(r"[,\s]+", text.strip()):
        if not token:
            continue
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad braid letter token {token!r}")
        g = int(m.group(1))
        if g == 0:
            raise ValueError("generator index 0 is not a braid letter")
        power = int(m.group(2)) if m.group(2) is not None else 1
        if power < 0:
            g, power = -g, -power
        powers.append((g, power))
    total = sum(power for _, power in powers)
    if total > MAX_WORD_LETTERS:
        raise ValueError(f"word has more than {MAX_WORD_LETTERS} letters")
    letters = [g for g, power in powers for _ in range(power)]
    required = max((abs(g) for g in letters), default=0) + 1
    if strands is None:
        strands = max(required, 1)
    elif strands < required:
        raise ValueError(
            f"word needs at least {required} strands but {strands} were requested"
        )
    return BraidWord(strands, tuple(letters))
