import os
from pathlib import Path

import pytest

from annkh import build_complex, closure_diagram, homology_full, homology_graded
from annkh.words import BraidWord

# tests that start `python -m annkh.cli` need the source tree on the path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# shared corpus: (strands, letters), all at most 8 crossings so the
# exhaustive d-squared checks stay cheap
FIXTURE_WORDS = [
    (1, ()),
    (2, ()),
    (3, ()),
    (4, ()),
    (2, (1,)),
    (2, (-1,)),
    (2, (1, -1)),
    (2, (1, 1)),
    (2, (1, 1, 1)),
    (2, (-1, -1, -1)),
    (3, (1, 2, 1)),
    (3, (-1, -2, -1)),
    (3, (1, -2)),
    (3, (1, -2, 1, -2)),
    (3, (1, 1, -2)),
    (3, (2, -1, 2, 1)),
    (3, (1, 2, 1, 2, 1, 2)),
    (3, (1, 1, 2, 2, -1, -1)),
    (4, (1, -2, 3)),
    (4, (-1, 2, -3, 2)),
    (4, (1, 2, 3, 1, 2, 1)),
    (4, (3, -2, 1, -2, 3, -2)),
]


def fixture_word(n, letters) -> BraidWord:
    return BraidWord(n, tuple(letters))


@pytest.fixture(scope="session")
def fixture_complexes():
    """Complex plus both homology tables for every corpus word, built once."""
    out = {}
    for n, letters in FIXTURE_WORDS:
        w = fixture_word(n, letters)
        cx = build_complex(closure_diagram(w))
        graded = {(i, j, k): d for (j, k, i), d in homology_graded(cx).items()}
        full = {(i, j): d for (j, i), d in homology_full(cx).items()}
        out[(n, letters)] = (w, cx, graded, full)
    return out
