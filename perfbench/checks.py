"""Checks of each operation's output that do not trust the engine.

Every checker returns a list of problems; an empty list means the output
passed. The tables are checked against identities that hold for every
braid closure, with the graded Euler characteristic taken from the
independent census; verdicts are checked against how each input was built
and against theorems about the transverse class; the oracles are checked
against the invariance of the Burau matrix and of the Garside normal form
under braid relations, which the program has to get right in its own way.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import comb

from census import vertex_census


def _poly_add(acc: Counter, key, coeff: int) -> None:
    acc[key] += coeff
    if acc[key] == 0:
        del acc[key]


def state_sum(strands: int, word: tuple[int, ...]) -> Counter:
    """Graded Euler characteristic of skh as the annular state sum.

    The sum of (-1)^i q^j a^k over all enhanced states, keyed (j, k). A vertex
    with r one-smoothings, m circles and e essential ones contributes
    (-1)^(r - n_-) q^(r + n_+ - 2 n_-) (q + q^-1)^(m - e) (q a + q^-1 a^-1)^e.
    """
    n_plus = sum(1 for g in word if g > 0)
    n_minus = len(word) - n_plus
    out: Counter = Counter()
    rows = Counter(map(tuple, vertex_census(strands, word).tolist()))
    for (r, m, e), mult in rows.items():
        sign = -1 if (r - n_minus) % 2 else 1
        shift = r + n_plus - 2 * n_minus
        for s in range(m - e + 1):
            for p in range(e + 1):
                coeff = sign * mult * comb(m - e, s) * comb(e, p)
                _poly_add(out, (shift + 2 * s - (m - e) + 2 * p - e, 2 * p - e), coeff)
    return out


def _shumakovitch_quotient(row: dict[int, int]) -> dict[int, int] | None:
    """R with row = (q + q^-1) R, or None when q + q^-1 does not divide row."""
    if not row:
        return {}
    lo, hi = min(row), max(row)
    quotient: dict[int, int] = {}
    # (q + q^-1) R has coefficient R[j-1] + R[j+1] at q^j; solve from the bottom
    for j in range(lo, hi - 1):
        quotient[j + 1] = row.get(j, 0) - quotient.get(j - 1, 0)
    rebuilt: Counter = Counter()
    for t, coeff in quotient.items():
        rebuilt[t - 1] += coeff
        rebuilt[t + 1] += coeff
    if {j: c for j, c in rebuilt.items() if c} != row:
        return None
    return quotient


def check_tables(strands: int, word: tuple[int, ...], skh: dict, kh: dict) -> list[str]:
    """Checks of the skh table (i, j, k) -> dim and the kh table (i, j) -> dim of one word."""
    problems = []
    if any(not isinstance(d, int) or d <= 0 for d in list(skh.values()) + list(kh.values())):
        problems.append("a dimension is not a positive integer")
    expected = state_sum(strands, word)
    got: Counter = Counter()
    for (i, j, k), d in skh.items():
        _poly_add(got, (j, k), -d if i % 2 else d)
    if got != expected:
        problems.append("skh: graded Euler characteristic differs from the state sum")
    expected_kh: Counter = Counter()
    for (j, _k), coeff in expected.items():
        _poly_add(expected_kh, j, coeff)
    got_kh: Counter = Counter()
    for (i, j), d in kh.items():
        _poly_add(got_kh, j, -d if i % 2 else d)
    if got_kh != expected_kh:
        problems.append("kh: graded Euler characteristic differs from the state sum at a = 1")
    rows: dict[int, dict[int, int]] = {}
    for (i, j), d in kh.items():
        rows.setdefault(i, {})[j] = d
    for i, row in sorted(rows.items()):
        quotient = _shumakovitch_quotient(row)
        if quotient is None or any(c < 0 for c in quotient.values()):
            problems.append(f"kh: row i={i} is not (q + q^-1) times a nonnegative row")
    collapsed: Counter = Counter()
    for (i, j, _k), d in skh.items():
        collapsed[(i, j)] += d
    for key, d in kh.items():
        if d > collapsed[key]:
            problems.append(f"kh: dim at {key} exceeds the sum over k of skh")
    for (i, j, k), d in skh.items():
        if skh.get((i, j - 2 * k, -k)) != d:
            problems.append(f"skh: not symmetric under k -> -k at (i, j - k) = ({i}, {j - k})")
            break
    return problems


def _occurs_only_negatively(word: tuple[int, ...]) -> bool:
    present = {abs(g) for g in word}
    return any(g not in word for g in present)


def _is_trivial_braid(nf) -> bool:
    return nf.infimum == 0 and not nf.factors


def check_equal(op, code: int, text: str) -> list[str]:
    """Checks of `annkh equal --method both --json` on a constructed pair."""
    env = json.loads(text)
    payload = env["payload"]
    problems = []
    want = "equal" if op.truth == "equal" else "unequal"
    if env["verdict"] != want:
        problems.append(f"verdict {env['verdict']!r}, built to be {want!r}")
    if payload.get("agree") is not True:
        problems.append("the two methods do not agree")
    if payload.get("garside") != want:
        problems.append(f"garside says {payload.get('garside')!r}, built to be {want!r}")
    if payload.get("skh") != op.truth:
        problems.append(f"skh says {payload.get('skh')!r}, built to be {op.truth!r}")
    if code != (0 if want == "equal" else 2):
        problems.append(f"exit code {code} for verdict {want!r}")
    return problems


def check_plam(op, code: int, text: str, normal_form) -> list[str]:
    """Checks of `annkh plam --json`; normal_form(strands, word) is Garside's."""
    env = json.loads(text)
    payload = env["payload"]
    n, word = op.strands, op.word
    writhe = sum(1 if g > 0 else -1 for g in word)
    mirror = tuple(-g for g in word)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if payload["bidegree"] != [0, writhe - n]:
        problems.append(f"psi in bidegree {payload['bidegree']}, not (0, writhe - n)")
    if payload["mirror_bidegree"] != [0, -writhe - n]:
        problems.append(f"mirror psi in bidegree {payload['mirror_bidegree']}")
    for label, w, nonzero in (
        ("psi", word, payload["psi_nonzero"]),
        ("mirror psi", mirror, payload["mirror_psi_nonzero"]),
    ):
        if all(g > 0 for g in w) and not nonzero:
            problems.append(f"{label} vanishes on a positive word")
        if _occurs_only_negatively(w) and nonzero:
            problems.append(f"{label} survives although a generator occurs only negatively")
    if env["verdict"] != ("nonzero" if payload["psi_nonzero"] else "zero"):
        problems.append("verdict disagrees with psi_nonzero")
    certificate = payload["trivial_certificate"]
    if certificate != (payload["psi_nonzero"] and payload["mirror_psi_nonzero"]):
        problems.append("trivial_certificate is not psi and mirror psi both surviving")
    if certificate and not _is_trivial_braid(normal_form(n, word)):
        problems.append("trivial_certificate on a braid Garside finds nontrivial")
    return problems


def _permutation(strands: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """images[s] is the bottom position of the strand starting at position s."""
    position = list(range(strands))
    for g in word:
        i = abs(g) - 1
        for s in range(strands):
            if position[s] == i:
                position[s] = i + 1
            elif position[s] == i + 1:
                position[s] = i
    return tuple(position)


def _then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[v] for v in p)


def _descents(p: tuple[int, ...]) -> set[int]:
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _inverse_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for s, v in enumerate(p):
        out[v] = s
    return tuple(out)


def check_normal_form(strands: int, word: tuple[int, ...], nf) -> list[str]:
    """Left-weightedness of Delta^inf A_1 ... A_m and its permutation."""
    problems = []
    identity = tuple(range(strands))
    delta = identity[::-1]
    factors = [tuple(f.images) for f in nf.factors]
    if any(f in (identity, delta) for f in factors):
        problems.append("normal form has a trivial or Delta factor")
    for x, y in zip(factors, factors[1:]):
        if not _descents(y) <= _descents(_inverse_perm(x)):
            problems.append("normal form is not left-weighted")
            break
    perm = delta if nf.infimum % 2 else identity
    for f in factors:
        perm = _then(perm, f)
    if perm != _permutation(strands, word):
        problems.append("normal form permutation differs from the word's")
    return problems


def rewrite(rng: random.Random, strands: int, word: tuple[int, ...], moves: int) -> tuple[int, ...]:
    """Apply random braid relations: braid moves, far commutations, free pairs.

    A move that does not apply where it lands is skipped; one move in ten
    inserts a free pair, so the word grows by about a fifth of `moves`
    letters.
    """
    w = list(word)
    for _ in range(moves):
        kind = rng.randrange(10)
        if kind == 0:
            g = rng.choice([x for x in range(1 - strands, strands) if x])
            t = rng.randrange(len(w) + 1)
            w[t:t] = [g, -g]
        elif kind <= 3 and len(w) >= 3:
            t = rng.randrange(len(w) - 2)
            a, b, c = w[t : t + 3]
            if a == c and a * b > 0 and abs(abs(a) - abs(b)) == 1:
                w[t : t + 3] = [b, a, b]
        elif len(w) >= 2:
            t = rng.randrange(len(w) - 1)
            a, b = w[t], w[t + 1]
            if abs(abs(a) - abs(b)) >= 2:
                w[t], w[t + 1] = b, a
    return tuple(w)


def check_oracle(op, output, engine, seed: int) -> list[str]:
    """Checks of (normal form, Burau matrix, det, char poly) of one word.

    engine is a namespace with the program's left_normal_form,
    burau_matrix, char_poly and BraidWord; it recomputes the answers on
    rewritten words, which must come out the same.
    """
    nf, matrix, det, charpoly = output
    n, word = op.strands, op.word
    problems = check_normal_form(n, word, nf)
    writhe = sum(1 if g > 0 else -1 for g in word)
    if tuple(det.terms) != ((writhe, -1 if writhe % 2 else 1),):
        problems.append(f"det is {det}, not (-T)^{writhe}")
    rng = random.Random(f"rewrite:{seed}:{n}:{word}")
    other = engine.BraidWord(n, rewrite(rng, n, word, len(word) // 2))
    if engine.burau_matrix(other) != matrix:
        problems.append("Burau matrix changed under braid relations")
    if engine.left_normal_form(other) != nf:
        problems.append("normal form changed under braid relations")
    turn = rng.randrange(1, len(word))
    rotated = engine.BraidWord(n, word[turn:] + word[:turn])
    if engine.char_poly(engine.burau_matrix(rotated)) != charpoly:
        problems.append("char poly changed under cyclic rotation")
    return problems


def check_bigelow(output) -> list[str]:
    nf, matrix, _det, _charpoly = output
    problems = []
    n = len(matrix.entries)
    one, zero = ((0, 1),), ()
    if any(
        tuple(matrix.entries[r][c].terms) != (one if r == c else zero)
        for r in range(n)
        for c in range(n)
    ):
        problems.append("Bigelow's word does not have the identity Burau matrix")
    if _is_trivial_braid(nf):
        problems.append("Garside finds Bigelow's word trivial")
    return problems
