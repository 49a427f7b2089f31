"""Command-line front end.

Subcommands: skh, kh, equal, trivial, plam, burau, flype, resolve. Output
is plain text by default or a JSON envelope with --json; JSON keys are
sorted and the envelope schema is fixed per subcommand, so identical
inputs produce identical bytes (except the time_ms field, which reports
wall time and is the one documented nondeterminism).

Exit codes: 0 for success, 2 for a mathematically negative decision
(words unequal, braid nontrivial, flype check failure), 1 for operational
errors including bad flags, unparsable words, and the crossing limit.

Braid words are written as space- or comma-separated signed integers,
letter g meaning the g-th positive generator and -g its inverse, with
optional ^power suffixes ("1 2^3 -1"). A word starting with a negative
letter must be preceded by "--" so it is not read as a flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .burau import burau_kernel_check, burau_matrix, char_poly, laurent_det
from .cube import DEFAULT_MAX_CROSSINGS, CrossingLimitError, build_complex
from .diagram import closure_diagram
from .garside import words_equal
from .homology import homology_full, homology_graded, poincare_polynomial, skh, total_dim
from .invariants import (
    flype_pair,
    is_trivial,
    plamenevskaya,
    words_equal_homological,
)
from .words import BraidWord, parse_word

FLYPE_CITATION = "[Tab. 2, MR2468377]"


def _envelope(command: str, args_input: dict) -> dict:
    return {
        "command": command,
        "input": args_input,
        "dims": [],
        "total": None,
        "verdict": None,
        "payload": {},
        "stats": {},
        "time_ms": 0,
    }


def _emit(env: dict, as_json: bool, lines: list[str], started: float) -> None:
    env["time_ms"] = int((time.perf_counter() - started) * 1000)
    if as_json:
        print(json.dumps(env, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse(text: str, strands) -> BraidWord:
    return parse_word(text, strands=strands)


def _complex_stats(cx) -> dict:
    return {
        "generators": cx.total_generators,
        "vertices": cx.num_vertices,
        "k_increase_components": cx.k_increase_components,
    }


def _cmd_skh(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    cx = build_complex(closure_diagram(w), max_crossings=args.max_crossings)
    dims = {(i, j, k): d for (j, k, i), d in homology_graded(cx).items()}
    poly = poincare_polynomial(dims)
    env = _envelope("skh", {"word": w.as_text(), "strands": w.strands})
    env["dims"] = [[i, j, k, d] for (i, j, k), d in sorted(dims.items())]
    env["total"] = total_dim(dims)
    env["payload"] = {"poincare": poly}
    env["stats"] = _complex_stats(cx)
    _emit(env, args.json, [poly, f"total dimension: {env['total']}"], started)
    return 0


def _cmd_kh(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    cx = build_complex(closure_diagram(w), max_crossings=args.max_crossings)
    dims = {(i, j): d for (j, i), d in homology_full(cx).items()}
    poly = poincare_polynomial(dims)
    env = _envelope("kh", {"word": w.as_text(), "strands": w.strands})
    env["dims"] = [[i, j, d] for (i, j), d in sorted(dims.items())]
    env["total"] = total_dim(dims)
    env["payload"] = {"poincare": poly}
    env["stats"] = _complex_stats(cx)
    _emit(env, args.json, [poly, f"total dimension: {env['total']}"], started)
    return 0


def _cmd_equal(args) -> int:
    started = time.perf_counter()
    w1 = _parse(args.word1, args.strands)
    w2 = _parse(args.word2, args.strands)
    n = max(w1.strands, w2.strands)
    w1, w2 = BraidWord(n, w1.letters), BraidWord(n, w2.letters)
    env = _envelope("equal", {"word1": w1.as_text(), "word2": w2.as_text(), "strands": n})
    lines = []
    payload = {}
    verdicts = []
    if args.method in ("garside", "both"):
        g_equal = words_equal(w1, w2)
        payload["garside"] = "equal" if g_equal else "unequal"
        lines.append(f"garside: {payload['garside']}")
        verdicts.append(g_equal)
    if args.method in ("skh", "both"):
        decision = words_equal_homological(w1, w2, max_crossings=args.max_crossings)
        payload["skh"] = decision.verdict
        lines.append(f"skh: {decision.verdict}")
        verdicts.append(decision.equal)
    agree = True
    if args.method == "both":
        agree = verdicts[0] == verdicts[1]
        payload["agree"] = agree
        lines.append("AGREE" if agree else "DISAGREE")
    env["verdict"] = "equal" if verdicts[-1] else "unequal"
    env["payload"] = payload
    _emit(env, args.json, lines, started)
    if not agree:
        return 1
    return 0 if all(verdicts) else 2


def _cmd_trivial(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    decision = is_trivial(w, max_crossings=args.max_crossings)
    env = _envelope("trivial", {"word": w.as_text(), "strands": w.strands})
    env["verdict"] = decision.verdict
    lines = [decision.verdict]
    if decision.witness is not None:
        computed, expected = decision.witness
        env["dims"] = [[i, j, k, d] for (i, j, k), d in sorted(computed.items())]
        env["payload"] = {
            "expected_dims": [[i, j, k, d] for (i, j, k), d in sorted(expected.items())],
        }
        lines.append(f"computed: {poincare_polynomial(computed)}")
        lines.append(f"trivial form: {poincare_polynomial(expected)}")
    _emit(env, args.json, lines, started)
    return 0 if decision.equal else 2


def _cmd_plam(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    psi = plamenevskaya(w, max_crossings=args.max_crossings)
    mirror_psi = plamenevskaya(w.mirror(), max_crossings=args.max_crossings)
    certificate = psi.nonzero and mirror_psi.nonzero
    env = _envelope("plam", {"word": w.as_text(), "strands": w.strands})
    env["verdict"] = "nonzero" if psi.nonzero else "zero"
    env["payload"] = {
        "bidegree": list(psi.bidegree),
        "psi_nonzero": psi.nonzero,
        "mirror_bidegree": list(mirror_psi.bidegree),
        "mirror_psi_nonzero": mirror_psi.nonzero,
        "trivial_certificate": certificate,
    }
    lines = [
        f"psi {'nonzero' if psi.nonzero else '= 0'} at {psi.bidegree}",
        f"psi(mirror) {'nonzero' if mirror_psi.nonzero else '= 0'} at {mirror_psi.bidegree}",
        (
            "certificate: trivial braid (both classes survive)"
            if certificate
            else "certificate: none"
        ),
    ]
    _emit(env, args.json, lines, started)
    return 0


def _matrix_grid(m) -> list[str]:
    cells = [[str(e) for e in row] for row in m.entries]
    widths = [max(len(cells[r][c]) for r in range(m.n)) for c in range(m.n)]
    return [
        "[ " + "  ".join(cells[r][c].ljust(widths[c]) for c in range(m.n)) + " ]"
        for r in range(m.n)
    ]


def _cmd_burau(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    m = burau_matrix(w)
    env = _envelope("burau", {"word": w.as_text(), "strands": w.strands})
    lines = _matrix_grid(m)
    payload = {
        "matrix": [[str(e) for e in row] for row in m.entries],
        "det": str(laurent_det(m)),
        "is_identity": m.is_identity(),
    }
    if args.charpoly:
        cp = str(char_poly(m))
        payload["charpoly"] = cp
        lines.append(f"char poly: {cp}")
    scope_note = None
    if m.is_identity() and not words_equal(w, BraidWord(w.strands, ())):
        scope_note = (
            "note: Burau image is the identity yet the braid is nontrivial "
            "(Garside normal form); its closure homology is out of range here "
            f"({len(w.letters)} crossings, limit {args.max_crossings})"
        )
        payload["scope_note"] = scope_note
        lines.append(scope_note)
    env["payload"] = payload
    env["verdict"] = "identity" if payload["is_identity"] else "non-identity"
    _emit(env, args.json, lines, started)
    return 0


def _cmd_flype(args) -> int:
    started = time.perf_counter()
    sign = 1 if args.sign in ("+", "+1") else -1
    first, second = flype_pair(args.u, args.v, args.w, sign)
    env = _envelope(
        "flype", {"u": args.u, "v": args.v, "w": args.w, "sign": sign}
    )
    payload = {
        "first": first.as_text(),
        "second": second.as_text(),
        "citation": FLYPE_CITATION,
    }
    lines = [
        f"first:  {first.as_text()}",
        f"second: {second.as_text()}",
        f"non-conjugacy for suitable parameters: {FLYPE_CITATION} (cited, not re-verified)",
    ]
    code = 0
    if args.check:
        dims1 = skh(first, max_crossings=args.max_crossings)
        dims2 = skh(second, max_crossings=args.max_crossings)
        same = dims1 == dims2
        payload["skh_equal"] = same
        env["verdict"] = "skh-equal" if same else "skh-unequal"
        lines.append(f"skh equal: {'yes' if same else 'NO'}")
        if not same:
            code = 2
    env["payload"] = payload
    _emit(env, args.json, lines, started)
    return code


def _cmd_resolve(args) -> int:
    started = time.perf_counter()
    w = _parse(args.word, args.strands)
    d = closure_diagram(w)
    if not 0 <= args.vertex < (1 << d.num_crossings):
        raise ValueError(
            f"vertex {args.vertex} out of range for {d.num_crossings} crossings"
        )
    state = d.resolve(args.vertex)
    env = _envelope("resolve", {"word": w.as_text(), "strands": w.strands, "vertex": args.vertex})
    circles = []
    lines = [
        f"vertex {args.vertex} = {args.vertex:0{max(d.num_crossings, 1)}b} "
        f"({d.num_crossings} crossings)",
        f"circles: {state.num_circles}, essential: {state.essential_count}",
    ]
    for ci, sites in enumerate(state.circles):
        names = [d.site_name(s) for s in sites]
        circles.append({"sites": names, "winding": state.windings[ci]})
        lines.append(f"  circle {ci}: winding {state.windings[ci]:+d}  " + " ".join(names))
    env["payload"] = {
        "circles": circles,
        "braid_like": [d.braid_like(t, args.vertex) for t in range(d.num_crossings)],
    }
    env["total"] = state.num_circles
    _emit(env, args.json, lines, started)
    return 0


def _add_common(sub, word: bool = True, limit: bool = True):
    if word:
        sub.add_argument("word", help="braid word, e.g. \"1 2 -1\" (use -- before negative first letters)")
        sub.add_argument("--strands", type=int, default=None, help="strand count (default: smallest valid)")
    if limit:
        sub.add_argument(
            "--max-crossings",
            type=int,
            default=DEFAULT_MAX_CROSSINGS,
            help=f"refuse diagrams above this many crossings (default {DEFAULT_MAX_CROSSINGS})",
        )
    sub.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annkh",
        description="Annular Khovanov homology of braid closures over GF(2), "
        "with Garside and Burau cross-checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("skh", help="triple-graded annular homology of the closure")
    _add_common(p)
    p.set_defaults(func=_cmd_skh)

    p = subs.add_parser("kh", help="ordinary Khovanov homology of the closure")
    _add_common(p)
    p.set_defaults(func=_cmd_kh)

    p = subs.add_parser("equal", help="decide equality of two braid words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--method", choices=("skh", "garside", "both"), default="both")
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equal)

    p = subs.add_parser("trivial", help="decide triviality homologically")
    _add_common(p)
    p.set_defaults(func=_cmd_trivial)

    p = subs.add_parser("plam", help="distinguished bottom-k class of word and mirror")
    _add_common(p)
    p.set_defaults(func=_cmd_plam)

    p = subs.add_parser("burau", help="Burau matrix over Z[T^+-1]")
    _add_common(p)
    p.add_argument("--charpoly", action="store_true", help="also print det(L*I - M)")
    p.set_defaults(func=_cmd_burau)

    p = subs.add_parser("flype", help="emit a 3-strand flype pair")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-", "+1", "-1"), required=True)
    p.add_argument("--check", action="store_true", help="verify the pair's homology agrees")
    p.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_flype)

    p = subs.add_parser("resolve", help="debug dump of one cube resolution")
    p.add_argument("word")
    p.add_argument("vertex", type=int)
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_resolve)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except CrossingLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
