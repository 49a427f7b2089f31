"""Command-line front end.

Subcommands: skh, kh, equal, trivial, plam, burau, flype, resolve. Each
subcommand, its flags and its handler come from one table, COMMANDS, from
which build_parser makes the parser; run alone times the handler, prints
its envelope and turns a ValueError into exit code 1. Output is plain
text by default or a JSON envelope with --json; JSON keys are sorted and
the envelope schema is fixed per subcommand, so identical inputs produce
identical bytes (except the time_ms field, which reports wall time and
is the one documented nondeterminism).

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

from .burau import burau_matrix, char_poly, check_det_size, laurent_det
from .cube import DEFAULT_MAX_CROSSINGS, generator_count
from .diagram import closure_diagram
from .garside import left_normal_form, words_equal
from .homology import kh, poincare_polynomial, skh, total_dim
from .invariants import (
    flype_pair,
    is_trivial,
    plamenevskaya,
    words_equal_homological,
)
from .words import BraidWord, parse_word

FLYPE_CITATION = "[Tab. 2, MR2468377]"


def _arg(*flags, **spec) -> tuple:
    return flags, spec


WORD = _arg("word", help="braid word, e.g. \"1 2 -1\" (use -- before negative first letters)")
STRANDS = _arg("--strands", type=int, default=None, help="strand count (default: smallest valid)")
MAX_CROSSINGS = _arg(
    "--max-crossings",
    type=int,
    default=DEFAULT_MAX_CROSSINGS,
    help=f"refuse diagrams above this many crossings (default {DEFAULT_MAX_CROSSINGS})",
)


def _word(args, env: dict) -> BraidWord:
    w = parse_word(args.word, strands=args.strands)
    env["input"] = {"word": w.as_text(), "strands": w.strands}
    return w


def _homology_table(env: dict, w: BraidWord, dims: dict) -> list[str]:
    poly = poincare_polynomial(dims)
    env["dims"] = [[*degrees, d] for degrees, d in sorted(dims.items())]
    env["total"] = total_dim(dims)
    env["payload"] = {"poincare": poly}
    # the cube is built from a reduced conjugate; stats describe the typed
    # word. A build whose boundary raises k fails, so that count is always 0.
    env["stats"] = {
        "generators": generator_count(closure_diagram(w)),
        "vertices": 1 << len(w),
        "k_increase_components": 0,
    }
    return [poly, f"total dimension: {env['total']}"]


def _cmd_skh(args, env):
    w = _word(args, env)
    return _homology_table(env, w, skh(w, max_crossings=args.max_crossings)), 0


def _cmd_kh(args, env):
    w = _word(args, env)
    return _homology_table(env, w, kh(w, max_crossings=args.max_crossings)), 0


def _cmd_equal(args, env):
    w1 = parse_word(args.word1, strands=args.strands)
    w2 = parse_word(args.word2, strands=args.strands)
    n = max(w1.strands, w2.strands)
    w1, w2 = BraidWord(n, w1.letters), BraidWord(n, w2.letters)
    env["input"] = {"word1": w1.as_text(), "word2": w2.as_text(), "strands": n}
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
    if not agree:
        return lines, 1
    return lines, 0 if all(verdicts) else 2


def _cmd_trivial(args, env):
    w = _word(args, env)
    decision = is_trivial(w, max_crossings=args.max_crossings)
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
    return lines, 0 if decision.equal else 2


def _cmd_plam(args, env):
    w = _word(args, env)
    psi = plamenevskaya(w, max_crossings=args.max_crossings)
    mirror_psi = plamenevskaya(w.mirror(), max_crossings=args.max_crossings)
    certificate = psi.nonzero and mirror_psi.nonzero
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
    return lines, 0


def _matrix_grid(cells: list[list[str]]) -> list[str]:
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells))]
    return ["[ " + "  ".join(map(str.ljust, row, widths)) + " ]" for row in cells]


def _cmd_burau(args, env):
    w = _word(args, env)
    # the strand count alone decides the refusal, so it comes before the matrix
    check_det_size(w.strands)
    m = burau_matrix(w)
    det = str(laurent_det(m))
    cells = [[str(e) for e in row] for row in m.entries]
    lines = _matrix_grid(cells)
    identity = m.is_identity()
    payload = {"matrix": cells, "det": det, "is_identity": identity}
    if args.charpoly:
        cp = str(char_poly(m))
        payload["charpoly"] = cp
        lines.append(f"char poly: {cp}")
    if identity and not left_normal_form(w).is_trivial():
        scope_note = (
            "note: Burau image is the identity yet the braid is nontrivial "
            "(Garside normal form); its closure homology is out of range here "
            f"({len(w.letters)} crossings, limit {args.max_crossings})"
        )
        payload["scope_note"] = scope_note
        lines.append(scope_note)
    env["payload"] = payload
    env["verdict"] = "identity" if identity else "non-identity"
    return lines, 0


def _cmd_flype(args, env):
    sign = 1 if args.sign in ("+", "+1") else -1
    first, second = flype_pair(args.u, args.v, args.w, sign)
    env["input"] = {"u": args.u, "v": args.v, "w": args.w, "sign": sign}
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
    return lines, code


def _cmd_resolve(args, env):
    w = _word(args, env)
    env["input"]["vertex"] = args.vertex
    d = closure_diagram(w)
    state = d.resolve(args.vertex)
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
    return lines, 0


# (name, help, handler, arguments); build_parser adds --json to every entry.
# Entries hold the handlers above, which look up library functions as module
# globals at call time, so anything that replaces those globals is seen.
COMMANDS = (
    ("skh", "triple-graded annular homology of the closure", _cmd_skh,
     (WORD, STRANDS, MAX_CROSSINGS)),
    ("kh", "ordinary Khovanov homology of the closure", _cmd_kh,
     (WORD, STRANDS, MAX_CROSSINGS)),
    ("equal", "decide equality of two braid words", _cmd_equal, (
        _arg("word1"),
        _arg("word2"),
        STRANDS,
        _arg("--method", choices=("skh", "garside", "both"), default="both"),
        MAX_CROSSINGS,
    )),
    ("trivial", "decide triviality homologically", _cmd_trivial,
     (WORD, STRANDS, MAX_CROSSINGS)),
    ("plam", "distinguished bottom-k class of word and mirror", _cmd_plam,
     (WORD, STRANDS, MAX_CROSSINGS)),
    ("burau", "Burau matrix over Z[T^+-1]", _cmd_burau, (
        WORD,
        STRANDS,
        MAX_CROSSINGS,
        _arg("--charpoly", action="store_true", help="also print det(L*I - M)"),
    )),
    ("flype", "emit a 3-strand flype pair", _cmd_flype, (
        _arg("--u", type=int, required=True),
        _arg("--v", type=int, required=True),
        _arg("--w", type=int, required=True),
        _arg("--sign", choices=("+", "-", "+1", "-1"), required=True),
        _arg("--check", action="store_true", help="verify the pair's homology agrees"),
        MAX_CROSSINGS,
    )),
    ("resolve", "debug dump of one cube resolution", _cmd_resolve,
     (WORD, _arg("vertex", type=int), STRANDS)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annkh",
        description="Annular Khovanov homology of braid closures over GF(2), "
        "with Garside and Burau cross-checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flags, spec in arguments:
            sub.add_argument(*flags, **spec)
        sub.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")
        sub.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    env = {
        "command": args.command,
        "input": {},
        "dims": [],
        "total": None,
        "verdict": None,
        "payload": {},
        "stats": {},
        "time_ms": 0,
    }
    try:
        lines, code = args.handler(args, env)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["time_ms"] = int((time.perf_counter() - started) * 1000)
    if args.json:
        print(json.dumps(env, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
