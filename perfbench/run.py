"""annkh benchmark: one workload, one seed, in one single-threaded process.

    python3 perfbench/run.py --workload tables|decide|oracles --seed N --seconds S --trace 0|1

The benchmark imports annkh from the src/ directory next to perfbench/ and
drives it only through its public entry points: the library functions and
annkh.cli.run. It repeats whole passes over the workload's seeded corpus
until about S seconds have gone by, checks every output outside the timed
region, and prints one JSON object as its last line: the end-to-end metrics
when tracing is off, the per-layer metrics when it is on. Result and span
files go to perfbench/out/.
"""

from __future__ import annotations

import os

# numpy must not start a thread pool: the benchmark measures one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "decide", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import and build the inputs, then exit"
    )
    return parser.parse_args(argv)


def _import_program():
    sys.path.insert(0, str(SRC))
    import annkh
    import annkh.cli

    return annkh


def _measure_setup(args) -> float:
    """Median wall time of fresh processes that import annkh and build the inputs."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.run(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S
        )
        samples.append(time.perf_counter() - started)
        if child.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{child.stderr.decode(errors='replace')}")
    return statistics.median(samples)


def _cli(annkh, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = annkh.cli.run(argv)
    return code, out.getvalue()


def _text(word: tuple[int, ...]) -> str:
    return " ".join(map(str, word))


def run_op(annkh, op):
    """Perform one operation and return its output."""
    n = str(op.strands)
    if op.kind == "skh":
        return annkh.skh(annkh.BraidWord(op.strands, op.word))
    if op.kind == "kh":
        return annkh.kh(annkh.BraidWord(op.strands, op.word))
    if op.kind == "equal":
        argv = ["equal", "--method", "both", "--json", "--strands", n, "--", _text(op.word), _text(op.other)]
        return _cli(annkh, argv)
    if op.kind == "plam":
        return _cli(annkh, ["plam", "--json", "--strands", n, "--", _text(op.word)])
    if op.kind == "oracle":
        w = annkh.BraidWord(op.strands, op.word)
        matrix = annkh.burau_matrix(w)
        return annkh.left_normal_form(w), matrix, annkh.laurent_det(matrix), annkh.char_poly(matrix)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _comparable(op, output):
    """The part of an output that must repeat exactly from pass to pass."""
    if op.kind in ("equal", "plam"):
        code, text = output
        envelope = json.loads(text)
        envelope.pop("time_ms")
        return code, envelope
    return output


def check_outputs(annkh, ops, outputs, seed: int) -> dict[int, list[str]]:
    """Problems found in the first output of each operation, by op index.

    An operation whose output is None raised in every pass and is skipped.
    """
    import checks
    import corpus

    problems: dict[int, list[str]] = {}
    bigelow = corpus.bigelow_word()

    def normal_form(n, word):
        return annkh.left_normal_form(annkh.BraidWord(n, word))

    for idx, op in enumerate(ops):
        out = outputs[idx]
        if out is None or (op.kind == "skh" and outputs[idx + 1] is None):
            continue
        if op.kind == "skh":
            found = checks.check_tables(op.strands, op.word, out, outputs[idx + 1])
            problems[idx] = problems[idx + 1] = found
        elif op.kind == "equal":
            problems[idx] = checks.check_equal(op, *out)
        elif op.kind == "plam":
            problems[idx] = checks.check_plam(op, *out, normal_form)
        elif op.kind == "oracle":
            found = checks.check_oracle(op, out, annkh, seed)
            if op.word == bigelow:
                found += checks.check_bigelow(out)
            problems[idx] = found
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "annkh" / "__init__.py").is_file():
        print(f"error: annkh sources not found under {SRC}", file=sys.stderr)
        return 1
    if args.setup_only:
        _import_program()
        import corpus

        corpus.build(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else _measure_setup(args)
    annkh = _import_program()
    import corpus

    ops = corpus.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    durations: list[float] = []
    # only the first output of each operation is kept, so the benchmark's own
    # memory does not grow with the number of passes
    first: list = [None] * len(ops)
    first_comparable: list = [None] * len(ops)
    raised = [0] * len(ops)
    changed = [0] * len(ops)
    passes = 0
    started = time.perf_counter()
    while True:
        for idx, op in enumerate(ops):
            if tracer:
                tracer.begin_op(f"{passes}:{idx}")
            t0 = time.perf_counter()
            try:
                out = run_op(annkh, op)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                out = None
                raised[idx] += 1
            finally:
                t1 = time.perf_counter()
                if tracer:
                    tracer.end_op()
            durations.append(t1 - t0)
            if out is None:
                continue
            if first[idx] is None:
                first[idx], first_comparable[idx] = out, _comparable(op, out)
            elif _comparable(op, out) != first_comparable[idx]:
                changed[idx] += 1
        passes += 1
        elapsed = time.perf_counter() - started
        # whole passes only; stop at the pass boundary nearest to the time asked for
        if elapsed >= args.seconds - elapsed / passes / 2:
            break
    # the checks below are the benchmark's own work, so the peak is taken first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    problems = check_outputs(annkh, ops, first, args.seed)
    attempted = passes * len(ops)
    failed = sum(raised)
    correct = True
    for idx, op in enumerate(ops):
        wrong = passes - raised[idx] if problems.get(idx) else changed[idx]
        failed += wrong
        correct = correct and not wrong
        for problem in problems.get(idx, ()):
            print(f"op {idx} ({op.kind} {_text(op.word)}): {problem}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(passes)
    else:
        metrics = {
            "ops_per_s": {"value": attempted / elapsed, "unit": "op/s"},
            "op_ms_p50": {"value": statistics.median(durations) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "result": result,
        "passes": passes,
        "elapsed_s": elapsed,
        "ops_per_s": attempted / elapsed,
        "op_ms": [d * 1e3 for d in durations],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    print(
        f"{args.workload} seed {args.seed}: {passes} pass(es), {attempted} ops in {elapsed:.2f} s, "
        f"{attempted / elapsed:.4f} op/s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
