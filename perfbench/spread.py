"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tables --seeds 1-10 [--seconds 25] [--trace 0]

Each run is a fresh process of run.py, one after another. For every metric
it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. It also prints the share of
failed operations, which must be the same in every run, and the make-up of
the corpora of those seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range like 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", args.trace,
        ]  # fmt: skip
        child = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    print(f"failed shares: {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    describe([op for seed in args.seeds for op in corpus.build(args.workload, seed)])
    return 0


def describe(ops: list) -> None:
    """Print the make-up of a list of operations."""
    kinds = Counter(f"{op.kind}{':' + op.truth if op.truth else ''}" for op in ops)
    words = {(op.strands, op.word) for op in ops}
    shapes = Counter(f"{n} strands x {len(w)} letters" for n, w in words)
    adjacent = sum(1 for _, w in words if any(a == -b for a, b in zip(w, w[1:])))
    print(f"operations: {dict(sorted(kinds.items()))}")
    print(f"distinct words: {len(words)}; {dict(sorted(shapes.items()))}")
    print(f"words with an adjacent sigma sigma^-1 pair: {adjacent / len(words):.3f}")
    plam = [op.word for op in ops if op.kind == "plam"]
    if plam:
        positive = sum(1 for w in plam if all(g > 0 for g in w))
        print(f"positive plam words: {positive / len(plam):.3f}")


if __name__ == "__main__":
    sys.exit(main())
