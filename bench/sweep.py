"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/sweep.py --workload dichotomy --seeds 1-10 --seconds 15 --trace 0

Runs ``bench/run.py`` in a fresh process per seed, one after another, from
the root of the checkout. Each run's result line is appended to
``bench/results/<workload>-trace<k>.jsonl``. The summary gives, per metric,
the median and the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the quartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = BENCH / "results" / f"{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        with out.open("a") as sink:
            sink.write(json.dumps(result) + "\n")
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    print(f"{args.workload}, trace {args.trace}, {len(results)} seeds, "
          f"failed share {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:48s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
