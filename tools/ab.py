"""Alternating A/B runs of the benchmark on two checkouts, and their summary.

    python3 tools/ab.py PARENT_ROOT CHANGE_ROOT --workload egz-shifts \\
        --seed 1 --pairs 10 --seconds 15

Each pair runs the benchmark command of ``BENCHMARK.json`` (``python3
bench/run.py``) once from each checkout root, one process at a time: odd
pairs run the parent first, even pairs the change. Every result line goes to
stderr as it arrives. A run that is not ``correct`` or that has ``failed``
operations stops the tool before anything is summarized. Then, for each
end-to-end metric of ``BENCHMARK.json``, stdout gets each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the pairs the change won
(ties count for neither side) and the change of the medians relative to the
parent's, and after those lines one verdict per metric:

- ``gain`` when the change won at least 9 of every 10 pairs and its median
  is better than the parent's by more than the parent's q3 - q1;
- ``worse`` when its median is worse than the parent's by more than the
  metric's ``bound`` (a fraction of the parent's median);
- ``unresolved`` otherwise.

The tool reads ``BENCHMARK.json`` beside this directory and the result lines
the benchmark prints; it imports nothing from the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class Refused(Exception):
    """A benchmark run whose numbers must not be summarized."""


def parse_result(line: str) -> dict[str, float]:
    """The metric values of one benchmark result line; raises Refused when
    the run was not correct or lost operations."""
    result = json.loads(line)
    if result.get("correct") is not True:
        raise Refused(f"run not correct: {line.strip()}")
    if result.get("failed") != 0:
        raise Refused(f"run failed {result.get('failed')} operations: {line.strip()}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _compared(end_to_end: list[dict], pairs: list[tuple[str, str]]):
    """Per end-to-end metric: the metric, the sign that makes "better"
    positive, the pairs the change won, and each side's quartiles. Raises
    Refused when any run is refused, before anything is yielded."""
    runs = [(parse_result(parent), parse_result(change)) for parent, change in pairs]
    if not runs:
        raise Refused("no pairs to summarize")
    for metric in end_to_end:
        name = metric["name"]
        parent = [p[name] for p, _ in runs]
        change = [c[name] for _, c in runs]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        yield metric, sign, wins, _quartiles(parent), _quartiles(change)


def summarize(end_to_end: list[dict], pairs: list[tuple[str, str]]) -> list[str]:
    """One line per end-to-end metric over ``pairs`` of (parent, change)
    result lines; ``end_to_end`` is the ``BENCHMARK.json`` list of the same
    name. Raises Refused when any run is refused, before any line is made."""
    lines = []
    for metric, _, wins, (p1, pm, p3), (c1, cm, c3) in _compared(end_to_end, pairs):
        relative = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        lines.append(
            f"{metric['name']} [{metric['unit']}, {metric['better']} is better]: "
            f"parent {pm:.6g} (q1 {p1:.6g}, q3 {p3:.6g}); "
            f"change {cm:.6g} (q1 {c1:.6g}, q3 {c3:.6g}); "
            f"change won {wins}/{len(pairs)}; median {relative} of the parent's")
    return lines


def verdicts(end_to_end: list[dict], pairs: list[tuple[str, str]]) -> list[str]:
    """One ``name: gain|worse|unresolved`` line per end-to-end metric, by the
    rules in this module's docstring; the metrics need their ``bound``.
    Raises Refused when any run is refused, before any line is made."""
    lines = []
    for metric, sign, wins, (p1, pm, p3), (_, cm, _) in _compared(end_to_end, pairs):
        better_by = sign * (cm - pm)
        if 10 * wins >= 9 * len(pairs) and better_by > p3 - p1:
            verdict = "gain"
        elif -better_by > metric["bound"] * pm:
            verdict = "worse"
        else:
            verdict = "unresolved"
        lines.append(f"{metric['name']}: {verdict}")
    return lines


def _run(root: Path, command: list[str], args: argparse.Namespace) -> str:
    """The last stdout line of one benchmark run from ``root``."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Refused(f"{root}: exit {done.returncode}: {done.stderr.strip()}")
    return lines[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"BENCHMARK.json has {', '.join(workloads)}")
    pairs = []
    try:
        for i in range(args.pairs):
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side] = _run(getattr(args, f"{side}_root"), spec["command"], args)
                print(f"pair {i + 1} {side}: {sides[side]}", file=sys.stderr, flush=True)
                parse_result(sides[side])
            pairs.append((sides["parent"], sides["change"]))
        lines = summarize(spec["end_to_end"], pairs)
        lines += verdicts(spec["end_to_end"], pairs)
    except Refused as refused:
        print(f"ab: refused: {refused}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
