"""Benchmark rainbowkit's verdicts on one seeded workload.

    python3 bench/run.py --workload egz-shifts --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; rainbowkit is imported from its ``src``
directory. The run builds the workload's cases, then repeats whole rounds of
them, timing each verdict and checking each output outside the timed region,
until ``--seconds`` have passed and at least ``MIN_VERDICTS`` verdicts were
attempted. One process, one thread. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics;
* ``--trace 1``: the per-layer metrics, from rounds run under the tracer,
  each following an untraced round of the same cases so that the tracing
  overhead can be reported.

Every time is rescaled to the reference pace of ``pace.py``: a fixed kernel
runs before and after each set-up, each chunk of about ``CHUNK_S`` seconds of
verdicts and each traced or untraced round, and the times in between are
multiplied by the reference time over the kernel's mean time around them.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from pace import Pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_VERDICTS = 1500  # attempts per run: at least fifteen lie beyond the 99th percentile
SETUPS = 5  # set-up is repeated and its median reported
CHUNK_S = 0.01  # verdict seconds between two calibration passes


class Tally:
    """Verdict times, failed operations and wrong outputs over a run.

    With a ``pace``, verdict times wait in ``pending`` until about
    ``CHUNK_S`` seconds of them have gathered; the chunk then moves to
    ``times`` rescaled to the reference pace. Without one, ``times`` holds
    them as measured.
    """

    def __init__(self, pace: Pace | None = None) -> None:
        self.times: list[float] = []
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.pace = pace
        self.failed = 0
        self.defects = 0

    def settle(self) -> None:
        """Rescale the pending chunk of times and move it to ``times``."""
        if self.pending:
            scale = self.pace.factor()
            self.times.extend(t * scale for t in self.pending)
            self.pending.clear()
            self.pending_s = 0.0

    def report(self, kind: str, message: str) -> None:
        if self.failed + self.defects < 5:
            print(f"bench: {kind}: {message}", file=sys.stderr)

    def round(self, cases) -> float:
        """Run every case once; return the seconds spent inside the calls."""
        busy = 0.0
        for case in cases:
            start = perf_counter()
            try:
                out = case.call()
            except Exception:  # a failed operation is counted, not fatal
                busy += perf_counter() - start
                self.report("failed", traceback.format_exc(limit=3))
                self.failed += 1
                continue
            elapsed = perf_counter() - start
            busy += elapsed
            if self.pace is None:
                self.times.append(elapsed)
            else:
                self.pending.append(elapsed)
                self.pending_s += elapsed
                if self.pending_s >= CHUNK_S:
                    self.settle()
            try:
                defect = case.check(out)
            except checks.Missing as missing:
                self.report("failed", str(missing))
                self.failed += 1
                continue
            if defect is not None:
                self.report("wrong output", defect)
                self.defects += 1
        return busy


def load_rainbowkit(src: Path):
    """Import rainbowkit afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "rainbowkit" or m.startswith("rainbowkit.")]:
        del sys.modules[name]
    rk = importlib.import_module("rainbowkit")
    if Path(rk.__file__).resolve().parent != src / "rainbowkit":
        raise ImportError(f"rainbowkit was imported from {rk.__file__}, not {src}")
    return rk


def end_to_end(build, src: Path, seed: int, seconds: float) -> dict:
    pace = Pace()
    setups = []
    for _ in range(SETUPS):
        cases = None  # free the previous set-up's cases outside the timing
        pace.factor()  # calibrate right before the set-up
        start = perf_counter()
        cases = build(load_rainbowkit(src), seed)
        setups.append((perf_counter() - start) * pace.factor())
    tally = Tally(pace)
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds or rounds * len(cases) < MIN_VERDICTS:
        tally.round(cases)
        rounds += 1
    tally.settle()
    times = tally.times
    if len(times) < 2:
        raise SystemExit(f"bench: only {len(times)} of {rounds * len(cases)} calls returned")
    cuts = statistics.quantiles(times, n=100)
    print(f"bench: {rounds} rounds of {len(cases)} cases, {len(times)} verdicts",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "verdict_ms_p50": (cuts[49] * 1e3, "ms"),
        "verdict_ms_p99": (cuts[98] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return _result(tally, rounds * len(cases), metrics)


def per_layer(build, src: Path, seed: int, seconds: float) -> dict:
    rk = load_rainbowkit(src)
    pace = Pace()
    setup = tracing.Tracer()
    with setup.patched():
        cases = build(rk, seed)
    setup_scale = pace.factor()
    tally = Tally()
    untraced = traced = 0.0
    rounds: list[tracing.Tracer] = []
    # Rounds are seconds long, so each has a factor of its own.
    scales: list[float] = []  # per traced round, its factor to the reference pace
    start = perf_counter()
    while perf_counter() - start < seconds or len(rounds) < 2:
        untraced += tally.round(cases) * pace.factor()
        tracer = tracing.Tracer()
        with tracer.patched():
            busy = tally.round(cases)
        scales.append(pace.factor())
        traced += busy * scales[-1]
        rounds.append(tracer)
    repeat = all(t.counts == rounds[0].counts for t in rounds)
    if not repeat:
        print("bench: counts differ between traced rounds of the same cases",
              file=sys.stderr)
    print(f"bench: {len(rounds)} traced rounds of {len(cases)} cases", file=sys.stderr)

    counts = rounds[0].counts

    def mean(table: str, span: str) -> float:
        return sum(getattr(t, table)[span] * scale
                   for t, scale in zip(rounds, scales)) / len(rounds)

    expansions = counts["rainbow_solver.build_contracted_network.calls"]
    metrics = {
        "graph_core.augmenting_paths.calls":
            (counts["graph_core.augmenting_paths.calls"], "count"),
        "graph_core.augmenting_paths.s": (mean("busy", "graph_core.augmenting_paths"), "s"),
        "rainbow_solver.find_rainbow_matching.s":
            (mean("busy", "rainbow_solver.find_rainbow_matching"), "s"),
        "rainbow_solver.search.self_s":
            (mean("self_s", "rainbow_solver.find_rainbow_matching"), "s"),
        "rainbow_solver.expansions": (expansions, "count"),
        "rainbow_solver.build_contracted_network.self_s":
            (mean("self_s", "rainbow_solver.build_contracted_network"), "s"),
        "rainbow_solver.network.paths": (counts["rainbow_solver.network.paths"], "count"),
        "rainbow_solver.network.inner": (counts["rainbow_solver.network.inner"], "count"),
        "rainbow_solver.useful_expansion_ratio":
            (counts["rainbow_solver.witness_edges"] / expansions if expansions else 0.0,
             "ratio"),
        "rainbow_solver.classify_family.s":
            (mean("busy", "rainbow_solver.classify_family"), "s"),
        "network_paths.constructive_steps":
            (counts["network_paths.constructive_steps"], "count"),
        "network_paths.find_multicolored_st_path.s":
            (mean("busy", "network_paths.find_multicolored_st_path"), "s"),
        "network_paths.exhaustive_fallbacks":
            (counts["network_paths.iter_multicolored_st_paths.calls"], "count"),
        "network_paths.exhaustive_paths":
            (counts["network_paths.iter_multicolored_st_paths.yields"], "count"),
        "network_paths.iter_multicolored_st_paths.s":
            (mean("busy", "network_paths.iter_multicolored_st_paths"), "s"),
        "network_paths.is_regimented.s": (mean("busy", "network_paths.is_regimented"), "s"),
        "network_paths.verify_regimented_dichotomy.s":
            (mean("busy", "network_paths.verify_regimented_dichotomy"), "s"),
        "reductions.egz_family.s": (mean("busy", "reductions.egz_family"), "s"),
        "reductions.find_zero_sum_subset.s":
            (mean("busy", "reductions.find_zero_sum_subset"), "s"),
        "reductions.classify_multiset.s": (mean("busy", "reductions.classify_multiset"), "s"),
        "oracle.brute_mc_path.calls": (counts["oracle.brute_mc_path.calls"], "count"),
        "oracle.brute_mc_path.s": (mean("busy", "oracle.brute_mc_path"), "s"),
        "oracle.generate.s": (setup.busy["oracle.generate"] * setup_scale, "s"),
        "trace.overhead_s": ((traced - untraced) / len(rounds), "s"),
    }
    return _result(tally, 2 * len(rounds) * len(cases), metrics, repeat)


def _result(tally: Tally, attempted: int, metrics: dict, repeat: bool = True) -> dict:
    return {
        "correct": tally.defects == 0 and repeat,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "rainbowkit" / "__init__.py").is_file():
        print(f"bench: no rainbowkit sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run = per_layer if args.trace else end_to_end
    result = run(WORKLOADS[args.workload], src, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
