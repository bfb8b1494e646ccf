"""The tracer counts and times rainbowkit's layers without changing them.

Run from the root of a checkout: ``python3 -m pytest bench/tests``.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import rainbowkit as rk  # noqa: E402
import tracing  # noqa: E402


def _drisko_family(n):
    spec = rk.GenSpec.family_uniform(n, 2 * n - 1, n + 1, 7)
    return rk.generate(spec)


def test_counts_follow_the_constructive_proof_and_repeat():
    family = _drisko_family(3)
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.patched():
            found = rk.find_rainbow_matching(family, 3)
        assert len(found) == 3
        seen.append(tracer)
    counts = seen[0].counts
    assert counts == seen[1].counts
    assert counts["rainbow_solver.build_contracted_network.calls"] == 3
    assert counts["rainbow_solver.witness_edges"] == 3
    assert counts["graph_core.augmenting_paths.calls"] > 0
    span = "rainbow_solver.find_rainbow_matching"
    assert 0 < seen[0].self_s[span] < seen[0].busy[span]


def test_patching_reaches_inner_callers_and_is_undone():
    original = rk.rainbow_solver.augmenting_paths
    tracer = tracing.Tracer()
    with tracer.patched():
        assert rk.rainbow_solver.augmenting_paths is not original
        assert rk.augmenting_paths is rk.rainbow_solver.augmenting_paths
        rk.classify_family(rk.canonical_cycle_family(3))
    assert rk.rainbow_solver.augmenting_paths is original
    assert rk.augmenting_paths is original
    assert tracer.counts["rainbow_solver.find_rainbow_matching.calls"] == 1
    assert tracer.counts["network_paths.iter_multicolored_st_paths.calls"] > 0


def test_generators_are_timed_only_inside_their_steps():
    family = rk.build_family([[rk.make_path(("s", 0, 1, "t"))],
                              [rk.make_path(("s", 1, "t"))]])
    tracer = tracing.Tracer()
    with tracer.patched():
        paths = rk.iter_multicolored_st_paths(family)
        next(paths)
        time.sleep(0.05)
        rest = list(paths)
    name = "network_paths.iter_multicolored_st_paths"
    assert tracer.counts[f"{name}.yields"] == 1 + len(rest)
    assert tracer.busy[name] < 0.05
