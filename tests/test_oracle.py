import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rainbowkit

from rainbowkit import (
    BudgetExceeded,
    GenSpec,
    InfeasibleSpec,
    MatchingFamily,
    PreconditionError,
    NetPath,
    PathGroup,
    PathGroupFamily,
    ResidueMultiset,
    SINK,
    SOURCE,
    brute_mc_path,
    brute_rainbow,
    brute_reaches_sink,
    brute_zero_sum,
    build_family,
    canonical_cycle_family,
    colored_path_conforms,
    edge,
    enumerate_matchings,
    enumerate_multisets,
    generate,
    validate_matching,
)
from conftest import networks, path


class TestBruteRainbow:
    def test_cycle_family_infeasible(self, c6_family):
        assert brute_rainbow(c6_family, 3) is None

    def test_single_edge(self):
        fam = MatchingFamily((validate_matching([edge(0, 0)]),))
        found = brute_rainbow(fam, 1)
        assert found.entries == ((0, edge(0, 0)),)

    def test_doubled_instance_found(self, even3, odd3):
        fam = MatchingFamily((even3, even3, even3, odd3, odd3))
        assert brute_rainbow(fam, 3) is not None

    def test_lexicographically_first(self, even2, odd2):
        fam = MatchingFamily((even2, odd2, even2))
        found = brute_rainbow(fam, 2)
        assert found.colors == {0, 2}

    def test_budget(self, c6_family):
        with pytest.raises(BudgetExceeded):
            brute_rainbow(c6_family, 3, budget=5)

    def test_negative_size_rejected(self, c6_family):
        with pytest.raises(PreconditionError):
            brute_rainbow(c6_family, -1)


class TestBruteMcPath:
    def test_empty(self):
        assert set(brute_mc_path(build_family([]))) == {SOURCE}

    def test_two_copies_reach_sink(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        reach = brute_mc_path(fam)
        assert set(reach) == {SOURCE, 0, SINK}
        for node, witness in reach.items():
            assert colored_path_conforms(witness, fam)

    def test_one_group_stops_early(self):
        fam = build_family([[path("s", 0, "t")]])
        assert set(brute_mc_path(fam)) == {SOURCE, 0}

    def test_witnesses_are_shortest(self):
        fam = build_family(
            [[path("s", 0, "t")], [path("s", 0, "t")], [path("s", "t")]])
        reach = brute_mc_path(fam)
        assert reach[SINK].nodes == (SOURCE, SINK)


def _singletons(raw) -> PathGroupFamily:
    return PathGroupFamily(tuple(PathGroup((NetPath(nodes),)) for nodes in raw))


# Two five-path dichotomy multisets, the first traversable and the second
# regimented, with the exact step counts at which the search completes and at
# which it first reaches the sink (never, for the regimented one). The
# traversable search completes on reaching the sink, its last node; the
# regimented one, and the pair whose node 2 is unreachable, expand every state.
TRAVERSABLE = (("s", 0, 1, 2, 3, 4, "t"), ("s", 4, 3, 2, 1, 0, "t"),
               ("s", 2, 0, 4, "t"), ("s", 1, 3, "t"), ("s", 3, 1, 4, "t"))
REGIMENTED = (("s", 2, 0, "t"),) * 2 + (("s", 1, 4, 3, "t"),) * 3
UNREACHABLE_NODE = (("s", 0, 1, 2, "t"), ("s", 0, "t"))


class TestOracleBudget:
    @pytest.mark.parametrize("raw, complete, to_sink",
                             [(TRAVERSABLE, 8, 8), (REGIMENTED, 32, 32),
                              (UNREACHABLE_NODE, 7, 4)],
                             ids=["traversable", "regimented", "unreachable-node"])
    def test_one_step_per_option_examined(self, raw, complete, to_sink):
        fam = _singletons(raw)
        reach = brute_mc_path(fam, complete)
        with pytest.raises(BudgetExceeded):
            brute_mc_path(fam, complete - 1)
        assert brute_reaches_sink(fam, to_sink) == (SINK in reach)
        with pytest.raises(BudgetExceeded):
            brute_reaches_sink(fam, to_sink - 1)

    def test_sink_threshold_ignores_the_hash_seed(self):
        script = (
            "from rainbowkit import BudgetExceeded, NetPath, PathGroup, PathGroupFamily\n"
            "from rainbowkit import brute_reaches_sink\n"
            f"fam = PathGroupFamily(tuple(PathGroup((NetPath(p),)) for p in {TRAVERSABLE!r}))\n"
            "for budget in range(20):\n"
            "    try:\n"
            "        print(budget, brute_reaches_sink(fam, budget))\n"
            "        break\n"
            "    except BudgetExceeded:\n"
            "        pass\n")
        src = Path(rainbowkit.__file__).resolve().parents[1]
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs == ["8 True\n"] * 2


@st.composite
def dichotomy_multisets(draw):
    """As many source-sink paths as inner nodes, 1-5 of them, using every
    inner node, each path its own group."""
    inner = draw(st.integers(1, 5))
    interior = st.permutations(range(inner)).flatmap(
        lambda order: st.integers(0, inner).map(lambda r: order[:r]))
    raw = draw(st.lists(interior, min_size=inner, max_size=inner).filter(
        lambda runs: len({v for run in runs for v in run}) == inner))
    return _singletons(("s", *run, "t") for run in raw)


def _full_breadth_first(fam: PathGroupFamily) -> list[tuple]:
    """(node, witness nodes, witness colors) in first-reached order, from a
    breadth-first search over (node, used colors) states that expands every
    state, with each node's options in (head, color) order."""
    def rank(v):
        return -1 if v == SOURCE else math.inf if v == SINK else v

    edges = sorted({(rank(u), rank(v), c, u, v)
                    for c, group in enumerate(fam.groups)
                    for p in group.paths for u, v in zip(p.nodes, p.nodes[1:])})
    first = {SOURCE: ((SOURCE,), ())}
    seen = {(SOURCE, frozenset())}
    queue = [(SOURCE, (SOURCE,), ())]
    for u, nodes, colors in queue:
        for _, _, c, tail, v in edges:
            if tail != u or c in colors:
                continue
            state = (v, frozenset((*colors, c)))
            if state in seen:
                continue
            seen.add(state)
            reached = (nodes + (v,), colors + (c,))
            first.setdefault(v, reached)
            queue.append((v, *reached))
    return [(v, *witness) for v, witness in first.items()]


class TestBruteMcPathStopsEarly:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(networks(), dichotomy_multisets()))
    def test_equals_the_full_search(self, fam):
        reach = brute_mc_path(fam)
        assert [(v, w.nodes, w.colors) for v, w in reach.items()] == \
            _full_breadth_first(fam)


class TestBruteReachesSink:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(networks(), dichotomy_multisets()))
    def test_agrees_with_the_witness_map(self, fam):
        assert brute_reaches_sink(fam) == (SINK in brute_mc_path(fam))


class TestBruteZeroSum:
    def test_blocking_pair(self):
        assert brute_zero_sum(ResidueMultiset(3, (0, 0, 1, 1))) is None

    def test_first_in_order(self):
        assert brute_zero_sum(ResidueMultiset(3, (0, 0, 1, 1, 2))) == (0, 1, 2)

    def test_pair_of_zeros(self):
        assert brute_zero_sum(ResidueMultiset(2, (0, 0, 1))) == (0, 0)


class TestEnumerateMultisets:
    def test_small_count(self):
        out = list(enumerate_multisets(2, 2))
        assert [m.elements for m in out] == [(0, 0), (0, 1), (1, 1)]

    def test_counts_match_formula(self):
        assert len(list(enumerate_multisets(3, 4))) == math.comb(6, 2) == 15

    def test_single_residue(self):
        out = list(enumerate_multisets(1, 5))
        assert len(out) == 1 and out[0].elements == (0,) * 5

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_multisets(6, 11, budget=100))


class TestEnumerateMatchings:
    def test_k33_size_two_count(self):
        assert len(enumerate_matchings(2, 3)) == 18

    def test_all_valid_and_distinct(self):
        out = enumerate_matchings(2, 3)
        assert len({m.key() for m in out}) == len(out)

    def test_negative_size_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_matchings(-1, 2)


class TestGenerate:
    def test_deterministic(self):
        for spec in (
            GenSpec.family_uniform(2, 3, 3, seed=42),
            GenSpec.family_mixed((1, 3, 2), 4, seed=9),
            GenSpec.network(4, 2, 2, seed=5),
            GenSpec.multiset(3, 5, seed=1),
            GenSpec.matrix(3, 2, 4, seed=8),
        ):
            assert generate(spec) == generate(spec)

    def test_uniform_family_is_the_mixed_family_of_equal_sizes(self):
        uniform = GenSpec.family_uniform(2, 3, 3, seed=42)
        assert uniform == GenSpec.family_mixed([2, 2, 2], 3, seed=42)
        assert (uniform.args, uniform.seed) == (((2, 2, 2), 3), 42)

    def test_seeds_vary_output(self):
        a = generate(GenSpec.multiset(5, 8, seed=1))
        b = generate(GenSpec.multiset(5, 8, seed=2))
        assert a != b

    def test_family_shapes(self):
        fam = generate(GenSpec.family_uniform(2, 3, 3, seed=42))
        assert len(fam) == 3 and all(len(m) == 2 for m in fam)
        mixed = generate(GenSpec.family_mixed((1, 3), 4, seed=0))
        assert mixed.sizes == (1, 3)

    def test_family_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec.family_uniform(4, 1, 3, seed=0))

    def test_matrix_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec.matrix(2, 3, 2, seed=0))

    def test_network_regime(self):
        for seed in range(200):
            fam = generate(GenSpec.network(5, 3, 2, seed=seed))
            exits = [p.nodes[-2] for g in fam.groups for p in g.paths]
            assert len(set(exits)) == len(exits)
            assert fam.total_paths <= len(fam.inner_nodes)
            for g in fam.groups:
                for p in g.paths:
                    others = [q for h in fam.groups for q in h.paths if q is not p]
                    assert all(p.nodes[-2] not in q.inner_nodes for q in others)

    def test_canonical_cycle_family(self, c6_family):
        assert canonical_cycle_family(3) == c6_family
