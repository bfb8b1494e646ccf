"""Differential check: one SHA-256 per section over what rainbowkit computes.

Run it against two source trees and compare the lines; a change meant to keep
verdicts, witnesses and reports byte-identical must print the same digests::

    PYTHONPATH=src python3 tools/differential.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/differential.py

Sections:

- ``workloads``: every case of the four benchmark workloads on seeds 1 and
  8191 (``bench/workloads.py``, imported and not changed), with its output
  and its check result;
- ``campaigns``: every campaign's ``to_obj()`` without ``elapsed``;
- ``augmenting``: ``augmenting_paths`` both ways round on seeded pairs of
  matchings with 1-9 vertices a side;
- ``solver``: ``find_rainbow_matching`` at every target, ``classify_family``
  and ``classify_multiset`` on seeded streams;
- ``search``: with each outcome, the states the rainbow search visited and
  the networks it built, on a seeded stream of families with many repeated
  members at every target, on the split cycles of 4-10 vertices in two
  member orders through ``classify_family``, on the split 12-cycle through
  ``find_rainbow_matching`` and on the coprime double piles mod 4-6 through
  ``classify_multiset``;
- ``witnesses``: ``reachable_witness_set``'s whole witness map, in
  insertion order, on a seeded stream of generated networks and one of
  arbitrary networks, where ties between paths stepping to the sink occur,
  with ``find_multicolored_st_path``'s witness on those past its threshold;
- ``mcpath``: ``rainbowkit solve mcpath`` (its exit code, stdout and
  stderr) on network files written by hand from generated networks, some
  groups doubled and empty groups inserted at seeded positions;
- ``oracle``: ``brute_mc_path``'s whole witness map, in insertion order, on
  generated networks (half with every group doubled) and on dichotomy
  multisets of 4 and 5 inner nodes; the sink-only query must agree with it;
- ``dichotomy``: ``verify_regimented_dichotomy``'s outcome on seeded
  dichotomy multisets of 4-8 inner nodes and on a family of L copies of one
  chain with two crossing paths, L = 3-12, which exhaustive order takes
  factorial time to traverse, then ``is_regimented``'s outcome on seeded
  lists of 0-8 paths over up to 5 inner nodes that need not be tight, some
  with every class at its regimented count, some with a direct path;
- ``slice``: the smaller, self-contained run that the test suite pins
  (``tests/test_differential.py``).

Every section runs at the default budget, so none of them sees how a budget
is routed. ``tests/test_campaigns.py`` checks that instead:
``TestBudgetRouting.test_every_call_gets_the_campaign_budget`` that every
search and oracle a campaign starts receives the campaign's budget, and
``TestBudgetRouting.test_every_enumeration_gets_the_campaign_budget`` that
every multicolored-path enumeration inside them, the solver's own per
network among them, starts its meter at that budget.

Inputs are drawn from seeded generators over sorted index lists, never from
set iteration order, and every set or dict is serialized sorted, so the
digests depend on what the code returns and not on hashing. The witness maps
of ``witnesses`` and ``oracle`` keep their insertion order, which is part of
what those functions return.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import rainbowkit as rk
from rainbowkit import cli, jsonio, rainbow_solver
from rainbowkit.campaigns import run_campaign

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (theorem, keyword arguments) for the full run and for the pinned slice
CAMPAIGNS = (
    ("drisko", {"n": 3, "samples": 150, "seed": 1}),
    ("drisko", {"n": 2, "exhaustive": True}),
    ("general", {"samples": 300, "seed": 2}),
    ("bgs", {"n": 5, "samples": 100, "seed": 3}),
    ("extremal", {"n": 2, "exhaustive": True}),
    ("extremal", {"n": 3, "samples": 60, "seed": 4}),
    ("counting", {"samples": 200, "seed": 5}),
    ("dichotomy", {"n": 3}),
    ("egz", {"n": 4, "exhaustive": True}),
    ("egz", {"n": 6}),
    ("egz-extremal", {"n": 4, "exhaustive": True}),
    ("egz-extremal", {"n": 4}),
    ("transversal", {"n": 4, "samples": 200, "seed": 6}),
    ("sharpness", {"n": 5}),
)
SLICE_CAMPAIGNS = (
    ("drisko", {"n": 2, "samples": 40, "seed": 1}),
    ("general", {"samples": 60, "seed": 2}),
    ("bgs", {"n": 4, "samples": 30, "seed": 3}),
    ("extremal", {"n": 2, "exhaustive": True}),
    ("counting", {"samples": 40, "seed": 5}),
    ("dichotomy", {"n": 2}),
    ("egz", {"n": 3, "exhaustive": True}),
    ("egz-extremal", {"n": 3, "exhaustive": True}),
    ("transversal", {"n": 3, "samples": 40, "seed": 6}),
    ("sharpness", {"n": 3}),
)


def plain(obj) -> object:
    """A JSON value for a rainbowkit result: dataclasses as their class name
    and fields, sets and dicts sorted by their serialized items."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__,
                *(plain(getattr(obj, f.name)) for f in dataclasses.fields(obj))]
    if isinstance(obj, dict):
        return sorted(([plain(k), plain(v)] for k, v in obj.items()), key=json.dumps)
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(x) for x in obj), key=json.dumps)
    if isinstance(obj, (tuple, list)):
        return [plain(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def digest(records: list) -> str:
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(call) -> object:
    """The call's serialized result, or the type of the rainbowkit error it
    raised."""
    try:
        return ["ok", plain(call())]
    except rk.RainbowkitError as exc:
        return ["raised", type(exc).__name__]


def _matching(rng: random.Random, size: int, side: int) -> rk.Matching:
    lefts = rng.sample(range(side), size)
    rights = rng.sample(range(side), size)
    return rk.validate_matching(rk.edge(a, b) for a, b in zip(lefts, rights))


def alternating(edges: tuple) -> list:
    """An augmenting path, given as its tuple of edges, as one record of its
    vertex walk and its edges, tagged ``AlternatingPath``."""
    walk = [edges[0].left]
    for e in edges:
        walk.append(e.right if walk[-1] == e.left else e.left)
    return ["AlternatingPath", plain(tuple(walk)), plain(edges)]


def augmenting_section(pairs: int, seed: int = 11) -> list:
    """``augmenting_paths`` both ways round; about a third of the pairs
    share edges."""
    rng = random.Random(seed)
    records = []
    for _ in range(pairs):
        side = rng.randint(1, 9)
        base = _matching(rng, rng.randint(0, side), side)
        other = _matching(rng, rng.randint(0, side), side)
        if base.edges and rng.random() < 0.35:
            shared = rng.sample(sorted(base.edges), rng.randint(1, len(base)))
            kept = [e for e in sorted(other.edges)
                    if all(e.left != f.left and e.right != f.right for f in shared)]
            other = rk.validate_matching(kept + shared)
        records.append([[alternating(p) for p in rk.augmenting_paths(base, other)],
                        [alternating(p) for p in rk.augmenting_paths(other, base)]])
    return records


def _repeating_family(rng: random.Random, most: int, repeat: float) -> rk.MatchingFamily:
    """1 to ``most`` members of size 0-3 on 1-4 vertices a side, each after
    the first a copy of an earlier one with probability ``repeat``."""
    side = rng.randint(1, 4)
    members: list[rk.Matching] = []
    for _ in range(rng.randint(1, most)):
        if members and rng.random() < repeat:
            members.append(members[rng.randrange(len(members))])
        else:
            members.append(_matching(rng, rng.randint(0, min(3, side)), side))
    return rk.MatchingFamily(tuple(members))


def solver_section(draws: int, seed: int = 12) -> list:
    """Mixed families with repeated members at every target, uniform
    families of 2n-2 members through the classifier, and residue multisets
    of 2n-2 elements through the EGZ classifier."""
    rng = random.Random(seed)
    records = []
    for _ in range(draws):
        family = _repeating_family(rng, 6, 0.3)
        records.append([outcome(lambda: rk.find_rainbow_matching(family, t))
                        for t in range(len(family) + 2)])
        n = rng.randint(2, 4)
        spec = rk.GenSpec.family_uniform(n, 2 * n - 2, n + rng.randint(0, 1),
                                         rng.getrandbits(63))
        records.append(outcome(lambda: rk.classify_family(rk.generate(spec))))
        n = rng.randint(2, 6)
        multiset = rk.ResidueMultiset(
            n, tuple(rng.randrange(n) for _ in range(2 * n - 2)))
        records.append(outcome(lambda: rk.classify_multiset(multiset)))
    return records


def counted_outcome(call) -> list:
    """``outcome(call)``, then the states the rainbow search visited and the
    networks it built during the call.

    The solver charges its meter one step per visited state, so its ``Meter``
    is rebound for the call to a subclass that counts the steps spent; meters
    of other modules are not touched. ``build_contracted_network`` is wrapped
    under the name the solver calls it by."""
    counts = [0, 0]
    meter, build = rainbow_solver.Meter, rainbow_solver.build_contracted_network

    class CountingMeter(meter):
        __slots__ = ()

        def spend(self) -> None:
            counts[0] += 1
            super().spend()

    def counted_build(*args):
        counts[1] += 1
        return build(*args)

    rainbow_solver.Meter, rainbow_solver.build_contracted_network = CountingMeter, counted_build
    try:
        return [outcome(call), *counts]
    finally:
        rainbow_solver.Meter, rainbow_solver.build_contracted_network = meter, build


def search_section(draws: int, seed: int = 16) -> list:
    """Families of 1-7 members, each after the first a copy of an earlier one
    with probability one half, at every target; then ``classify_family`` on
    the split cycles for n = 2-5, with the even and odd members first grouped
    and then alternating; then the split cycle for n = 6 at target 6, and
    ``classify_multiset`` on n - 1 copies each of 0 and d mod n for every d
    coprime to n, n = 4-6."""
    rng = random.Random(seed)
    records = []
    for _ in range(draws):
        family = _repeating_family(rng, 7, 0.5)
        records.append([counted_outcome(lambda: rk.find_rainbow_matching(family, t))
                        for t in range(len(family) + 2)])
    for n in range(2, 6):
        members = rk.canonical_cycle_family(n).members
        alternating = tuple(m for pair in zip(members[:n - 1], members[n - 1:])
                            for m in pair)
        records += [counted_outcome(lambda: rk.classify_family(rk.MatchingFamily(order)))
                    for order in (members, alternating)]
    records.append(counted_outcome(
        lambda: rk.find_rainbow_matching(rk.canonical_cycle_family(6), 6)))
    for n in range(4, 7):
        for d in range(1, n):
            if math.gcd(d, n) == 1:
                multiset = rk.ResidueMultiset(n, (0,) * (n - 1) + (d,) * (n - 1))
                records.append(counted_outcome(lambda: rk.classify_multiset(multiset)))
    return records


def _arbitrary_network(rng: random.Random) -> rk.PathGroupFamily:
    """4-14 groups of 0-4 innerly disjoint paths over 2-10 inner nodes, every
    group listed twice a third of the time. Unlike generated networks, two
    paths of a group may step to the sink from nodes reached at one level."""
    inner = rng.randint(2, 10)
    groups = []
    for _ in range(rng.randint(4, 14)):
        taken: set[int] = set()
        group = []
        for _ in range(rng.randint(0, 4)):
            free = [v for v in range(inner) if v not in taken]
            interior = rng.sample(free, rng.randint(0, min(3, len(free))))
            taken.update(interior)
            group.append(rk.make_path(("s", *interior, "t")))
        groups.append(group)
    family = rk.build_family(groups)
    if rng.random() < 1 / 3:
        family = rk.PathGroupFamily(family.groups * 2)
    return family


def witness_section(draws: int, seed: int = 13) -> list:
    """``reachable_witness_set`` on generated networks of 1-7 inner nodes,
    1-4 groups and 1-3 paths a group, then on as many arbitrary networks
    (``_arbitrary_network``). Each record is the witness map in insertion
    order; for an arbitrary network with more paths than inner nodes, it
    also holds ``find_multicolored_st_path``'s outcome."""
    rng = random.Random(seed)
    records = []
    for _ in range(draws):
        spec = rk.GenSpec.network(rng.randint(1, 7), rng.randint(1, 4),
                                  rng.randint(1, 3), rng.getrandbits(63))
        wit = rk.reachable_witness_set(rk.generate(spec))
        records.append([[node, list(w.nodes), list(w.colors)] for node, w in wit.items()])
    for _ in range(draws):
        family = _arbitrary_network(rng)
        wit = rk.reachable_witness_set(family)
        record = [[node, list(w.nodes), list(w.colors)] for node, w in wit.items()]
        if family.total_paths > len(family.inner_nodes):
            record.append(outcome(lambda: rk.find_multicolored_st_path(family)))
        records.append(record)
    return records


def mcpath_section(draws: int, seed: int = 14) -> list:
    """``solve mcpath`` on generated networks of 1-6 inner nodes, 1-4 groups
    and 1-2 paths a group; half of them list every group twice, which puts
    most of those past the constructive threshold, and 0-2 empty groups go
    in at each gap."""
    rng = random.Random(seed)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "net.json"
        for _ in range(draws):
            spec = rk.GenSpec.network(rng.randint(1, 6), rng.randint(1, 4),
                                      rng.randint(1, 2), rng.getrandbits(63))
            groups = jsonio.network_to_obj(rk.generate(spec))
            if rng.random() < 0.5:
                groups += groups
            padded: list = []
            for group in groups:
                padded += [[]] * rng.randint(0, 2)
                padded.append(group)
            padded += [[]] * rng.randint(0, 2)
            net.write_text(json.dumps(padded))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["solve", "mcpath", "--input", str(net)])
            records.append([code, out.getvalue(), err.getvalue()])
    return records


@functools.cache
def _interiors(inner: int) -> list[tuple[int, ...]]:
    """The inner-node sequences of every simple source-sink path on
    ``inner`` nodes."""
    return [interior for r in range(inner + 1)
            for interior in itertools.permutations(range(inner), r)]


def _dichotomy_multiset(rng: random.Random, inner: int) -> list[rk.NetPath]:
    """``inner`` source-sink paths that use every inner node: a quarter
    regimented (each run of a shuffled node order, as many copies as its
    length), the rest drawn uniformly from all simple paths."""
    if rng.random() < 0.25:
        order = rng.sample(range(inner), inner)
        cuts = sorted(rng.sample(range(1, inner), rng.randint(0, inner - 1)))
        runs = [order[a:b] for a, b in zip([0, *cuts], [*cuts, inner])]
        paths = [rk.NetPath(("s", *run, "t")) for run in runs for _ in run]
        rng.shuffle(paths)
        return paths
    pool = _interiors(inner)
    while True:
        drawn = [rng.choice(pool) for _ in range(inner)]
        if len({v for interior in drawn for v in interior}) == inner:
            return [rk.NetPath(("s", *interior, "t")) for interior in drawn]


def oracle_section(draws: int, seed: int = 15) -> list:
    """``brute_mc_path`` on generated networks of 1-7 inner nodes, 1-4 groups
    and 1-3 paths a group, every group listed twice in half of them, and on
    dichotomy multisets of 4 or 5 inner nodes as singleton groups. Each
    record is the witness map in insertion order; the sink-only query is
    checked against it."""
    rng = random.Random(seed)
    records = []
    for i in range(draws):
        if i % 2:
            family = rk.PathGroupFamily(tuple(
                rk.PathGroup((p,)) for p in _dichotomy_multiset(rng, rng.randint(4, 5))))
        else:
            spec = rk.GenSpec.network(rng.randint(1, 7), rng.randint(1, 4),
                                      rng.randint(1, 3), rng.getrandbits(63))
            groups = rk.generate(spec).groups
            if rng.random() < 0.5:
                groups += groups
            family = rk.PathGroupFamily(groups)
        reach = rk.brute_mc_path(family)
        assert rk.brute_reaches_sink(family) == (rk.SINK in reach), family
        records.append([[node, list(w.nodes), list(w.colors)]
                        for node, w in reach.items()])
    return records


def _untight_list(rng: random.Random) -> list[rk.NetPath]:
    """0-8 source-sink paths over up to 5 inner nodes, drawn without tying
    the path count to the node count: half give each of up to three drawn
    paths as many copies as it has inner nodes, so every class has its
    regimented count and the representatives may still share nodes; the
    rest draw paths from all simple ones, the direct path among them."""
    pool = _interiors(rng.randint(0, 5))
    if rng.random() < 0.5:
        paths = []
        for interior in rng.sample(pool, min(3, len(pool))):
            if len(paths) + len(interior) <= 8:
                paths += [rk.NetPath(("s", *interior, "t"))] * len(interior)
        rng.shuffle(paths)
        return paths
    return [rk.NetPath(("s", *rng.choice(pool), "t")) for _ in range(rng.randint(0, 8))]


def dichotomy_section(draws: int, seed: int = 17) -> list:
    """``verify_regimented_dichotomy`` on dichotomy multisets of 4-8 inner
    nodes, then on the family of L copies of s->0->...->L-1->t with the
    crossing paths s->L->L+1->t and s->L+1->L->t, for L = 3-12, then
    ``is_regimented`` on ``draws`` lists that need not be tight. Each record
    is the outcome, so the section pins which pivot the contraction takes
    beyond the benchmark's multisets of 4 and 5 inner nodes, and the
    disjointness test failing after every class count matched, which it
    never does on a tight multiset."""
    rng = random.Random(seed)
    families = [_dichotomy_multiset(rng, rng.randint(4, 8)) for _ in range(draws)]
    for L in range(3, 13):
        families.append([rk.NetPath(("s", *range(L), "t"))] * L + [
            rk.NetPath(("s", L, L + 1, "t")), rk.NetPath(("s", L + 1, L, "t"))])
    records = [outcome(lambda: rk.verify_regimented_dichotomy(paths)) for paths in families]
    lists = [_untight_list(rng) for _ in range(draws)]
    return records + [outcome(lambda: rk.is_regimented(paths)) for paths in lists]


def campaign_section(runs) -> list:
    records = []
    for theorem, kwargs in runs:
        report = run_campaign(theorem, **kwargs).to_obj()
        del report["elapsed"]
        records.append(report)
    return records


def workload_section(seeds=(1, 8191)) -> list:
    sys.path.insert(0, str(BENCH))
    import checks
    from workloads import WORKLOADS

    records = []
    for name in sorted(WORKLOADS):
        for seed in seeds:
            for case in WORKLOADS[name](rk, seed):
                out = case.call()
                try:
                    verdict = case.check(out)
                except checks.Missing as exc:
                    verdict = f"missing: {exc}"
                records.append([name, seed, plain(out), verdict])
    return records


def slice_records() -> list:
    """The pinned slice: seeded streams and small campaigns, no benchmark
    import, a few seconds."""
    return [augmenting_section(5000), solver_section(500),
            campaign_section(SLICE_CAMPAIGNS)]


def main() -> None:
    sections = {
        "workloads": workload_section,
        "campaigns": lambda: campaign_section(CAMPAIGNS),
        "augmenting": lambda: augmenting_section(100_000),
        "solver": lambda: solver_section(3000),
        "search": lambda: search_section(3000),
        "witnesses": lambda: witness_section(20_000),
        "mcpath": lambda: mcpath_section(5000),
        "oracle": lambda: oracle_section(20_000),
        "dichotomy": lambda: dichotomy_section(20_000),
        "slice": slice_records,
    }
    for name, build in sections.items():
        print(name, digest(build()), flush=True)


if __name__ == "__main__":
    main()
