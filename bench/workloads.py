"""The four seeded instance streams.

Each builder takes the imported ``rainbowkit`` package and a seed and returns
a list of cases. A case is one verdict: a call into the public API, made
through attributes of the package so that a tracer can stand in for them,
and an independent check of what the call returned. The same (workload,
seed) pair always yields the same cases.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks


@dataclass(frozen=True)
class Case:
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _raw_members(family) -> list[frozenset]:
    return [frozenset((e.left.index, e.right.index) for e in m.edges)
            for m in family.members]


def _family(rk, members) -> object:
    return rk.MatchingFamily(tuple(
        rk.validate_matching(rk.edge(left, right) for left, right in m)
        for m in members))


def _rainbow_case(rk, family, target: int) -> Case:
    """``find_rainbow_matching`` where the threshold promises a witness."""
    members = _raw_members(family)

    def check(out) -> Optional[str]:
        if out is None:
            raise checks.Missing(f"no rainbow matching of size {target} at the threshold")
        assignment = [(c, (e.left.index, e.right.index)) for c, e in out.entries]
        return checks.rainbow_defect(members, target, assignment)

    return Case(lambda: rk.find_rainbow_matching(family, target), check)


def drisko_threshold(rk, seed: int) -> list[Case]:
    """Uniform families of 2n-1 matchings of size n on n+1 vertices a side,
    n = 4 and 5, and mixed-size families at the largest target their sorted
    sizes guarantee."""
    rng = _rng("drisko-threshold", seed)
    cases = []
    for n in (4, 5):
        for _ in range(250):
            spec = rk.GenSpec.family_uniform(n, 2 * n - 1, n + 1, rng.getrandbits(63))
            cases.append(_rainbow_case(rk, rk.generate(spec), n))
    for _ in range(500):
        count = rng.randint(3, 9)
        sizes = tuple(rng.randint(1, 6) for _ in range(count))
        target = max(t for t in range(1, min(count, max(sizes)) + 1)
                     if checks.threshold_holds(sizes, t))
        side = max(sizes) + rng.randint(0, 2)
        spec = rk.GenSpec.family_mixed(sizes, side, rng.getrandbits(63))
        cases.append(_rainbow_case(rk, rk.generate(spec), target))
    return cases


def _zero_sum_case(rk, multiset) -> Case:
    n, elements = multiset.modulus, multiset.elements

    def check(out) -> Optional[str]:
        if out is None:
            raise checks.Missing(f"no zero-sum witness among {2 * n - 1} residues mod {n}")
        return checks.zero_sum_defect(n, elements, out)

    return Case(lambda: rk.find_zero_sum_subset(multiset), check)


def _classify_multiset_case(rk, multiset) -> Case:
    n, elements = multiset.modulus, multiset.elements

    def check(out) -> Optional[str]:
        if hasattr(out, "witness"):
            return checks.zero_sum_defect(n, elements, out.witness)
        if checks.has_zero_sum(n, elements):
            return f"blocking pair claimed for {elements} mod {n}, which has a zero sum"
        return checks.blocking_pair_defect(n, elements, (out.low, out.high))

    return Case(lambda: rk.classify_multiset(multiset), check)


def egz_shifts(rk, seed: int) -> list[Case]:
    """Residue multisets mod 6, 7 and 8: 2n-1 of them through the zero-sum
    search, 2n-2 of them through the classifier."""
    rng = _rng("egz-shifts", seed)
    cases = []
    for n in (6, 7, 8):
        for _ in range(120):
            full = rk.generate(rk.GenSpec.multiset(n, 2 * n - 1, rng.getrandbits(63)))
            cases.append(_zero_sum_case(rk, full))
            short = rk.generate(rk.GenSpec.multiset(n, 2 * n - 2, rng.getrandbits(63)))
            cases.append(_classify_multiset_case(rk, short))
    return cases


def _split_cycle_case(rk, rng: random.Random) -> Case:
    """Two copies each of the two perfect matchings of one 6-cycle, in a
    seeded color order, on 4 or 5 vertices a side."""
    side = rng.choice((4, 5))
    lefts = rng.sample(range(side), 3)
    rights = rng.sample(range(side), 3)
    shift = rng.choice((1, 2))
    even = frozenset((lefts[i], rights[i]) for i in range(3))
    odd = frozenset((lefts[i], rights[(i + shift) % 3]) for i in range(3))
    order = [even, even, odd, odd]
    rng.shuffle(order)
    family = _family(rk, order)
    even_colors = frozenset(c for c, m in enumerate(order) if m is even)
    odd_colors = frozenset(c for c, m in enumerate(order) if m is odd)

    def check(out) -> Optional[str]:
        if not hasattr(out, "cycle"):
            return f"split cycle {sorted(even)}/{sorted(odd)} classified as feasible"
        cycle = tuple((int(v.side), v.index) for v in out.cycle)
        return checks.split_cycle_defect(even, odd, even_colors, odd_colors, cycle,
                                         out.even_colors, out.odd_colors)

    return Case(lambda: rk.classify_family(family), check)


def _canonical_cycle_case(rk, n: int) -> Case:
    """n-1 copies each of the even and the odd edges of the cycle on 2n
    vertices; a perfect matching of the cycle is one of the two, and neither
    has n colors, so no rainbow matching of size n exists."""
    even = [(i, i) for i in range(n)]
    odd = [((i + 1) % n, i) for i in range(n)]
    family = _family(rk, [even] * (n - 1) + [odd] * (n - 1))

    def check(out) -> Optional[str]:
        return None if out is None else f"rainbow matching found in the split {2 * n}-cycle"

    return Case(lambda: rk.find_rainbow_matching(family, n), check)


def _double_pile_case(rk, rng: random.Random, n: int) -> Case:
    """n-1 copies each of two residues mod n whose difference is coprime to
    n: every n of them sum to k*a + (n-k)*b = k*(a-b) mod n with 0 < k < n."""
    low = rng.randrange(n)
    high = (low + rng.choice([d for d in range(1, n) if math.gcd(d, n) == 1])) % n
    low, high = sorted((low, high))
    multiset = rk.ResidueMultiset(n, (low,) * (n - 1) + (high,) * (n - 1))

    def check(out) -> Optional[str]:
        if (getattr(out, "low", None), getattr(out, "high", None)) != (low, high):
            return f"double pile {low},{high} mod {n} not classified as that pair: {out}"
        return None

    return Case(lambda: rk.classify_multiset(multiset), check)


def blocking_search(rk, seed: int) -> list[Case]:
    """Instances without a solution: split 6-cycle families, the canonical
    split cycles for n = 4..6 and coprime double piles mod 4..6.

    The n = 6 pair, the slowest by far, is 1.5% of the cases, so the 99th
    percentile falls inside that pair's times, not on the boundary between
    two sizes.
    """
    rng = _rng("blocking-search", seed)
    cases = [_split_cycle_case(rk, rng) for _ in range(127)]
    for n in (4, 5, 6):
        cases.append(_canonical_cycle_case(rk, n))
        cases.append(_double_pile_case(rk, rng, n))
    return cases


def _simple_paths(inner: int) -> list[tuple]:
    return [(checks.SOURCE, *interior, checks.SINK)
            for r in range(inner + 1)
            for interior in itertools.permutations(range(inner), r)]


def _regimented_sample(rng: random.Random, inner: int) -> list[tuple]:
    """Cut a shuffled node order into paths; a path with j inner nodes
    appears j times."""
    order = rng.sample(range(inner), inner)
    cuts = sorted(rng.sample(range(1, inner), rng.randrange(inner)))
    paths = []
    for a, b in zip([0] + cuts, cuts + [inner]):
        path = (checks.SOURCE, *order[a:b], checks.SINK)
        paths.extend([path] * (b - a))
    rng.shuffle(paths)
    return paths


def _covering_sample(rng: random.Random, pool: list[tuple], inner: int) -> list[tuple]:
    """Paths drawn uniformly from ``pool`` until a draw uses every node."""
    while True:
        paths = [rng.choice(pool) for _ in range(inner)]
        if len({v for p in paths for v in p[1:-1]}) == inner:
            return paths


def _dichotomy_case(rk, raw: list[tuple]) -> Case:
    paths = [rk.make_path(p) for p in raw]

    def call():
        claimed = rk.is_regimented(paths)
        family = rk.PathGroupFamily(tuple(rk.PathGroup((p,)) for p in paths))
        reach = rk.brute_mc_path(family)
        return claimed, reach, rk.verify_regimented_dichotomy(paths)

    def check(out) -> Optional[str]:
        claimed, reach, verdict = out
        classes = None if claimed is None else {
            p.nodes: copies for p, copies in claimed.classes}
        sink = reach.get(checks.SINK)
        sink_path = None if sink is None else (sink.nodes, sink.colors)
        if hasattr(verdict, "classes"):
            outcome = ("regimented", {p.nodes: c for p, c in verdict.classes})
        else:
            outcome = ("path", verdict.nodes, verdict.colors)
        return checks.dichotomy_defect(raw, classes, sink_path, outcome)

    return Case(call, check)


def dichotomy(rk, seed: int) -> list[Case]:
    """Multisets of as many source-sink paths as inner nodes, 4 or 5 inner
    nodes, every node used; a quarter are regimented by construction, since
    uniform draws almost never are."""
    rng = _rng("dichotomy", seed)
    pools = {inner: _simple_paths(inner) for inner in (4, 5)}
    cases = []
    for _ in range(4000):
        inner = rng.choice((4, 5))
        if rng.random() < 0.25:
            raw = _regimented_sample(rng, inner)
        else:
            raw = _covering_sample(rng, pools[inner], inner)
        cases.append(_dichotomy_case(rk, raw))
    return cases


WORKLOADS: dict[str, Callable[[object, int], list[Case]]] = {
    "drisko-threshold": drisko_threshold,
    "egz-shifts": egz_shifts,
    "blocking-search": blocking_search,
    "dichotomy": dichotomy,
}
