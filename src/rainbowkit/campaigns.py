"""Verification campaigns: each runs one guarantee over many instances and
counts violations.

A runner returns its report parameters and a lazy stream with one fault count
per checked instance (a bool, or the number of verdict sources that answered
wrongly); ``run_campaign`` alone counts the instances and sums the faults.
Reports are deterministic given the seed (instance streams derive from one
seeded generator), so repeating a campaign reproduces it byte for byte apart
from the elapsed field.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import (DEFAULT_BUDGET, BudgetExceeded, DichotomyViolation, PreconditionError,
                     charge, charge_multisets)
from .graph_core import MatchingFamily, rainbow_is_valid
from .network_paths import (
    SINK,
    SOURCE,
    NetPath,
    PathGroup,
    PathGroupFamily,
    colored_path_conforms,
    reachable_witness_set,
    verify_regimented_dichotomy,
    Regimentation,
)
from .oracle import (
    GenSpec,
    brute_mc_path,
    brute_rainbow,
    brute_reaches_sink,
    brute_zero_sum,
    canonical_cycle_family,
    enumerate_matchings,
    enumerate_multisets,
    generate,
)
from .rainbow_solver import (
    ExtremalCycle,
    classify_family,
    drisko_condition,
    find_rainbow_matching,
)
from .reductions import (
    ExtremalPair,
    classify_multiset,
    find_transversal,
    find_zero_sum_subset,
    transversal_is_valid,
)

@dataclass
class CampaignReport:
    theorem: str
    instances_checked: int
    violations: int
    elapsed: float
    seed: int
    parameters: dict

    def to_obj(self) -> dict:
        return asdict(self)


def run_campaign(theorem: str, *, n: Optional[int] = None,
                 samples: Optional[int] = None, exhaustive: bool = False,
                 seed: Optional[int] = None,
                 budget: int = DEFAULT_BUDGET) -> CampaignReport:
    """Run the named campaign and return its report.

    ``n`` and ``samples`` default per campaign when None, and ``seed``
    defaults to 0. A value below the campaign's smallest meaningful one
    raises PreconditionError, and so do a flag the run would not read
    (``exhaustive`` for a campaign without that mode, ``samples`` or
    ``seed`` for a run that draws nothing) and a run that checks no instance
    at all. ``budget`` bounds every search and brute-force oracle call the
    run starts, the size of each exhaustive enumeration and the largest
    instance a sampled run can draw; every size is charged before the first
    instance, and one over budget raises BudgetExceeded.
    """
    if theorem not in _RUNNERS:
        raise PreconditionError(f"unknown theorem {theorem!r}; pick one of {THEOREMS}")
    runner, default_n, min_n, default_samples, has_exhaustive = _RUNNERS[theorem]
    if exhaustive and not has_exhaustive:
        raise PreconditionError(f"{theorem} has no exhaustive mode")
    if default_samples is None or exhaustive:
        run = f"exhaustive {theorem}" if exhaustive else theorem
        for flag, value in (("samples", samples), ("seed", seed)):
            if value is not None:
                raise PreconditionError(
                    f"{run} draws no random instances, so it ignores {flag}")
    n = default_n if n is None else n
    samples = default_samples if samples is None else samples
    seed = 0 if seed is None else seed
    if n < min_n:
        raise PreconditionError(f"{theorem} needs n >= {min_n}, got {n}")
    if samples is not None and samples < 1:
        raise PreconditionError(f"samples must be positive, got {samples}")
    start = time.perf_counter()
    parameters, faults = runner(n, samples, exhaustive, seed, budget)
    checked = violations = 0
    for fault in faults:
        checked += 1
        violations += fault
    elapsed = time.perf_counter() - start
    if checked == 0:
        raise PreconditionError(f"{theorem} checked no instances")
    return CampaignReport(theorem, checked, violations, round(elapsed, 3),
                          seed, parameters)


def _rainbow_fault(found, family: MatchingFamily, size: int) -> bool:
    """True unless ``found`` is a valid rainbow matching of ``size`` edges."""
    return found is None or len(found) != size or not rainbow_is_valid(found, family)


def _verdict(classify, instance, budget):
    """``classify(instance, budget)``, or None on any error but BudgetExceeded."""
    try:
        return classify(instance, budget)
    except BudgetExceeded:
        raise
    except Exception:
        return None


def _uniform_families(n, count, samples, exhaustive, seed, budget):
    """Families of ``count`` size-n matchings on side n + 1: every multiset
    of matchings when exhaustive, else ``samples`` seeded draws. Returns the
    lazy stream and its report parameters."""
    if exhaustive:
        # enumerate_matchings(n, n + 1) lists comb(n + 1, n)**2 * n! matchings,
        # more than count; past the budget's bits the charge refuses on count
        # alone, so the factorial is computed only below them
        kinds = (count + 1 if count > budget.bit_length()
                 else math.comb(n + 1, n) * math.perm(n + 1, n))
        charge_multisets(kinds, count, budget)
        pool = enumerate_matchings(n, n + 1)
        families = map(MatchingFamily,
                       itertools.combinations_with_replacement(pool, count))
        return families, {"n": n, "mode": "exhaustive", "side": n + 1}
    charge(count * n, "edges", budget)
    rng = random.Random(seed)
    families = (generate(GenSpec.family_uniform(n, count, n + 1, rng.getrandbits(63)))
                for _ in range(samples))
    return families, {"n": n, "mode": "sampled", "samples": samples, "side": n + 1}


def _run_drisko(n, samples, exhaustive, seed, budget):
    """Every family of 2n-1 matchings of size n has a rainbow matching of
    size n; witnesses are revalidated."""
    families, params = _uniform_families(n, 2 * n - 1, samples, exhaustive, seed, budget)
    return params, (_rainbow_fault(find_rainbow_matching(family, n, budget), family, n)
                    for family in families)


def _run_sharpness(n, samples, exhaustive, seed, budget):
    """The canonical 2n-cycle family of 2n-2 matchings is infeasible at
    target n, per both the solver and the oracle (one fault each)."""
    charge((2 * n - 2) * n, "edges", budget)

    def faults():
        for k in range(2, n + 1):
            family = canonical_cycle_family(k)
            yield ((find_rainbow_matching(family, k, budget) is not None)
                   + (brute_rainbow(family, k, budget) is not None))
    return {"n_max": n}, faults()


def _run_general(n, samples, exhaustive, seed, budget):
    """Mixed-size families: whenever the sorted-size threshold holds the
    solver must produce a rainbow matching of the target size; otherwise its
    feasibility verdict must match the brute-force oracle."""
    charge(9 * n, "edges", budget)

    def faults():
        rng = random.Random(seed)
        for _ in range(samples):
            m = rng.randint(1, 9)
            sizes = [rng.randint(1, n) for _ in range(m)]
            side = max(sizes) + rng.randint(0, 2)
            family = generate(GenSpec.family_mixed(tuple(sizes), side, rng.getrandbits(63)))
            target = rng.randint(1, min(m, n))
            found = find_rainbow_matching(family, target, budget)
            if found is not None and _rainbow_fault(found, family, target):
                yield True
            elif drisko_condition(family.sizes, target):
                yield found is None
            else:
                yield (found is None) != (brute_rainbow(family, target, budget) is None)
    return {"samples": samples, "max_size": n, "max_m": 9}, faults()


def _run_bgs(n, samples, exhaustive, seed, budget):
    """Uniform families at the floor((k+2)n/(k+1)) - (k+1) member count have
    a rainbow matching of size n-k, for k in {1, 2}."""
    charge((3 * n // 2 - 2) * n, "edges", budget)
    combos = [(nn, k) for k in (1, 2) for nn in range(2, n + 1)
              if (k + 2) * nn // (k + 1) - (k + 1) >= 1 and nn - k >= 1]

    def faults():
        rng = random.Random(seed)
        for _ in range(samples):
            nn, k = combos[rng.randrange(len(combos))]
            m = (k + 2) * nn // (k + 1) - (k + 1)
            family = generate(GenSpec.family_uniform(nn, m, nn + 1, rng.getrandbits(63)))
            target = nn - k
            yield (not drisko_condition(family.sizes, target)
                   or _rainbow_fault(find_rainbow_matching(family, target, budget), family, target))
    return {"samples": samples, "n_max": n, "k": [1, 2]}, faults()


def _run_counting(n, samples, exhaustive, seed, budget):
    """Constructive reachability: the witness set is valid, lies inside the
    oracle's exact reachable set, and outnumbers the paths."""
    charge(n, "inner nodes", budget)

    def faults():
        rng = random.Random(seed)
        for _ in range(samples):
            spec = GenSpec.network(
                inner=rng.randint(1, n),
                groups=rng.randint(1, 3),
                paths_per_group=rng.randint(1, 2),
                seed=rng.getrandbits(63),
            )
            family = generate(spec)
            witnesses = reachable_witness_set(family)
            exact = brute_mc_path(family, budget)
            yield len(witnesses) <= family.total_paths or not all(
                colored_path_conforms(path, family) and node in exact
                and path.target == node
                for node, path in witnesses.items())
    return {"samples": samples, "max_inner": n, "max_paths": 6}, faults()


def _all_simple_paths(inner: int) -> list[NetPath]:
    out = []
    for r in range(inner + 1):
        for interior in itertools.permutations(range(inner), r):
            out.append(NetPath((SOURCE, *interior, SINK)))
    return out


def _run_dichotomy(n, samples, exhaustive, seed, budget):
    """Multisets of exactly as many source-sink paths as inner nodes in use:
    verify_regimented_dichotomy calls each one regimented exactly when the
    oracle finds no multicolored source-sink path, and otherwise returns a
    conforming path."""
    # _all_simple_paths(inner) lists one path per ordered choice of inner nodes
    for inner in range(n + 1):
        charge_multisets(sum(math.perm(inner, r) for r in range(inner + 1)), inner, budget)

    def faults():
        for inner in range(0, n + 1):
            # each path with its inner-node bitmask and its singleton group
            pool = [(sum(1 << v for v in p.nodes[1:-1]), p, PathGroup((p,)))
                    for p in _all_simple_paths(inner)]
            full = (1 << inner) - 1
            for multiset in itertools.combinations_with_replacement(pool, inner):
                used = 0
                for mask, _, _ in multiset:
                    used |= mask
                if used != full:
                    continue
                family = PathGroupFamily(tuple(group for _, _, group in multiset))
                reaches_sink = brute_reaches_sink(family, budget)
                try:
                    outcome = verify_regimented_dichotomy(p for _, p, _ in multiset)
                except DichotomyViolation:
                    yield True
                    continue
                if isinstance(outcome, Regimentation):
                    yield reaches_sink
                else:
                    yield not (reaches_sink and colored_path_conforms(outcome, family))
    return {"max_inner": n, "mode": "exhaustive"}, faults()


def _six_cycle_splits(side: int) -> list[tuple]:
    """The unordered matching pair splitting each 6-cycle of the complete
    bipartite graph with the given side size.

    Two edge-disjoint perfect matchings on the same three vertices per side
    always union to a single 6-cycle, so the pairs are exactly (matching,
    derangement). ``enumerate_matchings`` lists the matchings on each vertex
    set together, in ascending key order."""
    def vertices(matching):
        return frozenset(v for e in matching.edges for v in e.vertices)

    pairs = [pair for _, same in itertools.groupby(enumerate_matchings(3, side), vertices)
             for pair in itertools.combinations(same, 2)
             if pair[0].edges.isdisjoint(pair[1].edges)]
    return sorted(pairs, key=lambda pair: (pair[0].key(), pair[1].key()))


def _check_classification(family: MatchingFamily, n: int, budget: int) -> bool:
    """True when classify_family agrees with brute feasibility and any
    extremal verdict is structurally sound."""
    oracle_found = brute_rainbow(family, n, budget)
    verdict = _verdict(classify_family, family, budget)
    if verdict is None:
        return False
    if isinstance(verdict, ExtremalCycle):
        if oracle_found is not None:
            return False
        counts = (len(verdict.even_colors), len(verdict.odd_colors))
        return counts == (n - 1, n - 1) and len(verdict.cycle) == 2 * n
    return oracle_found is not None and rainbow_is_valid(verdict.witness, family)


def _run_extremal(n, samples, exhaustive, seed, budget):
    """No-rainbow families of 2n-2 size-n matchings are exactly the split
    cycles; classify_family never falls through."""
    families, params = _uniform_families(n, 2 * n - 2, samples, exhaustive, seed, budget)
    if not exhaustive:
        params["cycle_sweep"] = n == 3
        if n == 3:
            families = itertools.chain(families, (
                MatchingFamily((even,) * even_count + (odd,) * (4 - even_count))
                for even, odd in _six_cycle_splits(4) for even_count in range(0, 5)))
    return params, (not _check_classification(family, n, budget) for family in families)


def _residue_multisets(n, lowest, exhaustive, extra, budget):
    """Every multiset of 2k + extra residues mod k, for each k from ``lowest``
    to n when exhaustive and for n alone otherwise, as one lazy stream with
    its report parameters; every enumeration is charged before the first."""
    ns = range(lowest, n + 1) if exhaustive else [n]
    for k in ns:
        charge_multisets(k, 2 * k + extra, budget)
    return (itertools.chain.from_iterable(
        enumerate_multisets(k, 2 * k + extra, budget) for k in ns),
        {"n_max" if exhaustive else "n": n, "mode": "exhaustive"})


def _run_egz(n, samples, exhaustive, seed, budget):
    """Every multiset of 2n-1 residues mod n has a zero-sum sub-multiset of
    size n; witnesses are revalidated and feasibility matches the oracle."""
    multisets, params = _residue_multisets(n, 1, exhaustive, -1, budget)
    return params, (find_zero_sum_subset(multiset, budget) is None
                    or brute_zero_sum(multiset, budget) is None for multiset in multisets)


def _run_egz_extremal(n, samples, exhaustive, seed, budget):
    """Multisets of 2n-2 residues with no zero-sum sub-multiset are exactly
    the coprime-difference double piles."""
    multisets, params = _residue_multisets(n, 2, exhaustive, -2, budget)

    def faults():
        for multiset in multisets:
            k = multiset.modulus
            oracle_found = brute_zero_sum(multiset, budget)
            verdict = _verdict(classify_multiset, multiset, budget)
            if verdict is None:
                yield True
            elif isinstance(verdict, ExtremalPair):
                count = multiset.elements.count
                shape_ok = (count(verdict.low) == count(verdict.high) == k - 1
                            and math.gcd(verdict.high - verdict.low, k) == 1)
                yield oracle_found is not None or not shape_ok
            else:
                yield oracle_found is None
    return params, faults()


def _run_transversal(n, samples, exhaustive, seed, budget):
    """Row-distinct matrices with 2n-1 rows and n columns always have a full
    transversal satisfying all three distinctness constraints."""
    charge((2 * n - 1) * n, "cells", budget)

    def faults():
        rng = random.Random(seed)
        for _ in range(samples):
            cols = rng.randint(1, n)
            symbols = cols + rng.randint(0, 2)
            spec = GenSpec.matrix(2 * cols - 1, cols, symbols, rng.getrandbits(63))
            matrix = generate(spec)
            found = find_transversal(matrix, budget)
            yield found is None or not transversal_is_valid(matrix, found)
    return {"samples": samples, "n_max": n}, faults()


# name -> (runner, default n, smallest n, default samples or None when the
# campaign draws nothing, whether it has an exhaustive mode); a runner takes
# (n, samples, exhaustive, seed, budget) and returns (parameters, faults),
# one fault count per checked instance, which run_campaign counts and sums
# (every size is charged before it returns)
_RUNNERS = {
    "drisko": (_run_drisko, 3, 1, 1000, True),
    "general": (_run_general, 5, 1, 1000, False),
    "bgs": (_run_bgs, 5, 2, 200, False),
    "extremal": (_run_extremal, 2, 2, 1000, True),
    "counting": (_run_counting, 6, 1, 1000, False),
    "dichotomy": (_run_dichotomy, 4, 0, None, False),
    "egz": (_run_egz, 6, 1, None, True),
    "egz-extremal": (_run_egz_extremal, 6, 2, None, True),
    "transversal": (_run_transversal, 5, 1, 1000, False),
    "sharpness": (_run_sharpness, 6, 2, None, False),
}
THEOREMS = tuple(_RUNNERS)
