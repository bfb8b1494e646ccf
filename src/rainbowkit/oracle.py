"""Brute-force references and seeded instance generators.

The searches here are deliberately exponential, independent of the
constructive algorithms they are used to check, and count elementary steps
against an explicit budget (default ten million) instead of silently
truncating. A generator spec is its kind's builder, the builder's arguments
and a seed; the builder draws from ``random.Random`` (the Mersenne Twister,
stable across platforms), so one spec always yields one instance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InfeasibleSpec,
    Meter,
    PreconditionError,
    charge_multisets,
)
from .graph_core import (
    Edge,
    Matching,
    MatchingFamily,
    RainbowMatching,
    Vertex,
    edge,
    validate_matching,
)
from .network_paths import (
    SINK,
    SOURCE,
    ColoredPath,
    NetNode,
    NetPath,
    PathGroupFamily,
    build_family,
)
from .reductions import ResidueMultiset, SymbolMatrix

def brute_rainbow(family: MatchingFamily, size: int,
                  budget: int = DEFAULT_BUDGET) -> Optional[RainbowMatching]:
    """Lexicographically first rainbow matching of the given size, or None.

    Tries every ascending color subset and, inside each, every choice of one
    edge per color, keeping only pairwise disjoint choices.
    """
    if size < 0:
        raise PreconditionError("size must be non-negative")
    count = len(family)
    if size == 0:
        return RainbowMatching(())
    if size > count:
        return None
    meter = Meter(budget)
    member_edges = [sorted(m.edges) for m in family]

    def extend(colors: tuple[int, ...], k: int,
               chosen: list[Edge], used: set[Vertex]) -> bool:
        if k == size:
            return True
        for e in member_edges[colors[k]]:
            meter.spend()
            if e.left in used or e.right in used:
                continue
            chosen.append(e)
            used.add(e.left)
            used.add(e.right)
            if extend(colors, k + 1, chosen, used):
                return True
            chosen.pop()
            used.discard(e.left)
            used.discard(e.right)
        return False

    for colors in itertools.combinations(range(count), size):
        chosen: list[Edge] = []
        if extend(colors, 0, chosen, set()):
            return RainbowMatching(tuple(zip(colors, chosen)))
    return None


# per reached node: the color mask of each state on it -> (predecessor, color)
_Links = dict[NetNode, dict[int, tuple[NetNode, int]]]


def _first_reached(family: PathGroupFamily, budget: int,
                   links: _Links) -> Iterator[tuple[NetNode, int]]:
    """Breadth-first over (node, used-color bitmask) states from the source;
    yield each node other than the source, with the mask of the state that
    first reaches it, when that state is found.

    ``links`` (empty on entry) fills with each reached state's predecessor
    node and the color of the edge taken from it; the predecessor's mask is
    the state's mask without that color. Every option examined costs one
    step of ``budget``. Options are walked as sorted lists, so the order, and
    with it the step at which the budget runs out, is the same under every
    hash seed. The search returns right after it yields the last node that
    some option enters: the states it would still expand could reach no new
    node. When some such node is unreachable, every state is expanded.
    """
    edges: set[tuple[float, float, int, NetNode, NetNode]] = set()
    for color, group in enumerate(family.groups):
        for p in group.paths:
            keys = (-1,) + p.key()  # the node_key of every node
            edges.update(zip(keys, keys[1:], itertools.repeat(color),
                             p.nodes, p.nodes[1:]))
    options: dict[NetNode, list[tuple[NetNode, int, int, dict]]] = {}
    for _, _, color, u, v in sorted(edges):
        options.setdefault(u, []).append(
            (v, color, 1 << color, links.setdefault(v, {})))
    # every node that some option enters, and so might still be reached
    unreached = len(links)
    left = budget
    queue = [(SOURCE, 0)]
    # the sink has no options, so its states cost no step once queued
    for u, used in queue:
        for v, c, bit, into in options.get(u, ()):
            left -= 1
            if left < 0:
                raise BudgetExceeded("step budget exhausted")
            if used & bit:
                continue
            mask = used | bit
            if mask in into:
                continue
            into[mask] = (u, c)
            if len(into) == 1:
                yield v, mask
                unreached -= 1
                if not unreached:
                    return
            queue.append((v, mask))


def brute_mc_path(family: PathGroupFamily,
                  budget: int = DEFAULT_BUDGET) -> dict[NetNode, ColoredPath]:
    """Exact reachability: every node with some multicolored path from the
    source, each with a witness.

    Breadth-first over (node, used-color-set) states, stopped once every
    node that some path enters has its witness. Any walk with distinct edge
    colors contains a simple path with the same property (cut out the
    loops), so node revisits need no tracking; the first witness recorded per
    node is shortest and therefore simple. The map lists the nodes in the
    order the search first reaches them, after the source.
    """
    links: _Links = {}
    firsts = list(_first_reached(family, budget, links))
    witness = {SOURCE: ColoredPath((SOURCE,), ())}
    for v, used in firsts:
        node = v
        nodes: list[NetNode] = [node]
        colors: list[int] = []
        while node != SOURCE:
            node, c = links[node][used]
            used ^= 1 << c
            nodes.append(node)
            colors.append(c)
        witness[v] = ColoredPath(tuple(reversed(nodes)), tuple(reversed(colors)))
    return witness


def brute_reaches_sink(family: PathGroupFamily,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some multicolored path runs from the source to the sink.

    The same search as ``brute_mc_path``, stopped at the first state on the
    sink, with no witness built.
    """
    return any(v == SINK for v, _ in _first_reached(family, budget, {}))


def brute_zero_sum(multiset: ResidueMultiset,
                   budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """First size-n sub-multiset (in sorted order) summing to zero mod n."""
    n = multiset.modulus
    if len(multiset) < n:
        return None
    meter = Meter(budget)
    for combo in itertools.combinations(multiset.elements, n):
        meter.spend()
        if sum(combo) % n == 0:
            return combo
    return None


def enumerate_multisets(n: int, size: int,
                        budget: int = DEFAULT_BUDGET) -> Iterator[ResidueMultiset]:
    """Every multiset of the given size over the residues mod n, ascending."""
    if n < 1 or size < 0:
        raise PreconditionError("need a positive modulus and non-negative size")
    charge_multisets(n, size, budget)
    for combo in itertools.combinations_with_replacement(range(n), size):
        yield ResidueMultiset(n, combo)


def enumerate_matchings(size: int, side: int) -> list[Matching]:
    """Every matching of ``size`` edges in the complete bipartite graph with
    ``side`` vertices per side, in a fixed order."""
    if size < 0:
        raise PreconditionError("size must be non-negative")
    out: list[Matching] = []
    for lefts in itertools.combinations(range(side), size):
        for rights in itertools.combinations(range(side), size):
            for image in itertools.permutations(rights):
                out.append(validate_matching(
                    edge(lefts[i], image[i]) for i in range(size)))
    return out


def canonical_cycle_family(n: int) -> MatchingFamily:
    """The tight family: n-1 copies each of the even and the odd edges of a
    cycle on 2n vertices."""
    if n < 2:
        raise InfeasibleSpec("the cycle family needs n >= 2")
    even = validate_matching(edge(i, i) for i in range(n))
    odd = validate_matching(edge((i + 1) % n, i) for i in range(n))
    return MatchingFamily((even,) * (n - 1) + (odd,) * (n - 1))


Instance = Union[MatchingFamily, PathGroupFamily, ResidueMultiset, SymbolMatrix]


@dataclass(frozen=True, slots=True)
class GenSpec:
    """Seeded description of a random instance: its kind's builder, the
    builder's arguments and the seed. Equal specs generate equal instances,
    across runs and platforms."""

    build: Callable[..., Instance]
    args: tuple
    seed: int

    @classmethod
    def family_uniform(cls, n: int, m: int, side: int, seed: int) -> "GenSpec":
        return cls(_gen_family, ((n,) * m, side), seed)

    @classmethod
    def family_mixed(cls, sizes, side: int, seed: int) -> "GenSpec":
        return cls(_gen_family, (tuple(sizes), side), seed)

    @classmethod
    def network(cls, inner: int, groups: int, paths_per_group: int,
                seed: int) -> "GenSpec":
        return cls(_gen_network, (inner, groups, paths_per_group), seed)

    @classmethod
    def multiset(cls, n: int, size: int, seed: int) -> "GenSpec":
        return cls(_gen_multiset, (n, size), seed)

    @classmethod
    def matrix(cls, m: int, n: int, symbols: int, seed: int) -> "GenSpec":
        return cls(_gen_matrix, (m, n, symbols), seed)


def generate(spec: GenSpec) -> Instance:
    """Build the instance described by ``spec``, deterministically: its
    builder runs on a ``random.Random`` seeded by ``spec.seed``."""
    return spec.build(random.Random(spec.seed), *spec.args)


def _gen_family(rng: random.Random, sizes: tuple[int, ...], side: int) -> MatchingFamily:
    if not sizes or any(s < 1 for s in sizes) or side < 1:
        raise InfeasibleSpec("family needs positive matching sizes and side size")
    if max(sizes) > side:
        raise InfeasibleSpec(
            f"a matching of size {max(sizes)} does not fit side size {side}")
    members = []
    for s in sizes:
        lefts = sorted(rng.sample(range(side), s))
        rights = rng.sample(range(side), s)
        members.append(validate_matching(
            edge(lefts[i], rights[i]) for i in range(s)))
    return MatchingFamily(tuple(members))


def _gen_network(rng: random.Random, inner: int, groups: int,
                 paths_per_group: int) -> PathGroupFamily:
    """Random innerly disjoint groups in which every path ends on a private
    inner node that no other path visits.

    Private exits pin the instances to the regime where the constructive
    witness count provably beats the path count: no contraction step can then
    collapse two paths of a group onto the direct source-sink edge, so the
    recursion's counting goes through level by level. Prefix nodes are drawn
    from a pool shared across groups, so paths still overlap freely away from
    their exits. The total path count is capped by the inner node supply.
    """
    if inner < 1 or groups < 1 or paths_per_group < 1:
        raise InfeasibleSpec("network needs positive inner, group, and path counts")
    wanted = [rng.randint(1, paths_per_group) for _ in range(groups)]
    while sum(wanted) > inner:
        largest = max(range(len(wanted)), key=lambda i: (wanted[i], i))
        wanted[largest] -= 1
    wanted = [w for w in wanted if w > 0]
    exits = rng.sample(range(inner), sum(wanted))
    private = set(exits)
    shared = [v for v in range(inner) if v not in private]
    raw: list[list[NetPath]] = []
    taken = 0
    for count in wanted:
        pool = list(shared)
        rng.shuffle(pool)
        member: list[NetPath] = []
        for _ in range(count):
            prefix_len = rng.randint(0, min(2, len(pool)))
            interior = [pool.pop() for _ in range(prefix_len)] + [exits[taken]]
            taken += 1
            member.append(NetPath((SOURCE, *interior, SINK)))
        raw.append(member)
    return build_family(raw)


def _gen_multiset(rng: random.Random, n: int, size: int) -> ResidueMultiset:
    if n < 1 or size < 1:
        raise InfeasibleSpec("multiset needs a positive modulus and size")
    return ResidueMultiset(n, tuple(rng.randrange(n) for _ in range(size)))


def _gen_matrix(rng: random.Random, m: int, n: int, symbols: int) -> SymbolMatrix:
    if m < 1 or n < 1:
        raise InfeasibleSpec("matrix needs positive dimensions")
    if symbols < n:
        raise InfeasibleSpec(f"{n} distinct symbols per row need at least that many symbols")
    return SymbolMatrix(tuple(tuple(rng.sample(range(symbols), n)) for _ in range(m)))
