"""Rainbow-matching construction by multicolored augmentation, plus the
classifier for the unique family shape that blocks a full rainbow matching."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    DEFAULT_BUDGET,
    GuaranteeViolation,
    Meter,
    PreconditionError,
    TheoremViolation,
)
from .graph_core import (
    Edge,
    Matching,
    MatchingFamily,
    RainbowMatching,
    Vertex,
    augmenting_paths,
    edge_map,
    rainbow_is_valid,
)
from .network_paths import (
    SINK,
    SOURCE,
    ColoredPath,
    NetNode,
    NetPath,
    PathGroup,
    PathGroupFamily,
    find_multicolored_st_path,
    iter_multicolored_st_paths,
)


@dataclass(frozen=True, eq=False)
class NetworkTranslation:
    """Bookkeeping that links a contracted network back to the bipartite graph.

    ``matched_edges`` lists the current rainbow edges in order; inner node i
    of the network stands for ``matched_edges[i]``. ``pullback`` maps, per
    color, each network edge to the graph edges behind it: one edge for an
    edge into or out of an inner node, and every single-edge augmenting path,
    sorted, for the direct source-sink edge.
    """

    matched_edges: tuple[Edge, ...]
    pullback: tuple[_Pullback, ...]


def build_contracted_network(
    family: MatchingFamily, assignment: Mapping[int, Edge]
) -> tuple[PathGroupFamily, int, NetworkTranslation]:
    """Translate every augmenting path of every color outside ``assignment``
    into a network over one inner node per edge of the partial rainbow
    matching ``assignment`` (color -> edge).

    Walking an augmenting path from its unmatched left endpoint, each edge
    outside the matching becomes one network edge: entering the matched edge
    f gives source->v(f), stepping from matched f to matched g gives
    v(f)->v(g), leaving f for an unmatched right vertex gives v(f)->sink, and
    a path that is a single edge becomes the direct source->sink edge. Since
    the augmenting paths of one color are vertex disjoint, each group is
    innerly disjoint, and only the direct edge can be shared by several paths
    of a color. Group c of the network is color c of the family; it is empty
    when c is in ``assignment`` or has no augmenting path.

    Returns the network family, the inner node count, and the translation
    needed to pull a network witness back to graph edges.
    """
    # left indices are distinct within a matching, so this is the edge order
    matched = tuple(sorted(assignment.values(), key=lambda e: e.left.index))
    base = Matching(frozenset(matched))
    # a matching's right indices are distinct, so each names its edge's node
    node_of = {e.right.index: i for i, e in enumerate(matched)}

    # colors holding equal members share one walk and one translation; the
    # lookup keys by the edge set, whose frozenset hash is cached
    translated: dict[frozenset[Edge], _Translated] = {}
    found: list[_Translated] = []
    for color, member in enumerate(family):
        if color in assignment:
            found.append(_EMPTY)
            continue
        done = translated.get(member.edges)
        if done is None:
            done = translated[member.edges] = _translate(base, member, node_of)
        found.append(done)

    groups, pullbacks = zip(*found) if found else ((), ())
    translation = NetworkTranslation(matched, pullbacks)
    return PathGroupFamily(groups), len(matched), translation


_Pullback = dict[tuple[NetNode, NetNode], tuple[Edge, ...]]
_Translated = tuple[PathGroup, _Pullback]
_EMPTY: _Translated = (PathGroup(()), {})


def _translate(
    base: Matching, member: Matching, node_of: dict[int, int]
) -> _Translated:
    """One member's network group and pull-back map, both empty when it has
    no augmenting path. ``node_of`` maps the right index of each matched edge
    to its inner node."""
    pullback: _Pullback = {}
    direct: list[Edge] = []
    nets: list[NetPath] = []
    for alt in augmenting_paths(base, member):
        # augmenting paths start at their left endpoint, outside the matching
        free = alt[0::2]
        if len(free) == 1:
            direct.append(free[0])
            continue
        nodes = (SOURCE, *(node_of[e.right.index] for e in alt[1::2]), SINK)
        nets.append(NetPath(nodes))
        pullback.update(zip(zip(nodes, nodes[1:]), ((e,) for e in free)))
    # the direct edge's key (inf,) sorts after every other path's; its edges
    # arrive by left endpoint, which is their sorted order
    nets.sort(key=NetPath.key)
    if direct:
        nets.append(NetPath((SOURCE, SINK)))
        pullback[(SOURCE, SINK)] = tuple(direct)
    return PathGroup(tuple(nets)), pullback


def find_rainbow_matching(
    family: MatchingFamily, size: int, budget: int = DEFAULT_BUDGET
) -> Optional[RainbowMatching]:
    """Search for a rainbow matching with ``size`` edges, one per chosen color.

    The search grows a partial rainbow matching by multicolored augmentation:
    translate all augmenting paths of every unrepresented color into the
    contracted network, take a multicolored source-sink path (constructed
    directly whenever the network holds more paths than matched edges), pull
    it back, and apply the symmetric difference, recoloring each new edge by
    the color that supplied its network edge. Dead ends backtrack over the
    remaining multicolored paths and pull-back choices, so the search is
    exhaustive: None means no rainbow matching of the requested size exists.
    A state's memo key is the set of (first color of its member's class, left
    index, right index) triples, one per edge, so states that differ only by
    permuting colors of identical matchings share one entry.

    Each search state costs one step of ``budget``, whether it is expanded
    or refuted by the memo before it is built; running out raises
    BudgetExceeded. Raises GuaranteeViolation when the sorted-size
    threshold promises success but the search fails, which would flag a
    bug, not an input property.
    """
    if size < 0:
        raise PreconditionError("size must be non-negative")
    if size == 0:
        return RainbowMatching(())
    result = None
    if size <= len(family):
        classes = _member_classes(family)
        first = [classes[member][0] for member in family]
        meter = Meter(budget)
        meter.spend()  # the empty state
        result = _grow(family, {}, frozenset(), size, first, set(), meter)
        if result is None and drisko_condition(family.sizes, size):
            raise GuaranteeViolation(
                "size-threshold condition holds but the search failed")
    if result is not None:
        assert rainbow_is_valid(result, family)
    return result


def _member_classes(family: MatchingFamily) -> dict[Matching, list[int]]:
    """The colors of each distinct member, keyed by the member, in order of
    first appearance."""
    classes: dict[Matching, list[int]] = {}
    for color, member in enumerate(family):
        classes.setdefault(member, []).append(color)
    return classes


def _grow(family, assignment, key, target, first, dead, meter) -> Optional[RainbowMatching]:
    """Extend the partial rainbow matching ``assignment`` (color -> edge), whose
    memo key ``key`` is not dead, to ``target`` edges, or mark ``key`` dead
    and return None.

    A memo key is one (class, left, right) triple per edge, where ``first``
    maps each color to the first color of its member's class: colors of one
    class are interchangeable. Each child costs one step of ``meter``, and a
    child whose key is already dead costs nothing more. Colors of one class
    share a pull-back map and a memo class, so the witnesses with the same
    nodes and color classes have the same children. Only the first of them
    is enumerated; when it fails, its color permutations are charged in one
    bulk spend, one step per child each would have made.
    """
    network, inner_count, translation = build_contracted_network(family, assignment)
    # a child of ``target`` edges is a solution and needs no key
    last = len(assignment) + 1 == target
    free = None  # per class, how many of its colors are outside the assignment
    for witness in _witnesses(network, inner_count, first):
        choices = [translation.pullback[c][step]
                   for step, c in zip(witness.edges, witness.colors)]
        # the assignment is a matching, so a right index names one of its edges
        removed = {translation.matched_edges[v].right.index for v in witness.nodes[1:-1]}
        kept = {c: e for c, e in assignment.items() if e.right.index not in removed}
        kept_key = frozenset(t for t in key if t[2] not in removed) if removed else key
        for new_edges in itertools.product(*choices):
            meter.spend()
            if not last:
                child_key = kept_key.union([
                    (first[c], e.left.index, e.right.index)
                    for c, e in zip(witness.colors, new_edges)])
                if child_key in dead:
                    # one more edge than here, on a state already checked
                    assert len(child_key) == len(assignment) + 1
                    continue
            child = dict(kept)
            child.update(zip(witness.colors, new_edges))
            # one more edge, and the edges still form a matching
            assert len(child) == len(assignment) + 1
            assert len({e.left.index for e in child.values()}) == len(child)
            assert len({e.right.index for e in child.values()}) == len(child)
            if last:
                return RainbowMatching(tuple(child.items()))
            result = _grow(family, child, child_key, target, first, dead, meter)
            if result is not None:
                return result
        # the witness's other colorings within its classes have these
        # children too, all dead now: charge them without enumerating them
        if free is None:
            free = Counter(first[c] for c in range(len(first)) if c not in assignment)
        copies = _colorings(witness.colors, first, free)
        if copies > 1:
            meter.spend((copies - 1) * math.prod(map(len, choices)))
    dead.add(key)
    return None


def _colorings(colors: tuple[int, ...], first: list[int], free: Counter) -> int:
    """How many colorings share the classes of ``colors``: the product over
    each class K of perm(m_K, j_K), where ``colors`` hold j_K colors of K and
    ``free[K]`` is m_K."""
    copies = 1
    taken: dict[int, int] = {}
    for c in colors:
        k = first[c]
        j = taken.get(k, 0)
        copies *= free[k] - j
        taken[k] = j + 1
    return copies


def _witnesses(network: PathGroupFamily, inner_count: int,
               first: list[int]) -> Iterator[ColoredPath]:
    """Candidate augmentations: the constructed witness first when the network
    holds more paths than matched edges, then the first multicolored path of
    every (nodes, color classes) signature, less the constructed witness's."""
    if network.total_paths <= inner_count:
        yield from iter_multicolored_st_paths(network, classes=first)
        return
    constructed = find_multicolored_st_path(network, inner_count)
    yield constructed
    # resumed only once the constructed witness failed, and its charge covered
    # every coloring of its signature
    nodes, classes = constructed.nodes, [first[c] for c in constructed.colors]
    for witness in iter_multicolored_st_paths(network, classes=first):
        if witness.nodes != nodes or [first[c] for c in witness.colors] != classes:
            yield witness


def drisko_condition(sizes: Iterable[int], size: int) -> bool:
    """Evaluate the sorted-size threshold that forces a rainbow matching.

    With member sizes ascending, sums (size_i - target + 1) over the first
    (count - target + 1) members and compares the total against the target.
    Summands are taken literally and may be negative.
    """
    ordered = sorted(sizes)
    count = len(ordered)
    if size > count:
        raise PreconditionError(
            f"target {size} exceeds the {count} available colors")
    terms = ordered[: min(count - size + 1, count)]
    return sum(s - size + 1 for s in terms) >= size


@dataclass(frozen=True, slots=True)
class HasRainbow:
    witness: RainbowMatching


@dataclass(frozen=True, slots=True)
class ExtremalCycle:
    cycle: tuple[Vertex, ...]
    even_colors: frozenset[int]
    odd_colors: frozenset[int]


FamilyClassification = Union[HasRainbow, ExtremalCycle]


def classify_family(family: MatchingFamily,
                    budget: int = DEFAULT_BUDGET) -> FamilyClassification:
    """Find a full-size rainbow matching or certify the unique blocking shape.

    A family of 2n-2 matchings of size n without a rainbow matching of size n
    must consist of a single cycle on 2n vertices, with half the members
    equal to its even-edge matching and half to its odd-edge matching. The
    solver failing on any other family raises TheoremViolation (a bug flag).
    The search runs under ``budget`` as in ``find_rainbow_matching``.
    """
    n = _uniform_even_family(family)
    witness = find_rainbow_matching(family, n, budget)
    if witness is not None:
        return HasRainbow(witness)
    extremal = _cycle_split(family, n)
    if extremal is None:
        raise TheoremViolation("no full rainbow matching and no blocking cycle")
    return extremal


def _uniform_even_family(family: MatchingFamily) -> int:
    count = len(family)
    if count == 0 or count % 2 != 0:
        raise PreconditionError(f"need a non-empty family of 2n-2 members, got {count}")
    n = count // 2 + 1
    if any(len(m) != n for m in family):
        raise PreconditionError(f"every member must have size {n}")
    return n


def _cycle_split(family: MatchingFamily, n: int) -> Optional[ExtremalCycle]:
    classes = _member_classes(family)
    if len(classes) != 2:
        return None
    cols_a, cols_b = classes.values()
    if len(cols_a) != n - 1 or len(cols_b) != n - 1:
        return None
    a, b = edge_map(family[cols_a[0]]), edge_map(family[cols_b[0]])
    # walk from the smallest vertex, a left one, toward its smaller neighbor;
    # two size-n members split one cycle exactly when the walk closes after
    # all 2n edges, which a missing mate or a shared edge prevents
    start = min(a)
    if start not in b:
        return None
    first, second = (a, b) if a[start] < b[start] else (b, a)
    cycle: list[Vertex] = []
    left = start
    for _ in range(n):
        e = first.get(left)
        if e is None or e.right not in second:
            return None
        cycle += (left, e.right)
        left = second[e.right].left
    if left != start or len(set(cycle)) != 2 * n:
        return None
    even, odd = (cols_a, cols_b) if first is a else (cols_b, cols_a)
    return ExtremalCycle(tuple(cycle), frozenset(even), frozenset(odd))
