"""Rainbow-matching construction by multicolored augmentation, plus the
classifier for the unique family shape that blocks a full rainbow matching."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    Side,
    Vertex,
    augmenting_paths,
    rainbow_is_valid,
)
from .network_paths import (
    SINK,
    SOURCE,
    NetNode,
    NetPath,
    PathGroup,
    PathGroupFamily,
    _witnesses,
)


class NetworkTranslation:
    """Bookkeeping that links a contracted network back to the bipartite graph.

    ``matched_edges`` lists the current rainbow edges in order; inner node i
    of the network stands for ``matched_edges[i]``. ``pullback(color)`` maps
    each network edge of the color's group to the graph edges behind it: one
    edge for an edge into or out of an inner node, and every single-edge
    augmenting path, sorted, for the direct source-sink edge. It is empty
    when the group is. The network is built without these maps: the first
    color of a class to ask translates the class member's augmenting paths
    against the matching, once for every color of the class.
    """

    __slots__ = ("matched_edges", "_groups", "_family", "_first", "_node_of",
                 "_base", "_pulled")

    def __init__(self, matched_edges: tuple[Edge, ...], groups: tuple[PathGroup, ...],
                 family: MatchingFamily, first: Sequence[int],
                 node_of: dict[int, int]) -> None:
        self.matched_edges = matched_edges
        self._groups = groups
        self._family = family
        self._first = first
        self._node_of = node_of
        self._base: Optional[Matching] = None
        self._pulled: dict[int, _Pullback] = {}

    def pullback(self, color: int) -> _Pullback:
        if not self._groups[color]:
            return {}
        k = self._first[color]
        pulled = self._pulled.get(k)
        if pulled is None:
            if self._base is None:
                self._base = Matching(frozenset(self.matched_edges))
            pulled = self._pulled[k] = _pull_back(
                self._base, self._family[k], self._node_of)
        return pulled


_Pullback = dict[tuple[NetNode, NetNode], tuple[Edge, ...]]
_MemberMap = dict[int, int]
_DIRECT = NetPath((SOURCE, SINK))


def build_contracted_network(
    family: MatchingFamily, assignment: Mapping[int, Edge],
    first: Optional[Sequence[int]] = None,
    maps: Optional[Mapping[int, _MemberMap]] = None,
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
    when c is in ``assignment`` or has no augmenting path. A group's paths
    are sorted by ``NetPath.key``, so the direct path comes last.

    ``first`` maps each color to the first color of its member's class, and
    ``maps[k]`` is class k's member as a left -> right index map, in no
    particular order; a search passes the ones it built, and a direct call
    leaves both out to have them built here. The network is an integer walk
    over those maps, one per class outside ``assignment``, whose colors
    share one group; the walk builds no edges. Graph edges come back only through the
    translation's ``pullback``, built on first use per class.

    Returns the network family, the inner node count, and the translation
    needed to pull a network witness back to graph edges.
    """
    if first is None or maps is None:
        first, maps = _member_maps(family)
    # left indices are distinct within a matching, so this is the edge order
    matched = tuple(sorted(assignment.values(), key=_left_index))
    # a matching's right indices are distinct, so each names its edge's node
    node_of = {e.right.index: i for i, e in enumerate(matched)}
    left_of = [e.left.index for e in matched]
    taken = set(left_of)

    walked: dict[int, PathGroup] = {}
    groups: list[PathGroup] = []
    for color, k in enumerate(first):
        if color in assignment:
            groups.append(())
            continue
        group = walked.get(k)
        if group is None:
            group = walked[k] = _walk(maps[k], node_of, left_of, taken)
        groups.append(group)

    groups = tuple(groups)
    translation = NetworkTranslation(matched, groups, family, first, node_of)
    return PathGroupFamily(groups), len(matched), translation


def _left_index(e: Edge) -> int:
    return e.left.index


def _walk(member: _MemberMap, node_of: dict[int, int], left_of: list[int],
          taken: set[int]) -> PathGroup:
    """One member's network group: the inner nodes of each of its augmenting
    paths, walked from every left index ``taken`` leaves free. ``node_of``
    maps the right index of each matched edge to its inner node, and
    ``left_of`` each inner node to its matched edge's left index."""
    runs: list[list[int]] = []
    direct = False
    for left, right in member.items():
        if left in taken:
            continue
        node = node_of.get(right)
        if node is None:
            direct = True
            continue
        run = []
        while node is not None:
            run.append(node)
            right = member.get(left_of[node])
            if right is None:
                break  # the path stops at a matched left: not augmenting
            node = node_of.get(right)
        else:
            runs.append(run)
    # the paths are vertex disjoint, so their first inner nodes differ and
    # decide the order of their keys
    runs.sort()
    paths = [NetPath((SOURCE, *run, SINK)) for run in runs]
    if direct:
        paths.append(_DIRECT)
    return tuple(paths)


def _pull_back(base: Matching, member: Matching, node_of: dict[int, int]) -> _Pullback:
    """The graph edges behind each network edge of ``member``'s group, read
    from its augmenting paths against ``base``."""
    pullback: _Pullback = {}
    direct: list[Edge] = []
    for alt in augmenting_paths(base, member):
        # augmenting paths start at their left endpoint, outside the matching
        free = alt[0::2]
        if len(free) == 1:
            direct.append(free[0])
            continue
        nodes = (SOURCE, *(node_of[e.right.index] for e in alt[1::2]), SINK)
        pullback.update(zip(zip(nodes, nodes[1:]), ((e,) for e in free)))
    # the direct edges arrive by left endpoint, which is their sorted order
    if direct:
        pullback[(SOURCE, SINK)] = tuple(direct)
    return pullback


def find_rainbow_matching(
    family: MatchingFamily, size: int, budget: int = DEFAULT_BUDGET
) -> Optional[RainbowMatching]:
    """Search for a rainbow matching with ``size`` edges, one per chosen color.

    The search grows a partial rainbow matching by multicolored augmentation:
    translate all augmenting paths of every unrepresented color into the
    contracted network, take a multicolored source-sink path from
    ``network_paths``' witness stream (constructed first whenever the network
    holds more paths than matched edges, then enumerated), pull it back, and
    apply the symmetric difference, recoloring each new edge by the color
    that supplied its network edge. Dead ends backtrack over the rest of the
    stream and the pull-back choices, so the search is
    exhaustive: None means no rainbow matching of the requested size exists.
    A state's memo key is the set of (first color of its member's class, left
    index, right index) triples, one per edge, so states that differ only by
    permuting colors of identical matchings share one entry. Each class's
    member is indexed once per search, as a left -> right index map that
    every network of the search walks; graph edges are pulled back only for
    the classes a tried witness uses.

    Each search state costs one step of ``budget``, expanded or refuted by the
    memo before it is built, and each network's witness enumeration has its own
    meter of ``budget`` edge steps; running out raises BudgetExceeded. Raises
    GuaranteeViolation when the sorted-size threshold promises success but the
    search fails, which would flag a bug, not an input property.
    """
    if size < 0:
        raise PreconditionError("size must be non-negative")
    if size == 0:
        return RainbowMatching(())
    result = None
    if size <= len(family):
        result = _search(family, size, budget)
        if result is None and drisko_condition(family.sizes, size):
            raise GuaranteeViolation(
                "size-threshold condition holds but the search failed")
    if result is not None:
        assert rainbow_is_valid(result, family)
    return result


def _member_maps(family: MatchingFamily) -> tuple[list[int], dict[int, _MemberMap]]:
    """The first color of each color's class (its equal members, in order of
    first appearance), and each class's member as a left -> right index map,
    keyed by that first color."""
    seen: dict[Matching, int] = {}
    first = [seen.setdefault(member, color) for color, member in enumerate(family)]
    maps = {k: {e.left.index: e.right.index for e in family[k].edges}
            for k in seen.values()}
    return first, maps


def _search(family: MatchingFamily, target: int, budget: int) -> Optional[RainbowMatching]:
    """Depth first from the empty matching, keeping for each state on the
    current path its generator of untried children, which reads the search's
    class maps, meter and memo of dead states. A generator out of children
    marks its state dead and is popped; a child of ``target`` edges is
    returned before any network is built for it. No interpreter frame is held
    per state, so only the budget bounds the depth."""
    first, maps = _member_maps(family)
    meter = Meter(budget)
    meter.spend()  # the empty state
    dead: set = set()

    def children(assignment, key) -> Iterator[tuple[dict[int, Edge], frozenset]]:
        """The children of the partial rainbow matching ``assignment`` (color
        -> edge) whose memo key is ``key``, each with its own key, skipping
        dead ones; the network is built on the first request.

        A memo key is one (class, left, right) triple per edge, where
        ``first`` maps each color to the first color of its member's class:
        colors of one class are interchangeable. Each child costs one step of
        ``meter``, and a child whose key is already dead costs nothing more;
        the network's witness enumeration gets a meter of ``budget`` edge
        steps. Colors of one class share a pull-back map and a memo class, so
        the witnesses with the same nodes and color classes have the same
        children; only the first of them is tried.
        """
        network, inner_count, translation = build_contracted_network(
            family, assignment, first, maps)
        for witness in _witnesses(network, inner_count, first, budget):
            choices = [translation.pullback(c)[step]
                       for step, c in zip(witness.edges, witness.colors)]
            # the assignment is a matching, so a right index names one of its edges
            removed = {translation.matched_edges[v].right.index for v in witness.nodes[1:-1]}
            kept = {c: e for c, e in assignment.items() if e.right.index not in removed}
            kept_key = frozenset(t for t in key if t[2] not in removed) if removed else key
            for new_edges in itertools.product(*choices):
                meter.spend()
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
                yield child, child_key
        dead.add(key)

    path = [children({}, frozenset())]
    while path:
        for child, child_key in path[-1]:
            if len(child) == target:
                return RainbowMatching(tuple(child.items()))
            path.append(children(child, child_key))
            break
        else:
            path.pop()
    return None


def drisko_condition(sizes: Iterable[int], size: int) -> bool:
    """Evaluate the sorted-size threshold that forces a rainbow matching.

    With member sizes ascending, sums (size_i - target + 1) over the first
    (count - target + 1) members and compares the total against the target.
    Summands are taken literally and may be negative.
    """
    if size < 0:
        raise PreconditionError("size must be non-negative")
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
    first, maps = _member_maps(family)
    classes = [frozenset(c for c, k in enumerate(first) if k == key) for key in maps]
    if len(classes) != 2 or any(len(colors) != n - 1 for colors in classes):
        return None
    a, b = maps.values()
    # walk from the smallest left index toward its smaller right neighbor;
    # two size-n members split one cycle exactly when the walk closes after
    # all 2n edges, which a missing mate or a shared edge prevents
    start = min(a)
    if start not in b:
        return None
    out, back = (a, b) if a[start] < b[start] else (b, a)
    back = {right: left for left, right in back.items()}
    cycle: list[int] = []  # left and right indices, alternating
    left = start
    for _ in range(n):
        right = out.get(left)
        if right not in back:
            return None
        cycle += (left, right)
        left = back[right]
    # both maps are matchings, so the rights repeat exactly when the lefts do
    if left != start or len(set(cycle[0::2])) != n:
        return None
    even, odd = classes if out is a else classes[::-1]
    return ExtremalCycle(tuple(map(Vertex, itertools.cycle(Side), cycle)), even, odd)
