"""Source-sink networks, families of path groups, and multicolored paths.

A family assigns source-to-sink paths to ordered groups; a path through the
network is *multicolored* when each of its edges lies on a path from a
distinct group. The constructive searches below read the contraction
construction, which contracts the source together with one pivot group's
first inner nodes level by level, from one pass over the groups: each node is
reached at the first level whose pivot steps to it from a node reached
before, and its witness is that node's witness plus the step.
``reachable_witness_set`` builds every reached node's witness forward from
that record. The counting lemma's witness stream, which the rainbow solver
and ``find_multicolored_st_path`` read, walks back from one step to the sink
when the family holds more paths than inner nodes, and then enumerates. The
dichotomy's verdict writes the same record of reached nodes with an adaptive
pivot order and walks its witness back the same way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DEFAULT_BUDGET,
    DichotomyViolation,
    GuaranteeViolation,
    InnerOverlapError,
    MalformedPathError,
    Meter,
    PreconditionError,
)

SOURCE = "s"
SINK = "t"

NetNode = Union[str, int]


def _is_inner(node: object) -> bool:
    return isinstance(node, int) and not isinstance(node, bool) and node >= 0


@dataclass(frozen=True, slots=True)
class NetPath:
    """A simple source-to-sink path, stored as its node sequence: a plain
    record, which ``make_path`` checks."""

    nodes: tuple[NetNode, ...]

    @property
    def edges(self) -> tuple[tuple[NetNode, NetNode], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    @property
    def inner_nodes(self) -> frozenset[int]:
        return frozenset(self.nodes[1:-1])

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1

    def key(self) -> tuple[float, ...]:
        """The inner nodes, then infinity for the sink.

        Every path starts at the source and ends at the sink, so comparing
        keys compares node sequences with the source first, inner nodes by
        index and the sink last: paths sort by their inner nodes, and since
        the sink's infinity sorts after every inner node, a path sorts after
        each of its extensions (s->0->1->t before s->0->t) and the direct
        path s->t sorts last.
        """
        return self.nodes[1:-1] + (math.inf,)

    def __repr__(self) -> str:
        return "->".join(str(v) for v in self.nodes)


def make_path(nodes: Iterable[NetNode]) -> NetPath:
    """Check that ``nodes`` run from the source to the sink through distinct
    non-negative integer inner nodes, and wrap them as a NetPath; raises
    MalformedPathError otherwise."""
    nodes = tuple(nodes)
    if len(nodes) < 2 or nodes[0] != SOURCE or nodes[-1] != SINK:
        raise MalformedPathError(f"path must run source to sink, got {nodes!r}")
    if not all(_is_inner(v) for v in nodes[1:-1]):
        raise MalformedPathError(
            f"inner nodes must be non-negative integers, got {nodes!r}")
    if len(set(nodes)) != len(nodes):
        raise MalformedPathError(f"repeated node in path {nodes!r}")
    return NetPath(nodes)


def _inner_conflict(paths: Iterable[NetPath]) -> Optional[int]:
    seen: set[int] = set()
    for p in paths:
        for v in sorted(p.nodes[1:-1]):
            if v in seen:
                return v
            seen.add(v)
    return None


# A set of source-sink paths sharing no inner vertex, which ``build_family``
# checks.
PathGroup = tuple[NetPath, ...]


@dataclass(frozen=True, slots=True)
class PathGroupFamily:
    """An ordered list of path groups; group positions act as colors."""

    groups: tuple[PathGroup, ...]

    @property
    def total_paths(self) -> int:
        return sum(map(len, self.groups))

    @property
    def inner_nodes(self) -> frozenset[int]:
        return frozenset(
            v for g in self.groups for p in g for v in p.nodes[1:-1])


def build_family(groups: Iterable[Iterable[NetPath]]) -> PathGroupFamily:
    """Validate and normalize raw path groups into a family.

    Groups are sets: exact duplicate paths collapse to one copy. Every group
    keeps its input position as its color; an empty group colors nothing.
    Two distinct paths of one group sharing an inner vertex raise
    InnerOverlapError naming the group and the vertex.
    """
    kept: list[PathGroup] = []
    for pos, raw in enumerate(groups):
        paths = sorted(raw, key=NetPath.key)
        unique = tuple(p for i, p in enumerate(paths) if i == 0 or p != paths[i - 1])
        conflict = _inner_conflict(unique)
        if conflict is not None:
            raise InnerOverlapError(pos, conflict)
        kept.append(unique)
    return PathGroupFamily(tuple(kept))


@dataclass(frozen=True, slots=True)
class ColoredPath:
    """A path from the source with one group index per edge: a plain record,
    which ``colored_path_conforms`` checks against a family."""

    nodes: tuple[NetNode, ...]
    colors: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[NetNode, NetNode], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    @property
    def target(self) -> NetNode:
        return self.nodes[-1]

    def __repr__(self) -> str:
        return "->".join(str(v) for v in self.nodes) + f" via {list(self.colors)}"


def colored_path_conforms(path: ColoredPath, family: PathGroupFamily) -> bool:
    """True iff ``path`` is a multicolored path of ``family``: it starts at
    the source, has one color per edge, repeats no node and no color, and
    every edge lies on some path of its color's group."""
    nodes, colors = path.nodes, path.colors
    if not nodes or nodes[0] != SOURCE or len(colors) != len(nodes) - 1:
        return False
    if len(set(nodes)) != len(nodes) or len(set(colors)) != len(colors):
        return False
    for u, v, c in zip(nodes, nodes[1:], colors):
        if not 0 <= c < len(family.groups):
            return False
        if not any((u, v) in zip(p.nodes, p.nodes[1:]) for p in family.groups[c]):
            return False
    return True


_Groups = list[tuple[int, PathGroup]]


def _groups(family: PathGroupFamily) -> _Groups:
    return [(c, g) for c, g in enumerate(family.groups) if g]


def _edge_options(groups: _Groups) -> dict[NetNode, list[tuple[NetNode, int]]]:
    """Every colored edge leaving each node, sorted by head then color."""
    edges: set[tuple[float, float, int, NetNode, NetNode]] = set()
    for color, paths in groups:
        for p in paths:
            keys = (-1,) + p.key()  # every node's rank, the source's -1 first
            edges.update(zip(keys, keys[1:], repeat(color), p.nodes, p.nodes[1:]))
    options: dict[NetNode, list[tuple[NetNode, int]]] = {}
    for _, _, color, u, v in sorted(edges):
        options.setdefault(u, []).append((v, color))
    return options


# reached node -> (level, node its witness steps from, that step's color)
_Reached = dict[NetNode, tuple[int, NetNode, int]]
# a path's step to the sink: (L, j, key, node, color), as in ``_reach``
_SinkStep = tuple[int, int, tuple[float, ...], NetNode, int]


def _reach(groups: _Groups) -> tuple[_Reached, list[_SinkStep]]:
    """The contraction construction in one pass: group j is the pivot at
    level j, and each of its paths reaches at level j the node after its last
    node reached below j, by one step of the pivot's color. Returns the
    reached nodes, by level and then node, and the paths that contraction
    makes direct edges: each path of group j stepping to the sink from a node
    reached at a level L below j (the source at L = -1), as ``(L, j, key,
    node, color)``. From level L + 1 the group keeps the one whose ``key``
    sorts first: the ``NetPath.key`` of its remainder at level L, its nodes
    after its last node reached below L."""
    reached: _Reached = {SOURCE: (-1, SOURCE, -1)}
    steps: list[_SinkStep] = []
    for level, (color, paths) in enumerate(groups):
        found: _Reached = {}
        for p in paths:
            i = len(p.nodes) - 2
            while p.nodes[i] not in reached:
                i -= 1
            if i < len(p.nodes) - 2:
                found[p.nodes[i + 1]] = (level, p.nodes[i], color)
                continue
            from_level = reached[p.nodes[i]][0]
            while i and reached.get(p.nodes[i], (from_level,))[0] >= from_level:
                i -= 1
            steps.append((from_level, level, p.nodes[i + 1:-1] + (math.inf,), p.nodes[-2], color))
        reached.update(sorted(found.items()))
    return reached, steps


def reachable_witness_set(family: PathGroupFamily) -> dict[NetNode, ColoredPath]:
    """The nodes the contraction construction reaches, each with its
    multicolored witness path, all inside the exact reachable set.

    The map holds the source, then each reached node by level and then node:
    at every level, the pivot group's paths reach the node after their last
    node reached before, by that node's witness plus one step of the pivot's
    color. Last comes the sink, when some path steps to it: the deepest pivot
    with a direct source-sink edge, made direct by the latest contraction,
    gives it its witness the same way.

    Witness count: when every path ends on a private inner node that no
    other path visits, each path reaches one new node, so the map holds
    exactly one entry per path plus the source and outnumbers the paths (no
    contraction can then collapse two paths of one group onto the direct
    source-sink edge). Without some such restriction no bound is possible at
    all: the whole node set may be smaller than the family.
    """
    reached, steps = _reach(_groups(family))
    if steps:
        _, j, _, before, color = min(steps, key=lambda s: (-s[1], -s[0], s[2]))
        reached[SINK] = (j, before, color)
    wit = {SOURCE: ColoredPath((SOURCE,), ())}
    for x, (_, before, color) in list(reached.items())[1:]:
        wit[x] = ColoredPath(wit[before].nodes + (x,), wit[before].colors + (color,))
    return wit


def find_multicolored_st_path(
    family: PathGroupFamily, *, budget: int = DEFAULT_BUDGET
) -> Optional[ColoredPath]:
    """Find a source-to-sink path using each group for at most one edge.

    With more paths than the inner nodes it uses, a family always has a
    witness, and the contraction construction produces one from the first
    level where some group has the direct edge; failing to build one in that
    regime raises GuaranteeViolation, which would flag a bug. At or below the
    threshold, an exhaustive search decides existence exactly and returns
    the lexicographically first witness, or None; it runs under ``budget``
    as in ``iter_multicolored_st_paths``. Both are the head of the witness
    stream that the rainbow solver reads.
    """
    return next(_witnesses(family, len(family.inner_nodes),
                           range(len(family.groups)), budget), None)


def _witnesses(family: PathGroupFamily, inner_count: int,
               classes: Sequence[Hashable], budget: int) -> Iterator[ColoredPath]:
    """The counting lemma's witness stream. With more paths than
    ``inner_count``, which must cover the inner nodes in use, the contraction
    construction's witness comes first: a group's own direct edge at level 0,
    or else the first of ``_reach``'s steps to the sink; failing to build it
    raises GuaranteeViolation, which would flag a bug. Then come
    ``iter_multicolored_st_paths``' witnesses under ``classes`` and
    ``budget``, less those with the constructed witness's nodes and color
    classes."""
    nodes = signature = None
    if family.total_paths > inner_count:
        groups = _groups(family)
        # most calls end at level 0, on a group's own direct edge
        for color, paths in groups:
            if any(p.edge_count == 1 for p in paths):
                constructed = ColoredPath((SOURCE, SINK), (color,))
                break
        else:
            # before the first direct edge, contraction merges two paths of a
            # group only into it, and otherwise the group sizes carry over
            reached, steps = _reach(groups)
            if not steps:
                raise GuaranteeViolation(
                    "more paths than inner nodes but no multicolored witness was built")
            _, _, _, node, color = min(steps)
            constructed = _walk_back(reached, node, color)
        yield constructed
        # the witnesses of the head's signature have its children in the
        # search, so the stream resumes past all of them
        nodes, signature = constructed.nodes, [classes[c] for c in constructed.colors]
    for witness in iter_multicolored_st_paths(family, classes=classes, budget=budget):
        if witness.nodes != nodes or [classes[c] for c in witness.colors] != signature:
            yield witness


def _walk_back(reached: _Reached, node: NetNode, color: int) -> ColoredPath:
    """The witness that steps from ``node`` to the sink by ``color``."""
    nodes, colors = [SINK], [color]
    while node != SOURCE:
        nodes.append(node)
        _, node, color = reached[node]
        colors.append(color)
    return ColoredPath((SOURCE,) + tuple(reversed(nodes)), tuple(reversed(colors)))


def iter_multicolored_st_paths(
    family: PathGroupFamily,
    classes: Optional[Sequence[Hashable]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[ColoredPath]:
    """Yield every multicolored source-to-sink path, in lexicographic order.

    Order: lexicographic over the interleaved (node, color) steps, nodes
    under the source/inner/sink order. This is not node sequence first: for
    groups ``[(s,0,1,t)], [(s,0,t)], [(s,1,t)]`` it yields ``s->0->t via
    [0, 1]`` before ``s->0->1->t via [1, 0, 2]``, since the first step s->0
    goes by color 0 in the one and by color 1 in the other. Exhaustive
    backtracking; meant for small networks.

    ``classes``, when given, labels each color with a class, indexed by
    color, one label per group; a list of another length raises
    PreconditionError. A color may then be stepped along only once every
    smaller color of its class that has a non-empty group is on the path.
    When the colors of each class have equal groups, swapping colors within
    a class maps multicolored paths to multicolored paths, and the rule
    keeps exactly the lexicographically first path of each signature (its
    nodes and its colors' classes), which takes the smallest free color of
    the class at each step. So the yields are the first occurrence of each signature in
    the full enumeration, in the same order.

    Each edge the search steps along costs one step of ``budget``; running
    out raises BudgetExceeded.
    """
    if classes is not None and len(classes) != len(family.groups):
        raise PreconditionError(
            f"need one class per group: {len(family.groups)} groups, "
            f"{len(classes)} classes")
    meter = Meter(budget)
    groups = _groups(family)
    options = _edge_options(groups)
    nodes: list[NetNode] = [SOURCE]
    colors: list[int] = []
    # a color is unusable while on the path or blocked behind its class
    used: set[int] = set()
    # stepping along a color unblocks the next color of its class
    unblock: dict[int, int] = {}
    if classes is not None:
        previous: dict[Hashable, int] = {}
        for c, _ in groups:
            if classes[c] in previous:
                unblock[previous[classes[c]]] = c
                used.add(c)
            previous[classes[c]] = c
    # one iterator over the unexplored options of each node on the path
    stack = [iter(options.get(SOURCE, ()))]
    while stack:
        for v, c in stack[-1]:
            if v in nodes or c in used:
                continue
            meter.spend()
            if v == SINK:
                yield ColoredPath(tuple(nodes) + (SINK,), tuple(colors) + (c,))
                continue
            nodes.append(v)
            colors.append(c)
            used.add(c)
            if c in unblock:
                used.remove(unblock[c])
            stack.append(iter(options.get(v, ())))
            break
        else:
            stack.pop()
            if colors:
                nodes.pop()
                c = colors.pop()
                used.remove(c)
                if c in unblock:
                    used.add(unblock[c])


@dataclass(frozen=True, slots=True)
class Regimentation:
    """Pairwise innerly disjoint representatives with their copy counts."""

    classes: tuple[tuple[NetPath, int], ...]


def is_regimented(paths: Iterable[NetPath]) -> Optional[Regimentation]:
    """Partition identical copies into classes and test the regimented shape.

    A multiset of source-sink paths is regimented when every class of
    identical paths has exactly edge-count-minus-one members and the class
    representatives share no inner vertex. Returns the unique Regimentation,
    or None. A direct source-sink path can never occur in a regimented
    multiset (its class would need zero members).
    """
    # copies counted by node tuple, whose hash runs in C, and classes sorted
    # by the NetPath.key of their nodes
    copies = Counter([p.nodes for p in paths])
    if any(k != len(nodes) - 2 for nodes, k in copies.items()):
        return None
    inner = [nodes[1:-1] for nodes in copies]
    if len(set().union(*inner)) != sum(map(len, inner)):
        return None
    reps = sorted(copies, key=lambda nodes: nodes[1:-1] + (math.inf,))
    return Regimentation(tuple((NetPath(nodes), copies[nodes]) for nodes in reps))


def verify_regimented_dichotomy(
    paths: Iterable[NetPath], budget: int = DEFAULT_BUDGET,
) -> Union[Regimentation, ColoredPath]:
    """Decide which side of the regimented/traversable dichotomy holds.

    Requires exactly as many paths as distinct inner nodes in use. Regimented
    multisets admit no multicolored source-sink path, and non-regimented ones
    always admit one, with each path as its own singleton group, so witness
    colors index the paths in input order.

    The witness follows the lemma's induction. Contracting a pivot path P of
    color c, whose first inner node is x, drops P and cuts every other path
    that visits x down to the part after x; k paths on k inner nodes leave k-1
    paths on at most k-1. A multicolored path of the contracted family lifts
    back unchanged, or with s->x via c prepended when its first edge came from
    a cut path; so paths are kept from their last reached node, x is reached
    from P's start by c, and the witness is read back through that map, as in
    ``find_multicolored_st_path``. Each level's pivot is the first path in
    color order whose contraction holds a direct edge, has fewer inner nodes
    than paths (which every later contraction keeps, so the counting lemma
    applies), or is not regimented; on as many paths as inner nodes,
    regimented means that every class of equal paths has as many copies as
    inner nodes, since disjointness then follows from the counts. The levels
    stop at the first direct edge in color order. A level where no pivot
    qualifies would refute the lemma and raises DichotomyViolation: that is
    the proof check. Each pivot tried costs one step of ``budget``; running
    out raises BudgetExceeded.
    """
    plist = list(paths)
    used = len({v for p in plist for v in p.nodes[1:-1]})
    if len(plist) != used:
        raise PreconditionError(
            f"need exactly {used} paths for {used} inner nodes, got {len(plist)}")
    regimentation = is_regimented(plist)
    if regimentation is not None:
        return regimentation
    meter = Meter(budget)
    family = [(c, p.nodes) for c, p in enumerate(plist)]
    reached: _Reached = {}
    while all(len(nodes) > 2 for _, nodes in family):
        for c, pivot in family:
            meter.spend()
            x = pivot[1]
            contracted: list[tuple[int, tuple[NetNode, ...]]] = []
            copies: dict[tuple[NetNode, ...], int] = {}
            for d, nodes in family:
                if x in nodes:
                    if d == c:
                        continue
                    nodes = nodes[nodes.index(x):]
                contracted.append((d, nodes))
                rest = nodes[1:]
                copies[rest] = copies.get(rest, 0) + 1
            # not regimented, or surplus; a direct edge fails the counts,
            # since its class would need no copies
            if any(k != len(rest) - 1 for rest, k in copies.items()) or len(
                    {v for rest in copies for v in rest[:-1]}) < len(contracted):
                break
        else:
            raise DichotomyViolation("multiset is neither regimented nor traversable")
        reached[x] = (len(reached), pivot[0], c)
        family = contracted
    node, color = next((nodes[0], d) for d, nodes in family if len(nodes) == 2)
    return _walk_back(reached, node, color)
