"""Source-sink networks, families of path groups, and multicolored paths.

A family assigns source-to-sink paths to ordered groups; a path through the
network is *multicolored* when each of its edges lies on a path from a
distinct group. The constructive searches below work by contracting the
source together with the inner endpoints of a pivot group's first edges,
recursing on the remaining groups, and replaying the contractions in reverse
to rebuild a witness.
"""

from __future__ import annotations

import math
from collections import Counter, deque
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


def node_key(node: NetNode) -> float:
    """Total order as one number: the source is -1, an inner node is its
    index and the sink is infinity, so the source comes first and the sink
    last."""
    if node == SOURCE:
        return -1
    if node == SINK:
        return math.inf
    return node


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
        keys compares node sequences under the ``node_key`` order: paths sort
        by their inner nodes, and since the sink's infinity sorts after every
        inner node, a path sorts after each of its extensions (s->0->1->t
        before s->0->t) and the direct path s->t sorts last.
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


@dataclass(frozen=True, slots=True)
class PathGroup:
    """A set of source-sink paths sharing no inner vertex: a plain record,
    which ``build_family`` checks."""

    paths: tuple[NetPath, ...]


@dataclass(frozen=True, slots=True)
class PathGroupFamily:
    """An ordered list of path groups; group positions act as colors."""

    groups: tuple[PathGroup, ...]

    @property
    def total_paths(self) -> int:
        return sum(len(g.paths) for g in self.groups)

    @property
    def inner_nodes(self) -> frozenset[int]:
        return frozenset(
            v for g in self.groups for p in g.paths for v in p.nodes[1:-1])


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
        kept.append(PathGroup(unique))
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
    for e, c in zip(path.edges, colors):
        if not 0 <= c < len(family.groups):
            return False
        if not any(e in p.edges for p in family.groups[c].paths):
            return False
    return True


_Groups = list[tuple[int, tuple[NetPath, ...]]]


def _groups(family: PathGroupFamily) -> _Groups:
    return [(c, g.paths) for c, g in enumerate(family.groups) if g.paths]


def _edge_options(groups: _Groups) -> dict[NetNode, list[tuple[NetNode, int]]]:
    """Every colored edge leaving each node, sorted by head then color."""
    edges: set[tuple[float, float, int, NetNode, NetNode]] = set()
    for color, paths in groups:
        for p in paths:
            keys = (-1,) + p.key()  # the node_key of every node
            edges.update(zip(keys, keys[1:], repeat(color), p.nodes, p.nodes[1:]))
    options: dict[NetNode, list[tuple[NetNode, int]]] = {}
    for _, _, color, u, v in sorted(edges):
        options.setdefault(u, []).append((v, color))
    return options


def _contract(
    groups: _Groups, removed: set[NetNode]
) -> tuple[_Groups, dict[int, dict[NetNode, NetNode]]]:
    """Contract ``{source} | removed`` into the source in every group.

    Returns the contracted groups (each sorted, duplicates collapsed) plus,
    per color, a map from the second node of each contracted path to the node
    the new source replaced; that map is all a witness needs to undo the
    contraction. Keying by second node is exact: within a group, two
    contracted paths can only collide on the direct source-sink edge.
    """
    contracted: _Groups = []
    starts_by_color: dict[int, dict[NetNode, NetNode]] = {}
    for color, paths in groups:
        starts: dict[NetNode, NetNode] = {}
        images: list[NetPath] = []
        for p in sorted(paths, key=NetPath.key):
            last = max(i for i, v in enumerate(p.nodes) if v == SOURCE or v in removed)
            image = NetPath((SOURCE,) + p.nodes[last + 1:])
            if image.nodes[1] not in starts:
                starts[image.nodes[1]] = p.nodes[last]
                images.append(image)
        contracted.append((color, tuple(sorted(images, key=NetPath.key))))
        starts_by_color[color] = starts
    return contracted, starts_by_color


def _unwind(path: ColoredPath, starts_by_color: dict[int, dict[NetNode, NetNode]],
            pivot_color: int) -> ColoredPath:
    """Undo one contraction: prepend the replaced source edge, colored by the
    pivot group, unless the witness left from the source itself."""
    replaced = starts_by_color[path.colors[0]][path.nodes[1]]
    if replaced == SOURCE:
        return path
    return ColoredPath((SOURCE, replaced) + path.nodes[1:], (pivot_color,) + path.colors)


def reachable_witness_set(family: PathGroupFamily) -> dict[NetNode, ColoredPath]:
    """A set of reachable nodes, each with a multicolored witness path.

    Construction: mark the inner endpoints of the first group's source edges
    reachable through that group, contract them into the source, recurse on
    the remaining groups, and prepend the replaced source edge (colored by
    the pivot group) wherever a recursive witness needs it; finally, every
    source edge of every group contributes its one-edge witness, and a
    closure pass extends the witnesses until no single edge can add a node.
    The result is always a subset of the exact reachable set.

    Witness count: when every path ends on a private inner node that no
    other path visits, the count strictly exceeds the number of paths (no
    contraction can then collapse two paths of one group onto the direct
    source-sink edge, so the recursive count telescopes). Without some such
    restriction no bound is possible at all: the whole node set may be
    smaller than the family.
    """
    groups = _groups(family)
    wit = _witnesses(groups)
    for color, paths in groups:
        for p in paths:
            z = p.nodes[1]
            if z not in wit:
                wit[z] = ColoredPath((SOURCE, z), (color,))
    _close_witnesses(wit, groups)
    return wit


def _close_witnesses(wit: dict[NetNode, ColoredPath], groups: _Groups) -> None:
    """Grow the witness map to a fixpoint: extend any witness by one edge of
    any group it does not use yet. Each node keeps its first witness."""
    options = _edge_options(groups)
    queue = deque(sorted(wit, key=node_key))
    while queue:
        u = queue.popleft()
        nodes, colors = wit[u].nodes, wit[u].colors
        for v, c in options.get(u, ()):
            if v not in wit and c not in colors and v not in nodes:
                wit[v] = ColoredPath(nodes + (v,), colors + (c,))
                queue.append(v)


def _witnesses(groups: _Groups) -> dict[NetNode, ColoredPath]:
    wit = {SOURCE: ColoredPath((SOURCE,), ())}
    if not groups:
        return wit
    pivot_color, pivot_paths = groups[0]
    x_inner = sorted({p.nodes[1] for p in pivot_paths if p.nodes[1] != SINK})
    contracted, starts_by_color = _contract(groups[1:], set(x_inner))
    for x in x_inner:
        wit[x] = ColoredPath((SOURCE, x), (pivot_color,))
    for node, path in _witnesses(contracted).items():
        if node != SOURCE:
            wit[node] = _unwind(path, starts_by_color, pivot_color)
    # a path of a later group stepping from a contracted node straight to the
    # sink became the direct edge there, so the recursion already holds it
    if SINK not in wit and any(p.edge_count == 1 for p in pivot_paths):
        wit[SINK] = ColoredPath((SOURCE, SINK), (pivot_color,))
    return wit


def find_multicolored_st_path(
    family: PathGroupFamily, inner_count: int, budget: int = DEFAULT_BUDGET
) -> Optional[ColoredPath]:
    """Find a source-to-sink path using each group for at most one edge.

    With more paths than ``inner_count`` ambient inner nodes a witness always
    exists and is produced by the contraction construction; failing to build
    one in that regime raises GuaranteeViolation, which would flag a bug. At
    or below the threshold, an exhaustive search decides existence exactly
    and returns the lexicographically first witness, or None; it runs under
    ``budget`` as in ``iter_multicolored_st_paths``.

    ``inner_count`` is the ambient network's inner node count; it must cover
    every inner node the family uses.
    """
    used = len(family.inner_nodes)
    if inner_count < used:
        raise PreconditionError(
            f"inner_count {inner_count} is below the {used} inner nodes in use")
    if family.total_paths <= inner_count:
        return next(iter_multicolored_st_paths(family, budget=budget), None)
    found = _contraction_st_path(_groups(family))
    if found is None:
        raise GuaranteeViolation(
            "more paths than inner nodes but no multicolored witness was built")
    return found


def _contraction_st_path(groups: _Groups) -> Optional[ColoredPath]:
    # one (starts_by_color, pivot_color) pair per contraction, unwound in
    # reverse once some group has the direct edge
    contractions = []
    while groups:
        for color, paths in groups:
            if any(p.edge_count == 1 for p in paths):
                found = ColoredPath((SOURCE, SINK), (color,))
                for starts_by_color, pivot_color in reversed(contractions):
                    found = _unwind(found, starts_by_color, pivot_color)
                return found
        # no group has a direct edge, so contracting the pivot's first nodes
        # can merge two paths of a group only into the direct edge, which the
        # next pass returns at once; otherwise the group sizes carry over exactly
        pivot_color, pivot_paths = groups[0]
        removed = {p.nodes[1] for p in pivot_paths}
        groups, starts_by_color = _contract(groups[1:], removed)
        contractions.append((starts_by_color, pivot_color))
    return None


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
    reps = sorted(copies, key=lambda nodes: nodes[1:-1] + (math.inf,))
    for nodes in reps:
        if copies[nodes] != len(nodes) - 2:
            return None
    inner = [nodes[1:-1] for nodes in reps]
    if len(set().union(*inner)) != sum(map(len, inner)):
        return None
    return Regimentation(tuple((NetPath(nodes), copies[nodes]) for nodes in reps))


def verify_regimented_dichotomy(
    paths: Iterable[NetPath],
) -> Union[Regimentation, ColoredPath]:
    """Decide which side of the regimented/traversable dichotomy holds.

    Requires exactly as many paths as distinct inner nodes in use. Regimented
    multisets admit no multicolored source-sink path, and non-regimented ones
    always admit one: the first in exhaustive order (the contraction needs
    more paths than inner nodes), with each path as its own singleton group,
    so witness colors index the paths in input order. Both sides failing
    would be a bug and raises DichotomyViolation.
    """
    plist = list(paths)
    used = len({v for p in plist for v in p.nodes[1:-1]})
    if len(plist) != used:
        raise PreconditionError(
            f"need exactly {used} paths for {used} inner nodes, got {len(plist)}")
    regimentation = is_regimented(plist)
    if regimentation is not None:
        return regimentation
    family = PathGroupFamily(tuple(PathGroup((p,)) for p in plist))
    witness = next(iter_multicolored_st_paths(family), None)
    if witness is None:
        raise DichotomyViolation("multiset is neither regimented nor traversable")
    return witness
