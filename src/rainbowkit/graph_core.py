"""Bipartite matching primitives: validation, unions of matchings, and
augmenting alternating paths."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Mapping

from .errors import OverlapError


class Side(IntEnum):
    LEFT = 0
    RIGHT = 1


@dataclass(frozen=True, slots=True, order=True)
class Vertex:
    """One endpoint of the bipartite graph, identified by side and index."""

    side: Side
    index: int

    def __repr__(self) -> str:
        return f"{'L' if self.side is Side.LEFT else 'R'}{self.index}"


@dataclass(frozen=True, slots=True, order=True)
class Edge:
    """An edge joining a left vertex to a right vertex."""

    left: Vertex
    right: Vertex

    def __post_init__(self) -> None:
        if self.left.side is not Side.LEFT or self.right.side is not Side.RIGHT:
            raise ValueError(f"edge endpoints must be (left, right), got {self!r}")

    def __repr__(self) -> str:
        return f"({self.left.index},{self.right.index})"

    @property
    def vertices(self) -> tuple[Vertex, Vertex]:
        return (self.left, self.right)


def edge(left_index: int, right_index: int) -> Edge:
    """Shorthand edge constructor from a pair of indices."""
    return Edge(Vertex(Side.LEFT, left_index), Vertex(Side.RIGHT, right_index))


@dataclass(frozen=True, slots=True)
class Matching:
    """A set of pairwise vertex-disjoint edges.

    Construction checks disjointness and raises OverlapError naming the first
    conflicting vertex in edge order.
    """

    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        seen: set[Vertex] = set()
        for e in sorted(self.edges):
            for v in e.vertices:
                if v in seen:
                    raise OverlapError(v)
                seen.add(v)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self.edges))

    def __contains__(self, item: object) -> bool:
        return item in self.edges

    @property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset(v for e in self.edges for v in e.vertices)

    def key(self) -> tuple[Edge, ...]:
        """Canonical sort key: the edges in ascending order."""
        return tuple(sorted(self.edges))


def validate_matching(edges: Iterable[Edge]) -> Matching:
    """Check pairwise disjointness and wrap the edges as a Matching."""
    return Matching(frozenset(edges))


@dataclass(frozen=True, slots=True)
class MatchingFamily:
    """An ordered list of matchings; positions act as colors."""

    members: tuple[Matching, ...]

    @classmethod
    def of(cls, members: Iterable[Matching | Iterable[Edge]]) -> "MatchingFamily":
        coerced = tuple(
            m if isinstance(m, Matching) else validate_matching(m) for m in members
        )
        return cls(coerced)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.members)

    def __getitem__(self, color: int) -> Matching:
        return self.members[color]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)


@dataclass(frozen=True, slots=True)
class RainbowMatching:
    """An injective partial choice of one edge per color whose range is a matching."""

    entries: tuple[tuple[int, Edge], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", ordered)
        colors = [c for c, _ in ordered]
        if len(set(colors)) != len(colors):
            raise ValueError("a color appears twice in the rainbow matching")
        edges = [e for _, e in ordered]
        if len(set(edges)) != len(edges):
            raise ValueError("an edge appears twice in the rainbow matching")
        validate_matching(edges)

    @classmethod
    def of(cls, assignment: Mapping[int, Edge]) -> "RainbowMatching":
        return cls(tuple(assignment.items()))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def colors(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.entries)

    @property
    def matching(self) -> Matching:
        return Matching(frozenset(e for _, e in self.entries))

    def edge_of(self, color: int) -> Edge:
        return dict(self.entries)[color]

    def as_dict(self) -> dict[int, Edge]:
        return dict(self.entries)


def rainbow_is_valid(rainbow: RainbowMatching, family: MatchingFamily) -> bool:
    """True iff every chosen edge belongs to the matching of its color."""
    return all(0 <= c < len(family) and e in family[c] for c, e in rainbow.entries)


@dataclass(frozen=True, slots=True)
class Component:
    """A path or cycle component of the union of two matchings."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    is_cycle: bool


@dataclass(frozen=True, slots=True)
class AlternatingPath:
    """A simple path whose edges alternate in and out of a base matching."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]


def symmetric_difference_components(g: Matching, h: Matching) -> tuple[Component, ...]:
    """Split the union of two matchings into its path and cycle components.

    Every vertex meets at most one edge of either matching, so each component
    is a simple path or an even cycle alternating between the two matchings;
    an edge shared by both matchings forms a one-edge path of its own. Output
    is canonical: paths start at their smallest endpoint, cycles start at
    their smallest vertex and step toward its smaller neighbor, and the
    components are ordered by smallest vertex.
    """
    steps: dict[Vertex, list[tuple[Vertex, Edge]]] = {}
    for e in g.edges | h.edges:
        steps.setdefault(e.left, []).append((e.right, e))
        steps.setdefault(e.right, []).append((e.left, e))

    seen: set[Vertex] = set()
    components: list[Component] = []
    for start in sorted(steps):
        if start in seen:
            continue
        # start is the smallest vertex of its component
        verts, edges, closed = _walk(start, min(steps[start]), steps)
        if not closed and len(steps[start]) == 2:
            # start lies inside a path: walk it again from the end reached
            end = verts[-1]
            verts, edges, _ = _walk(end, steps[end][0], steps)
            if verts[-1] < end:
                verts.reverse()
                edges.reverse()
        seen.update(verts)
        components.append(Component(tuple(verts), tuple(edges), closed))
    return tuple(components)


def _walk(
    start: Vertex, step: tuple[Vertex, Edge], steps: dict[Vertex, list[tuple[Vertex, Edge]]]
) -> tuple[list[Vertex], list[Edge], bool]:
    """Follow the union from ``start`` along ``step`` until it returns to
    ``start`` (closed) or reaches a vertex with one edge."""
    cur, e = step
    verts, edges = [start], [e]
    while cur != start:
        verts.append(cur)
        out = steps[cur]
        if len(out) == 1:
            return verts, edges, False
        # the step back to where we came from holds this very Edge object
        cur, e = out[0] if out[1][1] is e else out[1]
        edges.append(e)
    return verts, edges, True


def augmenting_paths(base: Matching, other: Matching) -> tuple[AlternatingPath, ...]:
    """All vertex-disjoint augmenting paths for ``base`` inside ``base | other``.

    These are exactly the path components of the union whose two endpoints
    are unmatched by ``base``. If ``len(other) == len(base) + q`` then at
    least ``q`` paths are returned.
    """
    matched = base.vertices
    paths = []
    for comp in symmetric_difference_components(base, other):
        if comp.is_cycle:
            continue
        if comp.vertices[0] in matched or comp.vertices[-1] in matched:
            continue
        paths.append(AlternatingPath(comp.vertices, comp.edges))
    return tuple(paths)

