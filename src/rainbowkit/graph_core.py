"""Bipartite matching primitives: validation, rainbow matchings, and
augmenting alternating paths."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import total_ordering
from typing import Iterable, Iterator, Optional

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


@total_ordering
@dataclass(frozen=True, slots=True, eq=False)
class Edge:
    """An edge joining a left vertex to a right vertex.

    Construction fixes the sides, so equality, hashing and ordering go by
    the index pair ``(left.index, right.index)`` alone; they agree with
    comparing the ``(left, right)`` vertices field by field.
    """

    left: Vertex
    right: Vertex

    def __post_init__(self) -> None:
        if self.left.side is not Side.LEFT or self.right.side is not Side.RIGHT:
            raise ValueError(f"edge endpoints must be (left, right), got {self!r}")

    def __repr__(self) -> str:
        return f"({self.left.index},{self.right.index})"

    def __hash__(self) -> int:
        return hash((self.left.index, self.right.index))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Edge:
            return NotImplemented
        return (self.left.index == other.left.index
                and self.right.index == other.right.index)

    def __lt__(self, other: "Edge") -> bool:
        if other.__class__ is not Edge:
            return NotImplemented
        return (self.left.index, self.right.index) < (other.left.index, other.right.index)

    @property
    def vertices(self) -> tuple[Vertex, Vertex]:
        return (self.left, self.right)


def edge(left_index: int, right_index: int) -> Edge:
    """Shorthand edge constructor from a pair of indices."""
    return Edge(Vertex(Side.LEFT, left_index), Vertex(Side.RIGHT, right_index))


@dataclass(frozen=True, slots=True)
class Matching:
    """A set of pairwise vertex-disjoint edges: a plain record, which
    ``validate_matching`` checks."""

    edges: frozenset[Edge]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self.edges))

    def __contains__(self, item: object) -> bool:
        return item in self.edges

    def key(self) -> tuple[Edge, ...]:
        """Canonical sort key: the edges in ascending order."""
        return tuple(sorted(self.edges))


def validate_matching(edges: Iterable[Edge]) -> Matching:
    """Check pairwise disjointness and wrap the edges as a Matching.

    Raises OverlapError naming the first conflicting vertex in edge order.
    """
    edges = frozenset(edges)
    if (len({e.left.index for e in edges}) != len(edges)
            or len({e.right.index for e in edges}) != len(edges)):
        seen: set[Vertex] = set()
        for e in sorted(edges):
            for v in e.vertices:
                if v in seen:
                    raise OverlapError(v)
                seen.add(v)
    return Matching(edges)


@dataclass(frozen=True, slots=True)
class MatchingFamily:
    """An ordered list of matchings; positions act as colors."""

    members: tuple[Matching, ...]

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

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def colors(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.entries)


def rainbow_is_valid(rainbow: RainbowMatching, family: MatchingFamily) -> bool:
    """True iff every chosen edge belongs to the matching of its color."""
    return all(0 <= c < len(family) and e in family[c] for c, e in rainbow.entries)


def augmenting_paths(base: Matching, other: Matching) -> tuple[tuple[Edge, ...], ...]:
    """All vertex-disjoint augmenting paths for ``base`` inside ``base | other``,
    each as its tuple of edges.

    Each path starts at a left vertex ``base`` leaves free, alternates an
    ``other`` edge and a ``base`` edge, and ends at a right vertex ``base``
    leaves free; the paths are ordered by left endpoint. These are exactly
    the path components of the union whose two endpoints ``base`` leaves
    free. If ``len(other) == len(base) + q`` then at least ``q`` paths are
    returned.
    """
    base_lefts = {e.left.index for e in base.edges}
    base_at_right = {e.right.index: e for e in base.edges}
    other_at_left = {e.left.index: e for e in other.edges}
    paths = []
    for start in sorted(other_at_left.keys() - base_lefts):
        e: Optional[Edge] = other_at_left[start]
        if e.right.index not in base_at_right:
            paths.append((e,))
            continue
        edges: list[Edge] = []
        while e is not None:
            edges.append(e)
            f = base_at_right.get(e.right.index)
            if f is None:
                paths.append(tuple(edges))
                break
            edges.append(f)
            e = other_at_left.get(f.left.index)
    return tuple(paths)
