import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowkit import (
    Edge,
    MatchingFamily,
    OverlapError,
    RainbowMatching,
    Side,
    Vertex,
    augmenting_paths,
    edge,
    rainbow_is_valid,
    validate_matching,
)


def random_matching(rng, side, size):
    lefts = sorted(rng.sample(range(side), size))
    rights = rng.sample(range(side), size)
    return validate_matching(edge(lefts[i], rights[i]) for i in range(size))


def covered(m):
    return {v for e in m.edges for v in e.vertices}


@st.composite
def matching_pairs(draw):
    """Two matchings on 1-9 vertices a side."""
    side = draw(st.integers(1, 9))

    def matching():
        size = draw(st.integers(0, side))
        lefts = draw(st.permutations(range(side)))[:size]
        rights = draw(st.permutations(range(side)))[:size]
        return validate_matching(edge(a, b) for a, b in zip(lefts, rights))

    return matching(), matching()


def walk(edges):
    """The vertex sequence of a path given as its edges: the first edge's
    left end, then the far end of each edge in turn."""
    verts = [edges[0].left]
    for e in edges:
        verts.append(e.right if verts[-1] == e.left else e.left)
    return tuple(verts)


def walked(paths):
    """Each path as its (vertex walk, edges) pair."""
    return tuple((walk(p), p) for p in paths)


def alt_path(verts, edges):
    return (tuple(Vertex(Side.LEFT if s == "L" else Side.RIGHT, i) for s, i in verts),
            tuple(edge(*e) for e in edges))


def vertex_fields(e):
    """The dataclass field order of an edge: its two (side, index) vertices."""
    return ((e.left.side, e.left.index), (e.right.side, e.right.index))


class TestEdge:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.integers(-2, 4), st.integers(-2, 4)),
                    min_size=1, max_size=8))
    def test_order_equality_and_hash_follow_the_fields(self, pairs):
        edges = [edge(a, b) for a, b in pairs]
        for x in edges:
            for y in edges:
                fx, fy = vertex_fields(x), vertex_fields(y)
                assert (x < y, x <= y, x > y, x >= y) == (fx < fy, fx <= fy, fx > fy, fx >= fy)
                assert (x == y, x != y) == (fx == fy, fx != fy)
                if x == y:
                    assert hash(x) == hash(y)
        assert list(map(vertex_fields, sorted(edges))) == sorted(map(vertex_fields, edges))
        assert vertex_fields(min(edges)) == min(map(vertex_fields, edges))

    def test_not_equal_to_its_index_pair(self):
        assert not edge(0, 0) == (0, 0)
        assert edge(0, 0) != (0, 0)

    def test_not_ordered_against_a_tuple(self):
        with pytest.raises(TypeError):
            edge(0, 0) < (0, 0)

    @pytest.mark.parametrize("left,right", [
        (Vertex(Side.RIGHT, 0), Vertex(Side.LEFT, 0)),
        (Vertex(Side.LEFT, 0), Vertex(Side.LEFT, 1)),
        (Vertex(Side.RIGHT, 0), Vertex(Side.RIGHT, 1)),
    ])
    def test_swapped_sides_rejected(self, left, right):
        with pytest.raises(ValueError):
            Edge(left, right)


class TestValidateMatching:
    def test_empty(self):
        assert len(validate_matching([])) == 0

    def test_disjoint_pair(self):
        m = validate_matching([edge(0, 0), edge(1, 1)])
        assert len(m) == 2

    def test_shared_left_vertex_named(self):
        with pytest.raises(OverlapError) as info:
            validate_matching([edge(0, 0), edge(0, 1)])
        assert info.value.vertex == Vertex(Side.LEFT, 0)

    def test_shared_right_vertex(self):
        with pytest.raises(OverlapError) as info:
            validate_matching([edge(0, 1), edge(2, 1)])
        assert info.value.vertex == Vertex(Side.RIGHT, 1)


class TestRainbowMatching:
    def test_entries_sorted_and_queryable(self):
        rm = RainbowMatching(((2, edge(1, 1)), (0, edge(0, 0))))
        assert rm.entries == ((0, edge(0, 0)), (2, edge(1, 1)))
        assert rm.colors == {0, 2}

    def test_duplicate_color_rejected(self):
        with pytest.raises(ValueError):
            RainbowMatching(((0, edge(0, 0)), (0, edge(1, 1))))

    def test_edge_under_two_colors_rejected(self):
        with pytest.raises(ValueError, match="an edge appears twice"):
            RainbowMatching(((0, edge(0, 0)), (1, edge(0, 0))))

    def test_overlapping_range_rejected(self):
        with pytest.raises(OverlapError):
            RainbowMatching(((0, edge(0, 0)), (1, edge(0, 1))))


class TestRainbowIsValid:
    FAMILY = MatchingFamily((validate_matching([edge(0, 0)]),))

    def test_edge_outside_its_member_fails(self):
        assert not rainbow_is_valid(RainbowMatching(((0, edge(1, 1)),)), self.FAMILY)

    def test_color_equal_to_the_family_size_fails(self):
        assert not rainbow_is_valid(RainbowMatching(((1, edge(0, 0)),)), self.FAMILY)


class TestAugmentingPaths:
    def test_empty_base_single_edge(self):
        paths = augmenting_paths(validate_matching([]), validate_matching([edge(0, 0)]))
        assert len(paths) == 1
        assert paths[0] == (edge(0, 0),)

    def test_three_edge_path(self):
        base = validate_matching([edge(0, 0)])
        other = validate_matching([edge(0, 1), edge(1, 0)])
        assert walked(augmenting_paths(base, other)) == (alt_path(
            [("L", 1), ("R", 0), ("L", 0), ("R", 1)], [(1, 0), (0, 0), (0, 1)]),)

    def test_cycle_union_has_no_augmenting_path(self, even3, odd3):
        assert augmenting_paths(even3, odd3) == ()

    def test_count_lower_bound(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_matching(rng, 6, rng.randint(0, 3))
            h = random_matching(rng, 6, rng.randint(0, 6))
            paths = augmenting_paths(g, h)
            assert len(paths) >= len(h) - len(g)
            seen = set()
            for p in paths:
                assert not seen & set(walk(p))
                seen |= set(walk(p))

    def test_paths_join_free_vertices_and_grow_the_base(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_matching(rng, 6, rng.randint(0, 3))
            h = random_matching(rng, 6, rng.randint(0, 6))
            for p in augmenting_paths(g, h):
                first, last = walk(p)[0], walk(p)[-1]
                assert (first.side, last.side) == (Side.LEFT, Side.RIGHT)
                assert first not in covered(g) and last not in covered(g)
                grown = validate_matching(g.edges ^ set(p))
                assert len(grown) == len(g) + 1

    def test_every_kind_of_component_pinned(self):
        # the union holds a 4-cycle, a path whose smallest vertex L2 is
        # interior, a path starting at its smallest vertex, a path whose
        # smallest vertex L6 is interior, an edge of both matchings and an
        # edge of h only; only the last one augments g
        g = validate_matching([edge(0, 0), edge(1, 1), edge(2, 2), edge(3, 3),
                               edge(4, 4), edge(7, 6), edge(6, 7), edge(8, 8)])
        h = validate_matching([edge(1, 0), edge(0, 1), edge(2, 3), edge(5, 4),
                               edge(6, 6), edge(8, 8), edge(9, 9)])
        assert walked(augmenting_paths(g, h)) == (alt_path([("L", 9), ("R", 9)], [(9, 9)]),)

    def test_paths_in_left_endpoint_order(self):
        # three augmenting paths, the one from L2 through its smallest vertex
        # L0 in the interior, and a walk from L5 that ends at the matched L6
        g = validate_matching([edge(0, 0), edge(4, 2), edge(6, 4)])
        h = validate_matching([edge(2, 0), edge(0, 5), edge(1, 1), edge(3, 2),
                               edge(4, 3), edge(5, 4)])
        assert walked(augmenting_paths(g, h)) == (
            alt_path([("L", 1), ("R", 1)], [(1, 1)]),
            alt_path([("L", 2), ("R", 0), ("L", 0), ("R", 5)], [(2, 0), (0, 0), (0, 5)]),
            alt_path([("L", 3), ("R", 2), ("L", 4), ("R", 3)], [(3, 2), (4, 2), (4, 3)]),
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(matching_pairs())
    def test_paths_match_networkx(self, pair):
        nx = pytest.importorskip("networkx")
        base, other = pair
        union = nx.Graph()
        union.add_edges_from(e.vertices for e in base.edges | other.edges)
        free_paths = set()
        for comp in map(frozenset, nx.connected_components(union)):
            ends = [v for v in comp if union.degree(v) == 1]
            is_path = union.subgraph(comp).number_of_edges() == len(comp) - 1
            if is_path and not covered(base) & set(ends):
                free_paths.add(comp)
        paths = augmenting_paths(base, other)
        assert {frozenset(verts) for verts, _ in walked(paths)} == free_paths
        assert [p[0].left for p in paths] == sorted(p[0].left for p in paths)
        for verts, p in walked(paths):
            assert len(verts) == len(p) + 1
            for i, e in enumerate(p):
                assert set(e.vertices) == {verts[i], verts[i + 1]}
                assert (e in other, e in base) == ((True, False) if i % 2 == 0 else (False, True))
