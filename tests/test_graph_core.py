import random

import pytest

from rainbowkit import (
    Component,
    Matching,
    OverlapError,
    RainbowMatching,
    Side,
    Vertex,
    augmenting_paths,
    edge,
    symmetric_difference_components,
    validate_matching,
)


def random_matching(rng, side, size):
    lefts = sorted(rng.sample(range(side), size))
    rights = rng.sample(range(side), size)
    return validate_matching(edge(lefts[i], rights[i]) for i in range(size))


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
        assert rm.entries[0][0] == 0
        assert rm.edge_of(2) == edge(1, 1)
        assert rm.colors == {0, 2}

    def test_duplicate_color_rejected(self):
        with pytest.raises(ValueError):
            RainbowMatching(((0, edge(0, 0)), (0, edge(1, 1))))

    def test_overlapping_range_rejected(self):
        with pytest.raises(OverlapError):
            RainbowMatching(((0, edge(0, 0)), (1, edge(0, 1))))


class TestComponents:
    def test_identical_matchings_give_single_edge_paths(self):
        m = validate_matching([edge(0, 0)])
        comps = symmetric_difference_components(m, m)
        assert len(comps) == 1
        assert not comps[0].is_cycle
        assert comps[0].edges == (edge(0, 0),)

    def test_cycle_of_length_six(self, even3, odd3):
        comps = symmetric_difference_components(even3, odd3)
        assert len(comps) == 1
        assert comps[0].is_cycle
        assert len(comps[0].vertices) == 6
        assert len(comps[0].edges) == 6

    def test_three_edge_union_is_one_path(self):
        g = validate_matching([edge(0, 0)])
        h = validate_matching([edge(0, 1), edge(1, 0)])
        comps = symmetric_difference_components(g, h)
        assert len(comps) == 1
        comp = comps[0]
        assert not comp.is_cycle
        # canonical orientation: smallest endpoint first
        assert comp.vertices == (
            Vertex(Side.LEFT, 1), Vertex(Side.RIGHT, 0),
            Vertex(Side.LEFT, 0), Vertex(Side.RIGHT, 1))

    def test_every_kind_of_component_pinned(self):
        # in order: a 4-cycle; a path whose smallest vertex L2 is interior and
        # whose end reached first (R2, toward L2's smaller neighbor) is the
        # larger one, so it is reversed; a path starting at its smallest vertex;
        # a path whose smallest vertex L6 is interior but whose end reached
        # first is the smaller one; an edge of both matchings; an edge of h only
        g = validate_matching([edge(0, 0), edge(1, 1), edge(2, 2), edge(3, 3),
                               edge(4, 4), edge(7, 6), edge(6, 7), edge(8, 8)])
        h = validate_matching([edge(1, 0), edge(0, 1), edge(2, 3), edge(5, 4),
                               edge(6, 6), edge(8, 8), edge(9, 9)])

        def comp(verts, edges, is_cycle=False):
            return Component(
                tuple(Vertex(Side.LEFT if s == "L" else Side.RIGHT, i) for s, i in verts),
                tuple(edge(*e) for e in edges), is_cycle)

        assert symmetric_difference_components(g, h) == (
            comp([("L", 0), ("R", 0), ("L", 1), ("R", 1)],
                 [(0, 0), (1, 0), (1, 1), (0, 1)], is_cycle=True),
            comp([("L", 3), ("R", 3), ("L", 2), ("R", 2)], [(3, 3), (2, 3), (2, 2)]),
            comp([("L", 4), ("R", 4), ("L", 5)], [(4, 4), (5, 4)]),
            comp([("L", 7), ("R", 6), ("L", 6), ("R", 7)], [(7, 6), (6, 6), (6, 7)]),
            comp([("L", 8), ("R", 8)], [(8, 8)]),
            comp([("L", 9), ("R", 9)], [(9, 9)]),
        )
        assert [p.vertices for p in augmenting_paths(g, h)] == [
            (Vertex(Side.LEFT, 9), Vertex(Side.RIGHT, 9))]

    def test_components_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        for _ in range(500):
            g = random_matching(rng, 6, rng.randint(0, 6))
            h = random_matching(rng, 6, rng.randint(0, 6))
            union = nx.Graph()
            union.add_edges_from(e.vertices for e in g.edges | h.edges)
            comps = symmetric_difference_components(g, h)
            assert {frozenset(c.vertices) for c in comps} == {
                frozenset(c) for c in nx.connected_components(union)}
            for c in comps:
                assert len(set(c.vertices)) == len(c.vertices)
                cyclic = union.subgraph(c.vertices).number_of_edges() == len(c.vertices)
                assert c.is_cycle == cyclic

    def test_partition_and_symmetry_properties(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_matching(rng, 5, rng.randint(0, 4))
            h = random_matching(rng, 5, rng.randint(0, 4))
            comps = symmetric_difference_components(g, h)
            covered = [e for c in comps for e in c.edges]
            assert sorted(covered) == sorted(g.edges | h.edges)
            assert len(set(covered)) == len(covered)
            for comp in comps:
                for first, second in zip(comp.edges, comp.edges[1:]):
                    assert (first in g.edges) != (second in g.edges) or (
                        first in h.edges) != (second in h.edges)
            mirrored = symmetric_difference_components(h, g)
            assert {frozenset(c.vertices) for c in comps} == {
                frozenset(c.vertices) for c in mirrored}


class TestAugmentingPaths:
    def test_empty_base_single_edge(self):
        paths = augmenting_paths(validate_matching([]), validate_matching([edge(0, 0)]))
        assert len(paths) == 1
        assert paths[0].edges == (edge(0, 0),)

    def test_three_edge_path(self):
        base = validate_matching([edge(0, 0)])
        other = validate_matching([edge(0, 1), edge(1, 0)])
        paths = augmenting_paths(base, other)
        assert len(paths) == 1
        assert len(paths[0].edges) == 3

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
                assert not seen & set(p.vertices)
                seen |= set(p.vertices)

    def test_paths_join_free_vertices_and_grow_the_base(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_matching(rng, 6, rng.randint(0, 3))
            h = random_matching(rng, 6, rng.randint(0, 6))
            for p in augmenting_paths(g, h):
                first, last = p.vertices[0], p.vertices[-1]
                assert (first.side, last.side) == (Side.LEFT, Side.RIGHT)
                assert first not in g.vertices and last not in g.vertices
                grown = Matching(g.edges ^ set(p.edges))
                assert len(grown) == len(g) + 1
