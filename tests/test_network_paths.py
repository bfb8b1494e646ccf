import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rainbowkit import (
    BudgetExceeded,
    ColoredPath,
    DEFAULT_BUDGET,
    DichotomyViolation,
    GenSpec,
    GuaranteeViolation,
    InnerOverlapError,
    MalformedPathError,
    PathGroup,
    PathGroupFamily,
    PreconditionError,
    Regimentation,
    SINK,
    SOURCE,
    build_family,
    brute_mc_path,
    brute_reaches_sink,
    colored_path_conforms,
    find_multicolored_st_path,
    generate,
    is_regimented,
    iter_multicolored_st_paths,
    make_path,
    NetPath,
    reachable_witness_set,
    verify_regimented_dichotomy,
)
from rainbowkit import network_paths
from conftest import networks, path


class TestNetPath:
    def test_must_run_source_to_sink(self):
        with pytest.raises(MalformedPathError):
            make_path(["s", 0])
        with pytest.raises(MalformedPathError):
            make_path([0, "t"])

    def test_no_repeats(self):
        with pytest.raises(MalformedPathError):
            make_path(["s", 0, 0, "t"])

    def test_inner_nodes_are_integers(self):
        with pytest.raises(MalformedPathError):
            make_path(["s", "x", "t"])


def _pair_key(node):
    """The (rank, index) node order that ``NetPath.key`` encodes."""
    return (0, 0) if node == SOURCE else (2, 0) if node == SINK else (1, node)


_paths = st.permutations(range(6)).flatmap(
    lambda order: st.integers(0, 6).map(lambda r: NetPath(("s", *order[:r], "t"))))


class TestScalarOrder:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(_paths, max_size=12))
    def test_equals_the_pair_order(self, paths):
        assert sorted(paths, key=NetPath.key) == sorted(
            paths, key=lambda p: tuple(_pair_key(v) for v in p.nodes))

    def test_a_path_sorts_after_its_extensions(self):
        # the sink's infinity sorts after every inner node
        s0t, s01t, st_ = path("s", 0, "t"), path("s", 0, 1, "t"), path("s", "t")
        assert sorted([st_, s0t, s01t], key=NetPath.key) == [s01t, s0t, st_]


class TestBuildFamily:
    def test_single_path(self):
        fam = build_family([[path("s", 0, "t")]])
        assert fam.total_paths == 1
        assert fam.groups == (PathGroup((path("s", 0, "t"),)),)

    def test_disjoint_interiors_accepted(self):
        fam = build_family([[path("s", 0, "t"), path("s", 1, "t")]])
        assert fam.total_paths == 2

    def test_shared_inner_vertex_rejected(self):
        with pytest.raises(InnerOverlapError) as info:
            build_family([[path("s", 0, "t"), path("s", 0, 1, "t")]])
        assert info.value.group == 0
        assert info.value.vertex == 0
        with pytest.raises(InnerOverlapError) as info:
            build_family([[path("s", 0, "t")], [path("s", 2, "t"), path("s", 1, 2, "t")]])
        assert (info.value.group, info.value.vertex) == (1, 2)
        assert str(info.value) == "group 1: paths share inner vertex 2"

    def test_duplicate_direct_paths_collapse(self):
        fam = build_family([[path("s", "t"), path("s", "t")]])
        assert fam.groups[0] == (path("s", "t"),)

    def test_empty_groups_kept_in_place(self):
        fam = build_family([[], [path("s", 0, "t")], [], [path("s", 0, "t")]])
        empty, full = PathGroup(()), PathGroup((path("s", 0, "t"),))
        assert fam.groups == (empty, full, empty, full)
        assert fam.total_paths == 2
        # the empty groups color nothing; the witness colors are input positions
        witness = find_multicolored_st_path(fam)
        assert (witness.nodes, witness.colors) == (("s", 0, "t"), (1, 3))


class TestColoredPath:
    # every rejection below except the empty path fails exactly one
    # condition of the check
    fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")],
                        [path("s", 1, 0, "t")], [path("s", 0, 1, "t")]])

    def test_colors_must_be_distinct(self):
        assert not colored_path_conforms(ColoredPath(("s", 0, "t"), (1, 1)), self.fam)

    def test_conformance_checks_group_membership(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        good = ColoredPath(("s", 0, "t"), (0, 1))
        bad = ColoredPath(("s", 0, "t"), (0, 5))
        assert colored_path_conforms(good, fam)
        assert not colored_path_conforms(bad, fam)

    @pytest.mark.parametrize("nodes,colors,conforms", [
        (("s",), (), True),
        (("s", 0, 1), (0, 3), True),
        (("s", 0, "t"), (0, 2), True),
        ((), (), False),
        ((0, "t"), (0,), False),
        (("s", 0, "t"), (0,), False),
        (("s", 0, "t"), (0, 1, 2), False),
        (("s", 0, 1, 0), (0, 3, 2), False),
        (("s", 0, 1), (0, 1), False),
        (("s", 0, 1), (0, -1), False),
        (("s", 0), (2,), False),
        (("s", 1, 0), (2, 3), False),
    ], ids=["source-only", "stops-inside", "reaches-sink", "empty", "not-from-source",
            "too-few-colors", "too-many-colors", "repeated-node", "edge-off-its-group",
            "negative-color", "both-nodes-on-its-group-but-not-the-edge",
            "edge-reversed-on-its-group"])
    def test_checks_every_condition(self, nodes, colors, conforms):
        assert colored_path_conforms(ColoredPath(nodes, colors), self.fam) is conforms


def _arbitrary_family(rng):
    inner = rng.randint(0, 5)
    groups = []
    for _ in range(rng.randint(1, 4)):
        group, used = [], set()
        for _ in range(rng.randint(0, 3)):
            interior = rng.sample(range(inner), rng.randint(0, min(3, inner)))
            if used.isdisjoint(interior):
                used.update(interior)
                group.append(make_path(("s", *interior, "t")))
        groups.append(group)
    return build_family(groups)


class TestReachableWitnessSet:
    def test_empty_family(self):
        wit = reachable_witness_set(build_family([]))
        assert set(wit) == {SOURCE}
        assert wit[SOURCE].nodes == (SOURCE,)

    def test_single_group_stops_before_sink(self):
        fam = build_family([[path("s", 0, "t")]])
        wit = reachable_witness_set(fam)
        assert set(wit) == {SOURCE, 0}
        assert len(wit) == 2 > fam.total_paths

    def test_two_singleton_groups_reach_sink(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        wit = reachable_witness_set(fam)
        assert set(wit) == {SOURCE, 0, SINK}
        assert wit[SINK].nodes == (SOURCE, 0, SINK)
        assert wit[SINK].colors == (0, 1)

    def test_witnesses_valid_and_inside_exact_set_on_random_networks(self):
        rng = random.Random(3)
        for _ in range(300):
            fam = generate(GenSpec.network(
                inner=rng.randint(1, 6), groups=rng.randint(1, 3),
                paths_per_group=rng.randint(1, 2), seed=rng.getrandbits(63)))
            wit = reachable_witness_set(fam)
            exact = brute_mc_path(fam)
            assert len(wit) > fam.total_paths
            for node, witness in wit.items():
                assert colored_path_conforms(witness, fam)
                assert node in exact
        # arbitrary families: exits shared across groups, direct edges, and
        # every group doubled half the time to pass the path-count threshold
        for i in range(600):
            fam = _arbitrary_family(rng)
            if i % 2:
                fam = PathGroupFamily(fam.groups + fam.groups)
            wit = reachable_witness_set(fam)
            exact = brute_mc_path(fam)
            for node, witness in wit.items():
                assert colored_path_conforms(witness, fam)
                assert witness.target == node
                assert node in exact
            if fam.total_paths > len(fam.inner_nodes):
                assert SINK in exact and SINK in wit

    def test_a_thousand_contractions_deep(self):
        # groups s->k->t for k < 1000 and one path s->0->...->999->t: one
        # contraction level per group, with the sink's witness at the last
        groups = [[path("s", k, "t")] for k in range(1000)]
        fam = build_family(groups + [[path("s", *range(1000), "t")]])
        wit = reachable_witness_set(fam)
        assert len(wit) == 1002 and SINK in wit
        for node, witness in wit.items():
            assert witness.target == node
            assert colored_path_conforms(witness, fam)

    @pytest.mark.parametrize("groups,witnesses", [
        ([[path("s", 0, 1, 2, "t")], [path("s", 3, "t")], [path("s", 3, 1, "t")]],
         ["s via []", "s->0 via [0]", "s->3 via [1]", "s->3->1 via [1, 2]"]),
        ([[path("s", 1, "t")], [path("s", "t"), path("s", 0, 2, "t")],
          [path("s", 2, 1, "t")]],
         ["s via []", "s->1 via [0]", "s->0 via [1]", "s->1->t via [0, 2]"]),
        ([[path("s", 0, 2, "t")], [path("s", 2, 1, "t")], [path("s", 1, "t")]],
         ["s via []", "s->0 via [0]", "s->2 via [1]", "s->1 via [2]"]),
    ], ids=["a-later-level-extends-a-reached-node", "the-sink-comes-last",
            "no-path-steps-to-the-sink"])
    def test_insertion_order(self, groups, witnesses):
        # the source, then each level's reached nodes, then the sink
        wit = reachable_witness_set(build_family(groups))
        assert [repr(w) for w in wit.values()] == witnesses
        assert [w.target for w in wit.values()] == list(wit)


class TestFindMulticoloredStPath:
    def test_direct_edge(self):
        fam = build_family([[path("s", "t")]])
        found = find_multicolored_st_path(fam)
        assert found.nodes == (SOURCE, SINK)
        assert found.colors == (0,)

    def test_two_copies_above_threshold(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        found = find_multicolored_st_path(fam)
        assert found.nodes == (SOURCE, 0, SINK)
        assert found.colors == (0, 1)

    def test_search_below_threshold(self):
        fam = build_family([[path("s", 0, 1, "t")], [path("s", 1, "t")]])
        found = find_multicolored_st_path(fam)
        assert found.nodes == (SOURCE, 1, SINK)
        assert found.colors == (1, 0)

    def test_later_path_hopping_from_pivot_node_to_sink(self):
        fam = build_family([[path("s", 0, 1, "t")], [path("s", 2, 0, "t")]])
        found = find_multicolored_st_path(fam)
        assert found.nodes == (SOURCE, 0, SINK)
        assert found.colors == (0, 1)
        # contraction turns the hop into the second group's direct edge
        sink = reachable_witness_set(fam)[SINK]
        assert (sink.nodes, sink.colors) == ((SOURCE, 0, SINK), (0, 1))
        # the two searches stop differently on one pass: the st-path takes
        # the earliest level L at which a path of a later group is reached
        # up to its step to the sink, then the first such group; the witness
        # set takes the last such group, then its latest L; a tie goes to the
        # path whose part after its last node reached below L sorts first
        cases = [
            ([[("s", "t"), ("s", 0, 1, "t")], [("s", 0, "t")]],
             ((SOURCE, SINK), (0,)), ((SOURCE, 0, SINK), (0, 1))),
            # s->0->t beats s->1->t, though s->2->0->t sorts after s->1->t
            ([[("s", 2, "t")]] + [[("s", 2, 0, "t"), ("s", 1, "t")]] * 2,
             ((SOURCE, 2, 0, SINK), (0, 1, 2)), ((SOURCE, 2, 0, SINK), (0, 1, 2))),
            # the last group steps to the sink from node 1 (level 0) and from
            # node 0 (level 1)
            ([[("s", 1, "t")], [("s", 0, "t")], [("s", 0, "t"), ("s", 1, "t")]],
             ((SOURCE, 1, SINK), (0, 2)), ((SOURCE, 0, SINK), (1, 2))),
            # a later reach beats the group's own direct edge
            ([[("s", 0, "t")], [("s", 0, "t"), ("s", "t")]],
             ((SOURCE, SINK), (1,)), ((SOURCE, 0, SINK), (0, 1))),
        ]
        for groups, first, deepest in cases:
            fam = build_family([[path(*p) for p in g] for g in groups])
            assert fam.total_paths > len(fam.inner_nodes)
            found = find_multicolored_st_path(fam)
            assert (found.nodes, found.colors) == first
            sink = reachable_witness_set(fam)[SINK]
            assert (sink.nodes, sink.colors) == deepest

    def test_unbuilt_witness_above_threshold_raises(self, monkeypatch):
        # a contraction that reaches nothing, on two paths over one node
        monkeypatch.setattr(network_paths, "_reach",
                            lambda groups: ({SOURCE: (-1, SOURCE, -1)}, []))
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        with pytest.raises(GuaranteeViolation, match="^more paths than inner nodes "):
            find_multicolored_st_path(fam)

    def test_stale_inner_count_is_refused(self):
        # the inner count is the family's own; a stale positional count
        # must not be read as the budget
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        with pytest.raises(TypeError):
            find_multicolored_st_path(fam, 1)

    def test_agrees_with_oracle_at_or_below_threshold(self):
        rng = random.Random(17)
        pool = [p for r in range(0, 3)
                for p in (make_path(("s", *perm, "t"))
                          for perm in itertools.permutations(range(3), r))]
        for _ in range(400):
            k = rng.randint(1, 3)
            groups = []
            for _ in range(rng.randint(1, 3)):
                g = []
                for p in rng.sample(pool, len(pool)):
                    if len(g) >= 2:
                        break
                    if p not in g and not any(
                            p.inner_nodes & q.inner_nodes for q in g):
                        g.append(p)
                groups.append(g)
            fam = build_family(groups)
            if fam.total_paths > len(fam.inner_nodes):
                continue
            found = find_multicolored_st_path(fam)
            exact = brute_mc_path(fam)
            assert (found is not None) == (SINK in exact)
            if found is not None:
                assert colored_path_conforms(found, fam)

    def test_guarantee_on_random_instances_above_threshold(self):
        rng = random.Random(29)
        for _ in range(300):
            fam = generate(GenSpec.network(
                inner=rng.randint(1, 5), groups=rng.randint(1, 3),
                paths_per_group=rng.randint(1, 2), seed=rng.getrandbits(63)))
            # duplicate every group to push past the threshold
            doubled = PathGroupFamily(fam.groups + fam.groups)
            if doubled.total_paths <= len(doubled.inner_nodes):
                continue
            found = find_multicolored_st_path(doubled)
            assert found is not None
            assert colored_path_conforms(found, doubled)
            assert found.target == SINK

    def test_iterator_yields_every_coloring(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        all_paths = list(iter_multicolored_st_paths(fam))
        assert {(p.nodes, p.colors) for p in all_paths} == {
            (("s", 0, "t"), (0, 1)), (("s", 0, "t"), (1, 0))}

    def test_iterator_order_interleaves_nodes_and_colors(self):
        # lexicographic over (node, color) steps, not node sequence first
        fam = build_family([[path("s", 0, 1, "t")], [path("s", 0, "t")],
                            [path("s", 1, "t")]])
        assert [repr(p) for p in iter_multicolored_st_paths(fam)] == [
            "s->0->t via [0, 1]", "s->0->1->t via [1, 0, 2]", "s->1->t via [2, 0]"]


class TestExhaustiveBudget:
    def test_one_step_per_extension(self):
        # three copies of a 4-edge path: 3 + 6 + 6 extensions, none reaching t
        fam = build_family([[path("s", 0, 1, 2, "t")]] * 3)
        assert list(iter_multicolored_st_paths(fam, budget=15)) == []
        assert find_multicolored_st_path(fam, budget=15) is None
        with pytest.raises(BudgetExceeded):
            list(iter_multicolored_st_paths(fam, budget=14))
        with pytest.raises(BudgetExceeded):
            find_multicolored_st_path(fam, budget=14)


def _reference_paths(family):
    """Every multicolored source-sink path by plain recursion, options taken
    in (head, color) order under the source/inner/sink order."""
    options = {}
    for c, group in enumerate(family.groups):
        for p in group:
            for u, v in p.edges:
                options.setdefault(u, set()).add((v, c))
    found = []

    def extend(nodes, colors):
        for v, c in sorted(options.get(nodes[-1], ()),
                           key=lambda o: (_pair_key(o[0]), o[1])):
            if v in nodes or c in colors:
                continue
            if v == SINK:
                found.append(ColoredPath(nodes + (v,), colors + (c,)))
            else:
                extend(nodes + (v,), colors + (c,))

    extend((SOURCE,), ())
    return found


@st.composite
def classed_families(draw):
    """A drawn network's groups repeated at drawn colors, up to six, and
    each color's class: the position of its group in the drawn network.
    Equal classes have equal groups, and two classes may have equal groups
    too (both empty, say)."""
    base = draw(networks())
    if not base.groups:
        return base, []
    classes = draw(st.lists(st.integers(0, len(base.groups) - 1), max_size=6))
    return PathGroupFamily(tuple(base.groups[k] for k in classes)), classes


def _signature(path, classes):
    return path.nodes, tuple(classes[c] for c in path.colors)


class TestCanonicalEnumeration:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(classed_families())
    def test_first_member_of_each_signature_in_order(self, drawn):
        fam, classes = drawn
        every = list(iter_multicolored_st_paths(fam))
        first = {}
        for p in every:
            first.setdefault(_signature(p, classes), p)
        canonical = list(iter_multicolored_st_paths(fam, classes=classes))
        assert canonical == list(first.values())

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(classed_families())
    def test_permutations_add_up_to_every_path(self, drawn):
        fam, classes = drawn
        # m_K: the colors of class K whose group is not empty
        free = Counter(classes[c] for c, g in enumerate(fam.groups) if g)
        copies = 0
        for p in iter_multicolored_st_paths(fam, classes=classes):
            uses = Counter(classes[c] for c in p.colors)
            copies += math.prod(math.perm(free[k], j) for k, j in uses.items())
        assert copies == len(list(iter_multicolored_st_paths(fam)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(networks())
    def test_without_classes_every_path_in_order(self, fam):
        assert list(iter_multicolored_st_paths(fam)) == _reference_paths(fam)

    def test_equal_groups_of_different_classes_both_yielded(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        assert [p.colors for p in iter_multicolored_st_paths(fam, classes=[0, 1])] == [
            (0, 1), (1, 0)]
        assert [p.colors for p in iter_multicolored_st_paths(fam, classes=[0, 0])] == [
            (0, 1)]

    def test_classes_of_the_wrong_length_rejected(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 1, "t")]])
        for classes in ([0], [0, 0, 1]):
            # a generator: the check runs on the first next()
            paths = iter_multicolored_st_paths(fam, classes=classes)
            with pytest.raises(PreconditionError):
                next(paths)

    def test_empty_groups_do_not_block_their_class(self):
        # color 0 has an empty group, so color 2 is its class's first
        fam = build_family([[], [path("s", 0, "t")], [path("s", 0, "t")]])
        assert [p.colors for p in iter_multicolored_st_paths(fam, classes="aba")] == [
            (1, 2), (2, 1)]


@st.composite
def streamed_families(draw):
    """A drawn network with one class per color, or the same network with
    every group listed twice, each color's class its position modulo the
    drawn group count."""
    fam = draw(networks())
    count = len(fam.groups)
    if draw(st.booleans()):
        fam = PathGroupFamily(fam.groups * 2)
    return fam, [c % count for c in range(len(fam.groups))]


class TestWitnessStream:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(streamed_families())
    def test_head_then_the_enumeration_less_its_signature(self, drawn):
        fam, classes = drawn
        stream = list(network_paths._witnesses(
            fam, len(fam.inner_nodes), classes, DEFAULT_BUDGET))
        every = list(iter_multicolored_st_paths(fam, classes=classes))
        if fam.total_paths <= len(fam.inner_nodes):
            assert stream == every
            return
        head, rest = stream[0], stream[1:]
        assert colored_path_conforms(head, fam)
        assert head.target == SINK
        assert head == find_multicolored_st_path(fam)
        assert rest == [w for w in every
                        if _signature(w, classes) != _signature(head, classes)]


@st.composite
def padded_families(draw):
    """A drawn network, the same groups with 0-2 empty ones inserted at each
    gap, and each group's position in the padded family."""
    fam = draw(networks())
    padded, positions = [], []
    for group in fam.groups:
        padded += [[]] * draw(st.integers(0, 2))
        positions.append(len(padded))
        padded.append(group)
    padded += [[]] * draw(st.integers(0, 2))
    return fam, build_family(padded), positions


def _relabel(path, positions):
    return ColoredPath(path.nodes, tuple(positions[c] for c in path.colors))


class TestEmptyGroupPadding:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(padded_families())
    def test_padding_only_relabels_witness_colors(self, drawn):
        fam, padded, positions = drawn
        found = find_multicolored_st_path(fam)
        assert find_multicolored_st_path(padded) == (
            None if found is None else _relabel(found, positions))
        assert list(iter_multicolored_st_paths(padded)) == [
            _relabel(w, positions) for w in iter_multicolored_st_paths(fam)]
        for search in (reachable_witness_set, brute_mc_path):
            assert search(padded) == {
                node: _relabel(w, positions) for node, w in search(fam).items()}


@st.composite
def _regimented_lists(draw):
    """Innerly disjoint runs of 1-6 shuffled inner nodes, each path repeated
    once per inner node, in shuffled order."""
    order = draw(st.permutations(range(6)))[:draw(st.integers(1, 6))]
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1)))) if len(order) > 1 else []
    runs = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    paths = [NetPath(("s", *run, "t")) for run in runs for _ in run]
    return draw(st.permutations(paths))


class TestRegimented:
    def test_two_identical_copies(self):
        reg = is_regimented([path("s", 0, 1, "t"), path("s", 0, 1, "t")])
        assert reg is not None
        assert reg.classes[0][1] == 2

    def test_two_distinct_two_edge_paths(self):
        reg = is_regimented([path("s", 0, "t"), path("s", 1, "t")])
        assert reg is not None
        assert [c for _, c in reg.classes] == [1, 1]

    def test_wrong_class_size_or_overlap(self):
        assert is_regimented([path("s", 0, 1, "t"), path("s", 1, "t")]) is None

    def test_right_counts_but_shared_inner_node(self):
        # each class has edge-count-minus-one copies, but the two
        # representatives share inner node 1
        paths = [path("s", 0, 1, "t")] * 2 + [path("s", 1, 2, "t")] * 2
        assert is_regimented(paths) is None

    def test_direct_path_never_regimented(self):
        assert is_regimented([path("s", "t")]) is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(st.lists(_paths, max_size=8), _regimented_lists()))
    def test_classes_in_key_order_equal_to_the_callers_paths(self, paths):
        # read from a generator, which can be read once
        counter = Counter(paths)
        reg = is_regimented(p for p in paths)
        if reg is not None:
            assert list(reg.classes) == [
                (rep, counter[rep]) for rep in sorted(counter, key=NetPath.key)]
        regimented = all(c == rep.edge_count - 1 for rep, c in counter.items()) \
            and len({v for rep in counter for v in rep.nodes[1:-1]}) == \
            sum(rep.edge_count - 1 for rep in counter)
        assert (reg is not None) == regimented


class TestDichotomy:
    def test_regimented_branch(self):
        outcome = verify_regimented_dichotomy(
            [path("s", 0, 1, "t"), path("s", 0, 1, "t")])
        assert isinstance(outcome, Regimentation)

    def test_path_branch(self):
        outcome = verify_regimented_dichotomy(
            [path("s", 0, 1, "t"), path("s", 1, "t")])
        assert isinstance(outcome, ColoredPath)
        assert outcome.nodes == (SOURCE, 1, SINK)
        assert outcome.colors == (1, 0)

    @pytest.mark.parametrize("interiors,nodes,colors", [
        ([(0,), (1,), (0, 1, 2)], (SOURCE, 0, 1, SINK), (0, 2, 1)),
        ([(0,), (1,), (0, 2), (2, 1, 3)], (SOURCE, 0, 2, 1, SINK), (0, 2, 3, 1)),
    ], ids=["lifted-through-two-levels", "lifted-through-three-levels"])
    def test_witness_lifted_through_several_levels(self, interiors, nodes, colors):
        outcome = verify_regimented_dichotomy(
            [make_path(("s", *interior, "t")) for interior in interiors])
        assert (outcome.nodes, outcome.colors) == (nodes, colors)

    def test_two_classes_branch(self):
        outcome = verify_regimented_dichotomy([path("s", 0, "t"), path("s", 1, "t")])
        assert isinstance(outcome, Regimentation)
        assert len(outcome.classes) == 2

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            verify_regimented_dichotomy([path("s", 0, 1, "t")])

    def test_exhaustive_small_agreement_with_oracle(self):
        for inner in range(0, 4):
            pool = [make_path(("s", *perm, "t"))
                    for r in range(inner + 1)
                    for perm in itertools.permutations(range(inner), r)]
            for multiset in itertools.combinations_with_replacement(pool, inner):
                used = {v for p in multiset for v in p.inner_nodes}
                if len(used) != inner:
                    continue
                fam = PathGroupFamily(tuple(PathGroup((p,)) for p in multiset))
                reaches = SINK in brute_mc_path(fam)
                outcome = verify_regimented_dichotomy(multiset)
                if isinstance(outcome, Regimentation):
                    assert not reaches
                else:
                    assert reaches
                    assert colored_path_conforms(outcome, fam)

    def test_one_step_per_pivot_tried(self):
        # the first pivot's contraction leaves s->1->t, tight and regimented;
        # the second's cuts s->0->1->t to a direct edge
        paths = [path("s", 0, 1, "t"), path("s", 1, "t")]
        assert verify_regimented_dichotomy(paths, budget=2).nodes == (SOURCE, 1, SINK)
        with pytest.raises(BudgetExceeded):
            verify_regimented_dichotomy(paths, budget=1)

    def test_no_qualifying_pivot_raises(self, monkeypatch):
        # with the regimented side missed, no contraction of two copies of
        # s->0->1->t holds a direct edge, a surplus or a broken class
        monkeypatch.setattr(network_paths, "is_regimented", lambda paths: None)
        with pytest.raises(DichotomyViolation):
            verify_regimented_dichotomy([path("s", 0, 1, "t")] * 2)

    def test_seeded_agreement_with_oracle_on_five_to_eight_nodes(self):
        # a quarter regimented by construction, half of those with one path
        # replaced by a copy of another (tight and, mostly, traversable);
        # the rest draw paths of 1-4 inner nodes until every node is used
        rng = random.Random(26)
        checked = 0
        while checked < 2000:
            inner = rng.randint(5, 8)
            if rng.random() < 0.25:
                order = rng.sample(range(inner), inner)
                cuts = sorted(rng.sample(range(1, inner), rng.randint(0, inner - 1)))
                paths = [make_path(("s", *order[a:b], "t"))
                         for a, b in zip([0, *cuts], [*cuts, inner]) for _ in range(b - a)]
                if rng.random() < 0.5:
                    paths[rng.randrange(inner)] = rng.choice(paths)
            else:
                paths = [make_path(("s", *rng.sample(range(inner), rng.randint(1, 4)), "t"))
                         for _ in range(inner)]
            if len({v for p in paths for v in p.inner_nodes}) != inner:
                continue
            checked += 1
            fam = PathGroupFamily(tuple(PathGroup((p,)) for p in paths))
            outcome = verify_regimented_dichotomy(paths)
            if isinstance(outcome, Regimentation):
                assert not brute_reaches_sink(fam)
            else:
                assert brute_reaches_sink(fam)
                assert colored_path_conforms(outcome, fam)

    def test_family_with_factorially_many_dead_ends(self):
        # exhaustive order tries every order of the L chain copies before
        # the two crossing paths on L and L + 1, which at L = 12 takes more
        # than DEFAULT_BUDGET edge steps; contraction takes L + 1 levels,
        # each on its first pivot: the chain copies, then s->L->L+1->t
        L = 12
        paths = [make_path(("s", *range(L), "t"))] * L + [
            path("s", L, L + 1, "t"), path("s", L + 1, L, "t")]
        outcome = verify_regimented_dichotomy(paths, budget=DEFAULT_BUDGET)
        fam = PathGroupFamily(tuple(PathGroup((p,)) for p in paths))
        assert colored_path_conforms(outcome, fam)
        assert outcome.target == SINK
