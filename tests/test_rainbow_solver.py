import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rainbowkit import (
    BudgetExceeded,
    Edge,
    ExtremalCycle,
    ExtremalPair,
    GenSpec,
    GuaranteeViolation,
    HasRainbow,
    Matching,
    MatchingFamily,
    NetPath,
    PathGroup,
    PreconditionError,
    ResidueMultiset,
    SOURCE,
    Side,
    TheoremViolation,
    Vertex,
    augmenting_paths,
    brute_rainbow,
    build_contracted_network,
    canonical_cycle_family,
    classify_family,
    classify_multiset,
    drisko_condition,
    edge,
    egz_family,
    enumerate_matchings,
    find_multicolored_st_path,
    find_rainbow_matching,
    generate,
    rainbow_is_valid,
    validate_matching,
)
from rainbowkit import network_paths, rainbow_solver
from rainbowkit.errors import Meter
from rainbowkit.rainbow_solver import _cycle_split


def family(*member_lists):
    return MatchingFamily(tuple(validate_matching(m) for m in member_lists))


def _interleaved(fam):
    """The members of a split cycle family, even and odd alternating."""
    half = len(fam) // 2
    return tuple(m for pair in zip(fam.members[:half], fam.members[half:]) for m in pair)


class TestBuildContractedNetwork:
    def test_empty_base_single_edge_color(self):
        network, inner, pullback = build_contracted_network(family([edge(0, 0)]), {})
        assert inner == 0
        assert [tuple(p.nodes for p in g) for g in network.groups] == [
            (("s", "t"),)]
        assert pullback(0) == {("s", "t"): (edge(0, 0),)}
        # every color represented: one empty group over the one matched edge
        network, inner, pullback = build_contracted_network(
            family([edge(0, 0)]), {0: edge(0, 0)})
        assert (network.groups, inner, pullback(0)) == (
            (PathGroup(()),), 1, {})

    def test_inner_nodes_are_matched_left_indices(self):
        # the matched edge (3, 1) is inner node 3, its left index
        fam = family([edge(0, 1), edge(3, 2)], [edge(3, 1)])
        network, inner, pullback = build_contracted_network(fam, {1: edge(3, 1)})
        assert inner == 1
        assert [tuple(p.nodes for p in g) for g in network.groups] == [
            (("s", 3, "t"),), ()]
        assert pullback(0) == {("s", 3): (edge(0, 1),), (3, "t"): (edge(3, 2),)}

        @settings(derandomize=True, database=None, deadline=None, max_examples=300)
        @given(families_with_assignments())
        def every_node_is_an_assigned_left(drawn):
            fam, assignment = drawn
            network, _, pullback = build_contracted_network(fam, assignment)
            at_left = {e.left.index: e for e in assignment.values()}
            assert network.inner_nodes <= at_left.keys()
            for c in range(len(fam)):
                for (u, v), edges in pullback(c).items():
                    if v in at_left:
                        # an edge into node v enters its matched edge's right
                        assert all(e.right == at_left[v].right for e in edges)
                    if u in at_left:
                        # an edge out of node u starts at its matched edge's left
                        assert all(e.left == at_left[u].left for e in edges)

        every_node_is_an_assigned_left()

    def test_one_matched_edge_translates_long_path(self):
        fam = family([edge(0, 1), edge(1, 0)], [edge(0, 0)], [edge(2, 2)])
        network, inner, pullback = build_contracted_network(fam, {1: edge(0, 0)})
        assert inner == 1
        # group c is color c; the represented color 1 keeps an empty group
        assert [tuple(p.nodes for p in g) for g in network.groups] == [
            (("s", 0, "t"),), (), (("s", "t"),)]
        assert [pullback(c) for c in range(3)] == [
            {("s", 0): (edge(1, 0),), (0, "t"): (edge(0, 1),)},
            {},
            {("s", "t"): (edge(2, 2),)}]

    def test_cycle_color_contributes_no_paths(self, even3, odd3):
        fam = MatchingFamily((even3, even3, even3, odd3))
        current = {0: edge(0, 0), 1: edge(1, 1), 2: edge(2, 2)}
        network, inner, pullback = build_contracted_network(fam, current)
        assert inner == 3
        # colors 0-2 are represented and color 3 has no augmenting path
        assert network.groups == (PathGroup(()),) * 4
        assert [pullback(c) for c in range(4)] == [{}] * 4

    @staticmethod
    def _shared_family():
        # three equal but separate member objects, another member, and the
        # represented color 4
        shared = [family([edge(0, 1), edge(1, 0), edge(2, 2)])[0] for _ in range(3)]
        assert shared[0] is not shared[1] and shared[1] is not shared[2]
        return MatchingFamily((*shared, *family([edge(1, 1)], [edge(0, 0)])))

    def test_equal_members_share_one_walk(self):
        fam = self._shared_family()
        network, inner, pullback = build_contracted_network(fam, {4: edge(0, 0)})
        assert inner == 1
        assert [tuple(p.nodes for p in g) for g in network.groups] == [
            (("s", 0, "t"), ("s", "t"))] * 3 + [(("s", "t"),), ()]
        # one group object and one pull-back object for the three equal members
        assert network.groups[0] is network.groups[1] is network.groups[2]
        assert pullback(0) is pullback(1)
        assert pullback(1) is pullback(2)
        assert [pullback(c) for c in range(5)] == [
            {("s", 0): (edge(1, 0),), (0, "t"): (edge(0, 1),),
             ("s", "t"): (edge(2, 2),)}] * 3 + [{("s", "t"): (edge(1, 1),)}, {}]

    def test_augmenting_paths_run_once_per_class_read(self, monkeypatch):
        walked = []

        def counted(base, other):
            walked.append(other)
            return augmenting_paths(base, other)

        monkeypatch.setattr(rainbow_solver, "augmenting_paths", counted)
        fam = self._shared_family()
        network, inner, pullback = build_contracted_network(fam, {4: edge(0, 0)})
        # the network itself needs no augmenting path
        assert walked == []
        for c in (2, 1, 0, 2):
            pullback(c)
        # the first color of the class stands for it, whichever color asked
        assert walked == [fam[0]] and walked[0] is fam[0]
        pullback(3)
        pullback(4)  # represented: an empty group, nothing to read
        assert walked == [fam[0], fam[3]]

    def test_drisko_solve_reads_four_pullbacks_over_three_networks(self, monkeypatch):
        # three networks for the solve, and a pull-back only for each class
        # that a tried witness uses; translating every class of every
        # network took 12 augmenting-path calls
        calls = {"augmenting_paths": 0, "build_contracted_network": 0}
        for name in calls:
            original = getattr(rainbow_solver, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(rainbow_solver, name, counted)
        fam = generate(GenSpec.family_uniform(3, 5, 4, 7))
        found = find_rainbow_matching(fam, 3)
        assert found is not None and rainbow_is_valid(found, fam)
        assert calls == {"augmenting_paths": 4, "build_contracted_network": 3}


class TestFindRainbowMatching:
    def test_single_edge(self):
        found = find_rainbow_matching(family([edge(0, 0)]), 1)
        assert found.entries == ((0, edge(0, 0)),)

    def test_canonical_cycle_family_infeasible(self, c6_family):
        assert find_rainbow_matching(c6_family, 3) is None

    def test_doubled_guarantee_instance(self, even3, odd3):
        fam = MatchingFamily((even3, even3, even3, odd3, odd3))
        found = find_rainbow_matching(fam, 3)
        assert found is not None and len(found) == 3
        assert rainbow_is_valid(found, fam)

    def test_zero_target(self):
        assert len(find_rainbow_matching(family([edge(0, 0)]), 0)) == 0

    def test_target_beyond_color_count(self):
        assert find_rainbow_matching(family([edge(0, 0)]), 2) is None

    def test_negative_target_rejected(self):
        with pytest.raises(PreconditionError, match="^size must be non-negative$"):
            find_rainbow_matching(family([edge(0, 0)]), -1)

    def test_backtracking_past_a_greedy_dead_end(self):
        fam = family([edge(0, 0), edge(1, 1)], [edge(0, 2)])
        found = find_rainbow_matching(fam, 2)
        assert found is not None
        assert found.entries == ((0, edge(1, 1)), (1, edge(0, 2)))

    def test_agreement_with_oracle_exhaustive_small(self):
        pool = enumerate_matchings(1, 2) + enumerate_matchings(2, 2)
        for count in (1, 2, 3):
            for members in itertools.combinations_with_replacement(pool, count):
                fam = MatchingFamily(members)
                for target in range(count + 1):
                    mine = find_rainbow_matching(fam, target)
                    ref = brute_rainbow(fam, target)
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        assert len(mine) == target
                        assert rainbow_is_valid(mine, fam)

    def test_agreement_with_oracle_random_mixed(self):
        rng = random.Random(23)
        for _ in range(400):
            members = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, 3)
                lefts = sorted(rng.sample(range(4), size))
                rights = rng.sample(range(4), size)
                members.append(validate_matching(
                    edge(lefts[i], rights[i]) for i in range(size)))
            fam = MatchingFamily(tuple(members))
            target = rng.randint(0, min(len(members), 3))
            assert (find_rainbow_matching(fam, target) is None) == (
                brute_rainbow(fam, target) is None)

    def test_agreement_with_empty_and_duplicate_members(self):
        rng = random.Random(37)
        for _ in range(400):
            members = []
            for _ in range(rng.randint(1, 6)):
                if members and rng.random() < 0.3:
                    members.append(members[rng.randrange(len(members))])
                    continue
                size = rng.randint(0, 3)
                side = rng.randint(max(1, size), 4)
                lefts = sorted(rng.sample(range(side), size))
                rights = rng.sample(range(side), size)
                members.append(validate_matching(
                    edge(lefts[i], rights[i]) for i in range(size)))
            fam = MatchingFamily(tuple(members))
            target = rng.randint(0, min(len(members), 4))
            mine = find_rainbow_matching(fam, target)
            assert (mine is None) == (brute_rainbow(fam, target) is None)
            if mine is not None:
                assert len(mine) == target and rainbow_is_valid(mine, fam)


def _threshold_stream():
    """Seeded (family, target) pairs: uniform and mixed families at the
    target their sizes guarantee, and shift families of 2n - 2 and 2n - 1
    residues mod n at n."""
    rng = random.Random(32)
    for n in (3, 4):
        for _ in range(15):
            spec = GenSpec.family_uniform(n, 2 * n - 1, n + 1, rng.getrandbits(63))
            yield generate(spec), n
    for _ in range(60):
        sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(3, 7)))
        target = max(t for t in range(1, min(len(sizes), max(sizes)) + 1)
                     if drisko_condition(sizes, t))
        side = max(sizes) + rng.randint(0, 2)
        yield generate(GenSpec.family_mixed(sizes, side, rng.getrandbits(63))), target
    for n in range(2, 7):
        for count in (2 * n - 2, 2 * n - 1):
            for _ in range(4):
                multiset = generate(GenSpec.multiset(n, count, rng.getrandbits(63)))
                yield egz_family(multiset), n


class TestSolverNetworksSkipThePublicCheck:
    """The search hands each network it builds straight to
    ``network_paths._witnesses`` with its matched-edge count, not the count
    of inner nodes in use that ``find_multicolored_st_path`` computes; the
    matched-edge count covers those nodes by construction, and the head of
    the stream is the public function's witness."""

    def test_every_network_meets_the_check_and_gets_the_public_witness(
            self, monkeypatch):
        real = rainbow_solver._witnesses
        seen = []

        def spy(network, inner_count, first, budget):
            witnesses = real(network, inner_count, first, budget)
            head = next(witnesses, None)
            seen.append((network, inner_count, head))
            if head is not None:
                yield head
                yield from witnesses

        monkeypatch.setattr(rainbow_solver, "_witnesses", spy)
        for fam, target in _threshold_stream():
            find_rainbow_matching(fam, target)
        constructed = contracted = 0
        for network, inner_count, head in seen:
            assert len(network.inner_nodes) <= inner_count
            if network.total_paths > inner_count:
                constructed += 1
                contracted += all(p.edge_count > 1 for g in network.groups for p in g)
                assert head == find_multicolored_st_path(network)
        # the stream reaches both the level-0 direct edge and the contraction
        assert constructed > contracted > 0

    def test_unbuilt_witness_raises_from_the_solver(self, monkeypatch):
        # once color 0 takes (0, 0), colors 1 and 2 (one class) each step
        # s->0->t: two paths over one inner node, and no direct edge
        fam = family([edge(0, 0)], [edge(1, 0), edge(0, 1)], [edge(1, 0), edge(0, 1)])
        assert find_rainbow_matching(fam, 2).entries == (
            (1, edge(1, 0)), (2, edge(0, 1)))
        monkeypatch.setattr(network_paths, "_reach",
                            lambda groups: ({SOURCE: (-1, SOURCE, -1)}, []))
        with pytest.raises(GuaranteeViolation, match="^more paths than inner nodes "):
            find_rainbow_matching(fam, 2)


@st.composite
def small_families(draw):
    """1-6 members of size 0-3 on at most 4 vertices a side, repeats allowed."""
    side = draw(st.integers(1, 4))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        if pool and draw(st.booleans()):
            pool.append(pool[draw(st.integers(0, len(pool) - 1))])
            continue
        size = draw(st.integers(0, min(3, side)))
        lefts = draw(st.permutations(range(side)))[:size]
        rights = draw(st.permutations(range(side)))[:size]
        pool.append(validate_matching(edge(a, b) for a, b in zip(lefts, rights)))
    return MatchingFamily(tuple(pool))


class TestAgainstOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(small_families())
    def test_feasibility_matches_brute_force(self, fam):
        for target in range(len(fam) + 1):
            mine = find_rainbow_matching(fam, target)
            assert (mine is None) == (brute_rainbow(fam, target) is None)
            if mine is not None:
                assert len(mine) == target and rainbow_is_valid(mine, fam)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(small_families())
    def test_never_beyond_networkx_maximum_matching(self, fam):
        nx = pytest.importorskip("networkx")
        union = nx.Graph()
        union.add_edges_from(e.vertices for member in fam for e in member)
        largest = len(nx.max_weight_matching(union, maxcardinality=True))
        for target in range(len(fam) + 2):
            found = find_rainbow_matching(fam, target)
            # hence a target above the maximum matching size finds nothing
            assert found is None or len(found) == target <= largest


@st.composite
def families_with_assignments(draw):
    """A small family and a partial rainbow matching of it (color -> edge)."""
    fam = draw(small_families())
    assignment = {}
    for color in draw(st.permutations(range(len(fam)))):
        taken = assignment.values()
        options = [e for e in fam[color]
                   if all(e.left != f.left and e.right != f.right for f in taken)]
        if options and draw(st.booleans()):
            assignment[color] = draw(st.sampled_from(options))
    return fam, assignment


def _reference_translation(base, member):
    """One member's group and pull-back map read off ``augmenting_paths``,
    both empty when it has none, each inner node named by its matched edge's
    left index: the translation the network's integer walk and lazy
    pull-back must reproduce."""
    pullback = {}
    direct = []
    nets = []
    for alt in augmenting_paths(base, member):
        free = alt[0::2]
        if len(free) == 1:
            direct.append(free[0])
            continue
        nodes = ("s", *(e.left.index for e in alt[1::2]), "t")
        nets.append(NetPath(nodes))
        pullback.update(zip(zip(nodes, nodes[1:]), ((e,) for e in free)))
    nets.sort(key=NetPath.key)
    if direct:
        nets.append(NetPath(("s", "t")))
        pullback[("s", "t")] = tuple(direct)
    return PathGroup(tuple(nets)), pullback


class TestPullback:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(families_with_assignments())
    def test_pullback_is_every_free_edge_of_every_augmenting_path(self, drawn):
        fam, assignment = drawn
        network, inner, pullback = build_contracted_network(fam, assignment)
        base = Matching(frozenset(assignment.values()))
        assert inner == len(assignment)
        assert len(network.groups) == len(fam)
        for c, member in enumerate(fam):
            behind = pullback(c)
            if c in assignment or not augmenting_paths(base, member):
                assert network.groups[c] == () and behind == {}
                continue
            pulled = [e for edges in behind.values() for e in edges]
            assert all(e in member for e in pulled)
            assert sorted(pulled) == sorted(
                e for alt in augmenting_paths(base, member) for e in alt[0::2])
            assert all(list(edges) == sorted(edges) for edges in behind.values())
            assert {ne for p in network.groups[c] for ne in p.edges} == set(behind)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(families_with_assignments())
    def test_equal_but_distinct_edges_translate_alike(self, drawn):
        # fresh copies of the assigned edges equal the members' own edges but
        # are other objects; the network must not tell them apart
        fam, assignment = drawn
        fresh = {c: edge(e.left.index, e.right.index) for c, e in assignment.items()}
        assert not any(fresh[c] is e for c, e in assignment.items())
        network, inner, pullback = build_contracted_network(fam, assignment)
        again, inner_again, pullback_again = build_contracted_network(fam, fresh)
        assert (again, inner_again) == (network, inner)
        assert ([pullback_again(c) for c in range(len(fam))]
                == [pullback(c) for c in range(len(fam))])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(families_with_assignments())
    def test_integer_walk_equals_the_augmenting_paths_translation(self, drawn):
        fam, assignment = drawn
        network, inner, pullback = build_contracted_network(fam, assignment)
        base = Matching(frozenset(assignment.values()))
        for c, member in enumerate(fam):
            expected = ((PathGroup(()), {}) if c in assignment
                        else _reference_translation(base, member))
            assert (network.groups[c], pullback(c)) == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(families_with_assignments())
    def test_member_map_order_never_reaches_the_network(self, drawn):
        # the maps hold each member in whatever order its edges come; the
        # same maps with every entry reinserted in reverse build the same
        # network and the same pull-backs
        fam, assignment = drawn
        first, maps = rainbow_solver._member_maps(fam)
        flipped = {k: dict(reversed(m.items())) for k, m in maps.items()}
        assert all(list(flipped[k]) == list(maps[k])[::-1] for k in maps)
        network, inner, pullback = build_contracted_network(
            fam, assignment, first, maps)
        again, inner_again, pullback_again = build_contracted_network(
            fam, assignment, first, flipped)
        assert inner_again == inner
        assert again.groups == network.groups
        assert ([pullback_again(c) for c in range(len(fam))]
                == [pullback(c) for c in range(len(fam))])

    def test_runs_come_in_key_order_whatever_the_map_order(self):
        # a member with two augmenting paths through matched edges, which the
        # drawn families are too small to hold: the walk meets them in the
        # map's order and must emit them by key either way
        fam = family([edge(2, 0), edge(0, 2), edge(3, 1), edge(1, 3)],
                     [edge(0, 0)], [edge(1, 1)])
        assignment = {1: edge(0, 0), 2: edge(1, 1)}
        first, maps = rainbow_solver._member_maps(fam)
        for order in (sorted, lambda items: sorted(items, reverse=True)):
            ordered = {k: dict(order(m.items())) for k, m in maps.items()}
            network, _, _ = build_contracted_network(fam, assignment, first, ordered)
            assert [p.nodes for p in network.groups[0]] == [
                ("s", 0, "t"), ("s", 1, "t")]


def _fresh_copy(fam):
    """The family with every member rebuilt from new, equal edge objects."""
    return MatchingFamily(tuple(
        validate_matching(edge(e.left.index, e.right.index) for e in m.edges)
        for m in fam))


def _least_budget(fam, target):
    """The smallest budget under which ``find_rainbow_matching`` finishes:
    it returns at that budget and raises BudgetExceeded one step below."""
    def finishes(budget):
        try:
            find_rainbow_matching(fam, target, budget=budget)
        except BudgetExceeded:
            return False
        return True

    low, high = 0, 1  # low raises; high is doubled until it finishes
    while not finishes(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if finishes(middle) else (middle, high)
    return high


@st.composite
def permuted_repeating_families(draw):
    """A small family with at least one repeated member, and the same
    members under a drawn permutation of the colors."""
    fam = draw(small_families())
    assume(len(set(fam.members)) < len(fam))
    order = draw(st.permutations(range(len(fam))))
    return fam, MatchingFamily(tuple(fam[c] for c in order))


_REFUTED = [
    (MatchingFamily(_interleaved(canonical_cycle_family(4))), 4, 137),
    (MatchingFamily(_interleaved(canonical_cycle_family(5))), 5, 501),
    (egz_family(ResidueMultiset(5, (0,) * 4 + (1,) * 4)), 5, 501),
    (MatchingFamily(_interleaved(canonical_cycle_family(6))), 6, 1657),
]
_REFUTED_IDS = ["cycle-8-interleaved", "cycle-10-interleaved", "egz-piles-5",
                "cycle-12-interleaved"]

# found in 6 search states, after one network's enumeration steps along 7 edges
_FAMILY_F = family(
    [edge(2, 0)],
    [edge(0, 4), edge(1, 0), edge(2, 1), edge(3, 2), edge(5, 5)],
    [edge(3, 1), edge(4, 2), edge(5, 3)],
    [edge(2, 0), edge(3, 2), edge(4, 3), edge(5, 1)],
    [edge(0, 2), edge(1, 3), edge(2, 4), edge(3, 5), edge(4, 1), edge(5, 0)],
    [edge(0, 5), edge(1, 0), edge(2, 1), edge(3, 3), edge(4, 4), edge(5, 2)],
)


class TestBudget:
    def test_one_step_per_search_state(self):
        # the search visits 501 states to refute the split 10-cycle
        fam = canonical_cycle_family(5)
        assert find_rainbow_matching(fam, 5, budget=501) is None
        with pytest.raises(BudgetExceeded):
            find_rainbow_matching(fam, 5, budget=500)

    @pytest.mark.parametrize("fam,target,states", _REFUTED, ids=_REFUTED_IDS)
    def test_memo_merges_classes_of_non_adjacent_colors(self, fam, target, states):
        # identical members need not sit at neighboring colors for their
        # states to share a memo entry: these visit as many states as the
        # split cycle of the same size
        assert find_rainbow_matching(fam, target, budget=states) is None
        with pytest.raises(BudgetExceeded):
            find_rainbow_matching(fam, target, budget=states - 1)

    @pytest.mark.parametrize("fam,target,states", _REFUTED, ids=_REFUTED_IDS)
    def test_equal_but_distinct_edges_visit_the_same_states(self, fam, target, states):
        # members rebuilt from new edge objects, none shared between equal
        # members, leave the memo and the removed-edge lookup unchanged
        fresh = _fresh_copy(fam)
        assert fresh == fam and fresh[0] is not fam[0]
        assert find_rainbow_matching(fresh, target, budget=states) is None
        with pytest.raises(BudgetExceeded):
            find_rainbow_matching(fresh, target, budget=states - 1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(permuted_repeating_families())
    def test_permuting_colors_keeps_the_refutation_budget(self, drawn):
        # a refutation visits every class-level state once, and the memo
        # keys a class by its equal members wherever their colors sit; a
        # memo that merged only neighboring equal colors fails this
        fam, permuted = drawn
        for target in range(1, len(fam) + 1):
            if brute_rainbow(fam, target) is None:
                assert _least_budget(permuted, target) == _least_budget(fam, target)

    @pytest.mark.parametrize("n,networks", [(4, 45), (5, 121), (6, 320)])
    def test_refutation_builds_a_network_per_expanded_state(self, monkeypatch,
                                                            n, networks):
        # states refuted by the memo, and witnesses whose children all are,
        # are charged without a network of their own
        built = []
        build = rainbow_solver.build_contracted_network

        def counted(*args):
            built.append(1)
            return build(*args)

        monkeypatch.setattr(rainbow_solver, "build_contracted_network", counted)
        assert find_rainbow_matching(canonical_cycle_family(n), n) is None
        assert len(built) == networks
        built.clear()
        piles = ResidueMultiset(n, (0,) * (n - 1) + (1,) * (n - 1))
        assert classify_multiset(piles) == ExtremalPair(0, 1)
        assert len(built) == networks

    def test_each_network_enumeration_runs_under_the_budget(self):
        # the search's 6 states fit a budget of 6, but the enumeration's 7
        # edge steps do not: it gets a meter of the caller's budget too
        found = find_rainbow_matching(_FAMILY_F, 5, budget=7)
        assert found.entries == ((0, edge(2, 0)), (1, edge(0, 4)), (2, edge(3, 1)),
                                 (3, edge(4, 3)), (5, edge(5, 2)))
        with pytest.raises(BudgetExceeded):
            find_rainbow_matching(_FAMILY_F, 5, budget=6)

    def test_trivial_targets_spend_nothing(self):
        assert len(find_rainbow_matching(family([edge(0, 0)]), 0, budget=0)) == 0
        assert find_rainbow_matching(family([edge(0, 0)]), 2, budget=0) is None

    def test_skipped_permutations_of_a_failed_witness_cost_nothing(self):
        # members a, b, b at target 3. After color 0 takes (0, 2), the
        # constructed witness s->t via [1] fails, and the success comes from
        # the next one, s->0->t via [1, 2]. Its permutation s->t via [2] is
        # skipped, never built and never charged: 5 steps in all (the empty
        # state and four children built)
        a = [edge(2, 3), edge(0, 2), edge(3, 0)]
        b = [edge(3, 1), edge(1, 2), edge(0, 0)]
        fam = family(a, b, b)
        found = find_rainbow_matching(fam, 3, budget=5)
        assert found is not None and rainbow_is_valid(found, fam)
        with pytest.raises(BudgetExceeded):
            find_rainbow_matching(fam, 3, budget=4)


class TestMeter:
    def test_spend_counts_steps(self):
        meter = Meter(5)
        for left in (4, 3, 2, 1, 0):
            meter.spend()
            assert meter.left == left
        with pytest.raises(BudgetExceeded):
            meter.spend()

    def test_one_step_past_the_budget_raises(self):
        meter = Meter(7)
        for _ in range(7):
            meter.spend()
        with pytest.raises(BudgetExceeded):
            meter.spend()
        with pytest.raises(BudgetExceeded):
            Meter(0).spend()


class TestDriskoCondition:
    def test_uniform_doubled(self):
        assert drisko_condition([3] * 5, 3)

    def test_cycle_family_is_below_threshold(self):
        assert not drisko_condition([3, 3, 3, 3], 3)

    def test_empty(self):
        assert drisko_condition([], 0)

    def test_target_beyond_count(self):
        with pytest.raises(PreconditionError):
            drisko_condition([2, 2], 3)

    def test_negative_target_rejected(self):
        with pytest.raises(PreconditionError):
            drisko_condition((1, 2), -1)

    def test_uniform_threshold_is_doubled_count(self):
        # the guarantee of find_transversal and find_zero_sum_subset: c-edge
        # members, r of them, reach target c exactly from 2c-1 members up
        for c in range(1, 41):
            for r in range(c, 41):
                assert drisko_condition([c] * r, c) == (r >= 2 * c - 1)

    def test_negative_summands_count(self):
        # sizes 1 and 5 with target 3: first two summands are -1 and 3
        assert not drisko_condition([1, 5, 5], 3)


def _edge_map_cycle_split(fam, n):
    """The split-cycle check walked over ``Vertex -> Edge`` maps of the two
    members, the way it ran before it read the solver's member maps: the
    reference the integer walk must reproduce."""
    classes = {}
    for color, member in enumerate(fam):
        classes.setdefault(member, []).append(color)
    if len(classes) != 2:
        return None
    cols_a, cols_b = classes.values()
    if len(cols_a) != n - 1 or len(cols_b) != n - 1:
        return None
    a, b = ({v: e for e in fam[cols[0]].edges for v in e.vertices}
            for cols in (cols_a, cols_b))
    start = min(a)
    if start not in b:
        return None
    first, second = (a, b) if a[start] < b[start] else (b, a)
    cycle = []
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


_SPLIT_KINDS = ["split", "two-cycles", "shared-edge", "other-vertices", "sizes"]


@st.composite
def split_cycle_families(draw):
    """A split 2n-cycle for n = 2-6 on n to n + 2 vertices a side, relabelled
    by random left and right permutations, or a near miss: two shorter
    cycles, a shared edge, a member on other vertices, or n - 2 and n copies
    of the two members. The members come grouped, interleaved or shuffled."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(_SPLIT_KINDS))
    if kind == "two-cycles" and n < 4:
        kind = "split"  # two cycles of four or more vertices need n >= 4
    side = n + draw(st.integers(0, 2))
    lefts = draw(st.permutations(range(side)))
    rights = draw(st.permutations(range(side)))
    # the odd member joins the right of position i to the left of step[i];
    # the union is one cycle exactly when ``step`` is one n-cycle
    order = draw(st.permutations(range(n)))
    loops = [order]
    if kind == "two-cycles":
        cut = draw(st.integers(2, n - 2))
        loops = [order[:cut], order[cut:]]
    elif kind == "shared-edge":
        loops = [order[:1], order[1:]]
    step = {a: loop[(j + 1) % len(loop)] for loop in loops for j, a in enumerate(loop)}
    even = [(lefts[i], rights[i]) for i in range(n)]
    odd = [(lefts[step[i]], rights[i]) for i in range(n)]
    if kind == "other-vertices":
        j = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            odd[j] = (lefts[n] if side > n else side, odd[j][1])
        else:
            odd[j] = (odd[j][0], rights[n] if side > n else side)
    copies = [n - 1, n - 1]
    if kind == "sizes":
        copies = draw(st.sampled_from([[n - 2, n], [n, n - 2]]))
    a, b = (validate_matching(edge(*e) for e in m) for m in (even, odd))
    if draw(st.booleans()):
        a, b = b, a
    members = [a] * copies[0] + [b] * copies[1]
    arrangement = draw(st.sampled_from(["grouped", "interleaved", "shuffled"]))
    if arrangement == "interleaved":
        members = [m for pair in itertools.zip_longest(
            members[:copies[0]], members[copies[0]:]) for m in pair if m is not None]
    elif arrangement == "shuffled":
        members = [members[i] for i in draw(st.permutations(range(len(members))))]
    return kind, n, MatchingFamily(tuple(members))


class TestClassifyFamily:
    def test_cycle_family(self, c6_family):
        verdict = classify_family(c6_family)
        assert isinstance(verdict, ExtremalCycle)
        assert len(verdict.cycle) == 6
        assert verdict.even_colors == {0, 1}
        assert verdict.odd_colors == {2, 3}

    def test_four_cycle(self, even2, odd2):
        verdict = classify_family(MatchingFamily((even2, odd2)))
        assert isinstance(verdict, ExtremalCycle)
        assert len(verdict.cycle) == 4

    def test_feasible_family(self, even3, odd3):
        verdict = classify_family(MatchingFamily((even3, even3, even3, odd3)))
        assert isinstance(verdict, HasRainbow)
        assert len(verdict.witness) == 3

    def test_miss_without_a_cycle_raises(self, monkeypatch, even3, odd3):
        # three even members and one odd: no split cycle to fall back on
        monkeypatch.setattr(rainbow_solver, "find_rainbow_matching", lambda *args: None)
        with pytest.raises(TheoremViolation,
                           match="^no full rainbow matching and no blocking cycle$"):
            classify_family(MatchingFamily((even3,) * 3 + (odd3,)))

    def test_bad_shape_rejected(self, even3):
        with pytest.raises(PreconditionError):
            classify_family(MatchingFamily((even3, even3, even3)))

    def test_canonical_cycle_exact(self):
        verdict = classify_family(canonical_cycle_family(3))
        assert [repr(v) for v in verdict.cycle] == ["L0", "R0", "L1", "R1", "L2", "R2"]
        assert verdict.even_colors == {0, 1}
        assert verdict.odd_colors == {2, 3}

    def test_relabelled_cycle_exact(self):
        # the cycle starts at L1 and steps to its smaller neighbor R2, so its
        # first edge belongs to the second member, not the first
        a = validate_matching([edge(1, 5), edge(3, 0), edge(4, 2)])
        b = validate_matching([edge(1, 2), edge(3, 5), edge(4, 0)])
        verdict = classify_family(MatchingFamily((a, b, a, b)))
        assert [repr(v) for v in verdict.cycle] == ["L1", "R2", "L4", "R0", "L3", "R5"]
        assert verdict.even_colors == {1, 3}
        assert verdict.odd_colors == {0, 2}

    def test_canonical_families_all_sizes(self):
        for n in range(2, 6):
            verdict = classify_family(canonical_cycle_family(n))
            assert isinstance(verdict, ExtremalCycle)
            assert len(verdict.cycle) == 2 * n
            assert len(verdict.even_colors) == n - 1
            assert len(verdict.odd_colors) == n - 1
            assert verdict.even_colors | verdict.odd_colors == set(range(2 * n - 2))

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(split_cycle_families())
    def test_cycle_split_equals_the_edge_map_walk(self, drawn):
        kind, n, fam = drawn
        verdict = _cycle_split(fam, n)
        assert verdict == _edge_map_cycle_split(fam, n)
        if kind == "split":
            assert verdict is not None
            assert all(type(v) is Vertex for v in verdict.cycle)
            assert [v.side for v in verdict.cycle] == [Side.LEFT, Side.RIGHT] * n
            # every edge of the cycle is an edge of its color class's member
            pairs = zip(verdict.cycle, verdict.cycle[1:] + verdict.cycle[:1])
            for i, (u, v) in enumerate(pairs):
                e = Edge(u, v) if i % 2 == 0 else Edge(v, u)
                colors = verdict.even_colors if i % 2 == 0 else verdict.odd_colors
                assert all(e in fam[c] for c in colors)
        else:
            assert verdict is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(split_cycle_families())
    def test_search_refutes_every_split_and_agrees_with_the_oracle(self, drawn):
        # the search's own refutation, which classify_family relies on before
        # it looks for the split; the oracle is exponential, so it checks
        # cycles of at most 10 vertices
        kind, n, fam = drawn
        found = find_rainbow_matching(fam, n)
        if kind == "split":
            assert found is None
        if found is not None:
            assert rainbow_is_valid(found, fam)
        if n <= 5:
            assert (found is None) == (brute_rainbow(fam, n) is None)

    @pytest.mark.parametrize("a,b", [
        # two 4-cycles: the walk closes after 4 of the 8 edges
        ([(0, 0), (1, 1), (2, 2), (3, 3)], [(1, 0), (0, 1), (3, 2), (2, 3)]),
        # a shared edge (0,0) beside a 4-cycle
        ([(0, 0), (1, 1), (2, 2)], [(0, 0), (2, 1), (1, 2)]),
        # different vertex sets: the union is a path from L0 to R2
        ([(0, 0), (1, 1), (2, 2)], [(1, 0), (2, 1), (3, 2)]),
        # different vertex sets, the second member holding the smallest vertex
        ([(1, 1), (2, 2), (3, 3)], [(0, 1), (1, 2), (2, 3)]),
    ])
    def test_cycle_split_rejects(self, a, b):
        n = len(a)
        a, b = [edge(*e) for e in a], [edge(*e) for e in b]
        assert _cycle_split(family(*[a] * (n - 1), *[b] * (n - 1)), n) is None
