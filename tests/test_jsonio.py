import pytest
from hypothesis import given, settings, strategies as st

from rainbowkit import (
    InputError,
    MalformedPathError,
    MatchingFamily,
    ResidueMultiset,
    SymbolMatrix,
    build_family,
    edge,
    make_path,
    validate_matching,
)
from rainbowkit import jsonio
from conftest import networks, path


class TestFamilyRoundTrip:
    def test_round_trip(self, c6_family):
        obj = jsonio.family_to_obj(c6_family)
        assert jsonio.family_from_obj(obj) == c6_family

    def test_repeated_edge_refused(self):
        with pytest.raises(InputError) as info:
            jsonio.family_from_obj([[[0, 0], [1, 1]], [[1, 1], [0, 2], [1, 1]]])
        assert str(info.value) == "family[1][2]: repeats the edge family[1][0]"

    def test_overlap_reported_with_member_index(self):
        with pytest.raises(InputError, match=r"family\[1\]"):
            jsonio.family_from_obj([[[0, 0]], [[0, 0], [0, 1]]])

    def test_bad_edge_shape(self):
        with pytest.raises(InputError, match=r"family\[0\]\[0\]"):
            jsonio.family_from_obj([[[0]]])

    def test_non_integer_index(self):
        with pytest.raises(InputError, match="integer"):
            jsonio.family_from_obj([[[0, "x"]]])


class TestNetworkRoundTrip:
    def test_round_trip(self):
        fam = build_family([[path("s", 0, "t")], [path("s", 1, 2, "t")]])
        assert jsonio.network_from_obj(jsonio.network_to_obj(fam)) == fam

    def test_bad_node(self):
        with pytest.raises(InputError, match=r"network\[0\]\[0\]"):
            jsonio.network_from_obj([[["s", "x", "t"]]])

    @pytest.mark.parametrize("raw", [
        [], ["s", 0], [0, "t"], ["s", True, "t"], ["s", [0], "t"], ["s", 0, 0, "t"],
    ], ids=["empty", "no-sink", "no-source", "bool", "list", "repeat"])
    def test_every_path_make_path_refuses_is_named(self, raw):
        with pytest.raises(MalformedPathError) as refused:
            make_path(raw)
        with pytest.raises(InputError) as info:
            jsonio.network_from_obj([[["s", "t"]], [["s", 1, "t"], raw]])
        assert str(info.value) == f"network[1][1]: {refused.value}"

    def test_inner_overlap_reported(self):
        with pytest.raises(InputError, match="share inner vertex"):
            jsonio.network_from_obj([[["s", 0, "t"], ["s", 0, 1, "t"]]])
        with pytest.raises(InputError) as info:
            jsonio.network_from_obj([[["s", 0, "t"]], [["s", 2, "t"], ["s", 1, 2, "t"]]])
        assert str(info.value) == "network: group 1: paths share inner vertex 2"


class TestMatrixAndMultiset:
    def test_matrix_round_trip(self):
        obj = {"rows": 2, "cols": 2, "cells": [[1, 2], [2, 1]]}
        assert jsonio.matrix_to_obj(jsonio.matrix_from_obj(obj)) == obj

    def test_matrix_shape_mismatch(self):
        with pytest.raises(InputError, match="rows"):
            jsonio.matrix_from_obj({"rows": 3, "cols": 1, "cells": [[1]]})

    def test_matrix_row_duplicate(self):
        with pytest.raises(InputError, match="repeats symbol"):
            jsonio.matrix_from_obj({"rows": 1, "cols": 2, "cells": [[1, 1]]})

    def test_multiset_round_trip(self):
        obj = {"n": 4, "elements": [3, 0, 1]}
        multiset = jsonio.multiset_from_obj(obj)
        assert multiset.elements == (0, 1, 3)
        assert jsonio.multiset_to_obj(multiset) == {"n": 4, "elements": [0, 1, 3]}

    def test_multiset_out_of_range(self):
        with pytest.raises(InputError, match="multiset"):
            jsonio.multiset_from_obj({"n": 3, "elements": [3]})


class TestWitnessSerialization:
    def test_rainbow(self):
        from rainbowkit import RainbowMatching
        rm = RainbowMatching(((1, edge(0, 2)), (0, edge(1, 1))))
        assert jsonio.rainbow_to_obj(rm) == {
            "size": 2, "assignment": [[0, [1, 1]], [1, [0, 2]]]}

    def test_colored_path_colors_are_input_positions(self):
        fam = jsonio.network_from_obj([[], [["s", 0, "t"]], [["s", 0, "t"]]])
        from rainbowkit import find_multicolored_st_path
        witness = find_multicolored_st_path(fam)
        obj = jsonio.colored_path_to_obj(witness)
        assert obj == {"nodes": ["s", 0, "t"], "colors": [1, 2]}


@st.composite
def families(draw):
    """0-5 matchings of size 0-4 on at most 5 vertices a side."""
    side = draw(st.integers(1, 5))
    members = []
    for _ in range(draw(st.integers(0, 5))):
        lefts = draw(st.permutations(range(side)))
        rights = draw(st.permutations(range(side)))
        size = draw(st.integers(0, side))
        members.append(validate_matching(map(edge, lefts[:size], rights[:size])))
    return MatchingFamily(tuple(members))


@st.composite
def matrices(draw):
    cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 9), min_size=cols, max_size=cols, unique=True)
    return SymbolMatrix(tuple(map(tuple, draw(st.lists(row, min_size=1, max_size=5)))))


@st.composite
def multisets(draw):
    n = draw(st.integers(1, 8))
    return ResidueMultiset(n, tuple(draw(st.lists(st.integers(0, n - 1), max_size=12))))


class TestRoundTripProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(families())
    def test_family(self, fam):
        assert jsonio.family_from_obj(jsonio.family_to_obj(fam)) == fam

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(networks())
    def test_network(self, fam):
        assert jsonio.network_from_obj(jsonio.network_to_obj(fam)) == fam

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(matrices())
    def test_matrix(self, matrix):
        assert jsonio.matrix_from_obj(jsonio.matrix_to_obj(matrix)) == matrix

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(multisets())
    def test_multiset(self, multiset):
        assert jsonio.multiset_from_obj(jsonio.multiset_to_obj(multiset)) == multiset
