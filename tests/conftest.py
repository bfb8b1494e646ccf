import dataclasses

import pytest
from hypothesis import strategies as st

from rainbowkit import (
    MatchingFamily,
    NetPath,
    build_family,
    edge,
    make_path,
    validate_matching,
)


@pytest.fixture
def even3():
    return validate_matching([edge(0, 0), edge(1, 1), edge(2, 2)])


@pytest.fixture
def odd3():
    return validate_matching([edge(1, 0), edge(2, 1), edge(0, 2)])


@pytest.fixture
def even2():
    return validate_matching([edge(0, 0), edge(1, 1)])


@pytest.fixture
def odd2():
    return validate_matching([edge(1, 0), edge(0, 1)])


@pytest.fixture
def c6_family(even3, odd3):
    return MatchingFamily((even3, even3, odd3, odd3))


def path(*nodes):
    return make_path(nodes)


# wrong split-cycle verdicts, each still naming n - 1 even and n - 1 odd
# colors and a cycle of 2n vertices
CYCLE_CORRUPTIONS = [
    pytest.param(lambda v: dataclasses.replace(
        v, even_colors=v.odd_colors, odd_colors=v.even_colors), id="swap-even-and-odd"),
    pytest.param(lambda v: dataclasses.replace(v, cycle=v.cycle[1:] + v.cycle[:1]),
                 id="rotate-by-one-vertex"),
    pytest.param(lambda v: dataclasses.replace(
        v, even_colors=v.even_colors - {min(v.even_colors)}), id="drop-a-color"),
    # breaks the alternation, so only the shape check stands between the
    # verdict and an Edge built from two vertices of one side
    pytest.param(lambda v: dataclasses.replace(
        v, cycle=(v.cycle[1], v.cycle[0]) + v.cycle[2:]), id="swap-first-two-vertices"),
]


@st.composite
def networks(draw):
    """0-4 groups, each cutting a shuffled run of up to 5 inner nodes into
    innerly disjoint paths (an empty run is the direct path), some groups
    with the direct path besides, and some groups empty."""
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)) == 0:
            groups.append([])
            continue
        order = draw(st.permutations(range(5)))[:draw(st.integers(0, 5))]
        cuts = []
        if len(order) > 1:
            cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1))))
        runs = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
        paths = [NetPath(("s", *run, "t")) for run in runs]
        if draw(st.booleans()):
            paths.append(NetPath(("s", "t")))
        groups.append(paths)
    return build_family(groups)
