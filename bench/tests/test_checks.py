"""The benchmark's checks accept right outputs and reject corrupted ones.

Run from the root of a checkout: ``python3 -m pytest bench/tests``.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# Drisko's setting at n = 2: three matchings of size 2 on 3 vertices a side.
MEMBERS = [frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 2)}),
           frozenset({(1, 0), (2, 2)})]
RAINBOW = [(0, (0, 0)), (2, (2, 2))]


def test_rainbow_accepts_a_valid_witness():
    assert checks.rainbow_defect(MEMBERS, 2, RAINBOW) is None


def test_rainbow_rejects_a_wrong_color():
    assert "not in member" in checks.rainbow_defect(MEMBERS, 2, [(1, (0, 0)), (2, (2, 2))])


def test_rainbow_rejects_an_overlapping_edge():
    assert "overlaps" in checks.rainbow_defect(MEMBERS, 2, [(0, (0, 0)), (1, (0, 1))])


def test_rainbow_rejects_a_repeated_color_and_a_short_witness():
    assert "repeats" in checks.rainbow_defect(MEMBERS, 2, [(0, (0, 0)), (0, (1, 1))])
    assert "want 2" in checks.rainbow_defect(MEMBERS, 2, RAINBOW[:1])


def test_threshold_matches_the_uniform_bound():
    for n in range(1, 6):
        assert checks.threshold_holds([n] * (2 * n - 1), n)
        assert not checks.threshold_holds([n] * (2 * n - 2), n)


def test_zero_sum_accepts_a_valid_witness():
    assert checks.zero_sum_defect(3, (0, 1, 1, 2, 2), (0, 1, 2)) is None


def test_zero_sum_rejects_a_nonzero_sum():
    assert "sums to" in checks.zero_sum_defect(3, (0, 1, 1, 2, 2), (1, 1, 2))


def test_zero_sum_rejects_a_foreign_element_and_a_wrong_size():
    assert "sub-multiset" in checks.zero_sum_defect(3, (0, 1, 1, 2, 2), (0, 0, 0))
    assert "want 3" in checks.zero_sum_defect(3, (0, 1, 1, 2, 2), (1, 2))


def test_has_zero_sum_agrees_with_plain_enumeration():
    for n in (2, 3, 4):
        for elements in itertools.combinations_with_replacement(range(n), 2 * n - 2):
            plain = any(sum(c) % n == 0 for c in itertools.combinations(elements, n))
            assert checks.has_zero_sum(n, elements) == plain, elements


def test_blocking_pair_shape():
    assert checks.blocking_pair_defect(4, (1, 1, 1, 2, 2, 2), (1, 2)) is None
    assert "coprime" in checks.blocking_pair_defect(4, (0, 0, 0, 2, 2, 2), (0, 2))
    assert "two residues" in checks.blocking_pair_defect(4, (1, 1, 1, 2, 2, 2), (2, 1))


EVEN = frozenset({(0, 0), (1, 1), (2, 2)})
ODD = frozenset({(1, 0), (2, 1), (0, 2)})
# L0 R0 L1 R1 L2 R2: the first step (0, 0) is an even edge
CYCLE = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))


def test_split_cycle_accepts_the_built_cycle():
    evens, odds = frozenset({0, 3}), frozenset({1, 2})
    assert checks.split_cycle_defect(EVEN, ODD, evens, odds, CYCLE, evens, odds) is None


def test_split_cycle_rejects_swapped_colors_and_a_broken_cycle():
    evens, odds = frozenset({0, 3}), frozenset({1, 2})
    assert "color split" in checks.split_cycle_defect(
        EVEN, ODD, evens, odds, CYCLE, odds, evens)
    broken = ((0, 0), (1, 0), (0, 1), (1, 2), (0, 2), (1, 1))
    assert checks.split_cycle_defect(EVEN, ODD, evens, odds, broken, evens, odds)


S, T = checks.SOURCE, checks.SINK
REGIMENTED = [(S, 0, 1, T), (S, 0, 1, T), (S, 2, T)]
TRAVERSABLE = [(S, 0, 1, T), (S, 1, T)]
WITNESS = ((S, 1, T), (1, 0))  # s->1 on path 1, then 1->t on path 0


def test_regimentation_follows_the_definition():
    assert checks.regimentation(REGIMENTED) == {(S, 0, 1, T): 2, (S, 2, T): 1}
    assert checks.regimentation(TRAVERSABLE) is None
    assert checks.regimentation([(S, 0, 1, T), (S, 0, 1, T), (S, 1, T)]) is None


def test_dichotomy_accepts_both_sides():
    classes = checks.regimentation(REGIMENTED)
    assert checks.dichotomy_defect(
        REGIMENTED, classes, None, ("regimented", classes)) is None
    assert checks.dichotomy_defect(
        TRAVERSABLE, None, WITNESS, ("path",) + WITNESS) is None


def test_dichotomy_rejects_a_false_regimentation():
    claimed = {(S, 0, 1, T): 1, (S, 1, T): 1}
    assert "regimentation test says" in checks.dichotomy_defect(
        TRAVERSABLE, claimed, WITNESS, ("regimented", claimed))


def test_dichotomy_rejects_a_wrong_color_a_repeated_color_and_a_missed_sink():
    wrong = ((S, 1, T), (0, 1))
    assert "not on path" in checks.dichotomy_defect(
        TRAVERSABLE, None, WITNESS, ("path",) + wrong)
    repeated = ((S, 1, T), (1, 1))
    assert "distinct color" in checks.dichotomy_defect(
        TRAVERSABLE, None, repeated, ("path",) + WITNESS)
    assert "sink verdict" in checks.dichotomy_defect(
        TRAVERSABLE, None, None, ("path",) + WITNESS)
