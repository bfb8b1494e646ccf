"""Independent checks of rainbowkit's verdicts, on plain tuples.

Nothing here imports rainbowkit. Each check re-derives the property it tests
from its definition, so a fault in the program cannot hide behind a helper
that the program and the check share. Instances and outputs arrive as:

* a matching family: a list of frozensets of ``(left, right)`` index pairs,
  one per color;
* a rainbow matching: a list of ``(color, (left, right))`` pairs;
* a residue multiset: a modulus and a tuple of residues;
* a network path: a tuple of nodes, ``"s"``, inner indices, ``"t"``;
* a colored path: a node tuple and a color tuple, one color per edge.

A check returns None when the output is right and a one-line defect
otherwise. ``Missing`` is raised where a theorem promises an output and none
came back: the benchmark counts that as a failed operation.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

SOURCE = "s"
SINK = "t"


class Missing(Exception):
    """A guaranteed witness was not returned."""


def threshold_holds(sizes: Sequence[int], target: int) -> bool:
    """The mixed-size threshold: with the sizes ascending, the first
    ``count - target + 1`` of them, each less ``target - 1``, sum to at least
    ``target``. Uniform families of 2n-1 matchings of size n meet it at n."""
    ordered = sorted(sizes)
    head = ordered[: len(ordered) - target + 1]
    return bool(head) and sum(s - target + 1 for s in head) >= target


def rainbow_defect(members: Sequence[frozenset], target: int,
                   assignment: Sequence[tuple[int, tuple[int, int]]]) -> Optional[str]:
    """A rainbow matching of ``target`` edges: distinct colors, each edge in
    its color's member, no two edges sharing a vertex."""
    if len(assignment) != target:
        return f"rainbow matching has {len(assignment)} edges, want {target}"
    colors = [c for c, _ in assignment]
    if len(set(colors)) != len(colors):
        return f"a color repeats in {colors}"
    lefts: set[int] = set()
    rights: set[int] = set()
    for color, (left, right) in assignment:
        if not 0 <= color < len(members):
            return f"color {color} is out of range"
        if (left, right) not in members[color]:
            return f"edge {(left, right)} is not in member {color}"
        if left in lefts or right in rights:
            return f"edge {(left, right)} overlaps another chosen edge"
        lefts.add(left)
        rights.add(right)
    return None


def zero_sum_defect(modulus: int, elements: Sequence[int],
                    witness: Sequence[int]) -> Optional[str]:
    """A sub-multiset of ``modulus`` elements summing to 0 mod ``modulus``."""
    if len(witness) != modulus:
        return f"witness has {len(witness)} elements, want {modulus}"
    if sum(witness) % modulus:
        return f"witness {tuple(witness)} sums to {sum(witness) % modulus} mod {modulus}"
    if Counter(witness) - Counter(elements):
        return f"witness {tuple(witness)} is not a sub-multiset of the input"
    return None


def has_zero_sum(modulus: int, elements: Sequence[int]) -> bool:
    """Whether some sub-multiset of ``modulus`` elements sums to 0, decided by
    enumerating how many copies of each distinct residue to take."""
    counts = sorted(Counter(elements).items())

    def search(i: int, left: int, total: int) -> bool:
        if left == 0:
            return total % modulus == 0
        if i == len(counts):
            return False
        residue, copies = counts[i]
        return any(search(i + 1, left - k, total + k * residue)
                   for k in range(min(copies, left), -1, -1))

    return search(0, modulus, 0)


def blocking_pair_defect(modulus: int, elements: Sequence[int],
                         pair: tuple[int, int]) -> Optional[str]:
    """The blocking shape of 2n-2 residues: n-1 copies each of two residues
    whose difference is coprime to n, reported in ascending order."""
    low, high = pair
    counts = Counter(elements)
    if not low < high or set(counts) != {low, high}:
        return f"pair {pair} is not the two residues of {tuple(sorted(elements))}"
    if counts[low] != modulus - 1 or counts[high] != modulus - 1:
        return f"pair {pair} does not split the input {modulus - 1}/{modulus - 1}"
    if math.gcd(high - low, modulus) != 1:
        return f"difference of {pair} is not coprime to {modulus}"
    return None


def split_cycle_defect(even: frozenset, odd: frozenset, even_colors: frozenset,
                       odd_colors: frozenset, cycle: Sequence[tuple[int, int]],
                       got_even: frozenset, got_odd: frozenset) -> Optional[str]:
    """The blocking cycle of a family built by splitting one 2n-cycle into two
    perfect matchings ``even`` and ``odd``, held by ``even_colors`` and
    ``odd_colors``. ``cycle`` lists ``(side, index)`` vertices with side 0 on
    the left; the verdict's even colors hold the edge from its first vertex
    to its second."""
    n = len(even)
    if len(cycle) != 2 * n or len(set(cycle)) != len(cycle):
        return f"cycle {tuple(cycle)} does not visit {2 * n} distinct vertices"
    union = even | odd
    steps = []
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if u[0] == v[0]:
            return f"cycle steps from {u} to {v} on one side"
        step = (u[1], v[1]) if u[0] == 0 else (v[1], u[1])
        if step not in union:
            return f"cycle step {step} is not an edge of the family"
        steps.append(step)
    if set(steps) != union:
        return "cycle does not run through every edge of the family"
    want = (even_colors, odd_colors) if steps[0] in even else (odd_colors, even_colors)
    if (frozenset(got_even), frozenset(got_odd)) != want:
        return f"color split {sorted(got_even)}/{sorted(got_odd)} is not the one built"
    return None


def regimentation(paths: Sequence[tuple]) -> Optional[dict]:
    """The classes of a regimented path multiset, or None when it is not one.

    Regimented: every class of identical paths has one copy fewer than the
    path has edges, and no two class representatives share an inner node.
    """
    classes = Counter(paths)
    seen: set = set()
    for path, copies in classes.items():
        inner = set(path[1:-1])
        if copies != len(path) - 2 or inner & seen:
            return None
        seen |= inner
    return dict(classes)


def colored_path_defect(paths: Sequence[tuple], nodes: Sequence,
                        colors: Sequence[int]) -> Optional[str]:
    """A source-sink path whose i-th edge lies on path ``colors[i]`` of the
    input, with no node and no color used twice."""
    if len(nodes) < 2 or nodes[0] != SOURCE or nodes[-1] != SINK:
        return f"colored path {tuple(nodes)} does not run from source to sink"
    if len(set(nodes)) != len(nodes):
        return f"colored path {tuple(nodes)} repeats a node"
    if len(colors) != len(nodes) - 1 or len(set(colors)) != len(colors):
        return f"colors {tuple(colors)} are not one distinct color per edge"
    for u, v, color in zip(nodes, nodes[1:], colors):
        if not 0 <= color < len(paths):
            return f"color {color} is out of range"
        path = paths[color]
        if (u, v) not in zip(path, path[1:]):
            return f"edge {(u, v)} is not on path {color}"
    return None


def dichotomy_defect(paths: Sequence[tuple], claimed: Optional[dict],
                     sink_path: Optional[tuple], outcome: tuple) -> Optional[str]:
    """Criterion 5 on one multiset with as many paths as inner nodes.

    ``claimed`` is the regimentation test's classes (None for "not
    regimented"), ``sink_path`` the oracle's ``(nodes, colors)`` witness for
    the sink (None when it reports the sink unreachable), and ``outcome`` the
    dichotomy verdict: ``("regimented", classes)`` or ``("path", nodes,
    colors)``. Exactly one side holds: regimented multisets have no
    multicolored source-sink path, all others have one.
    """
    expected = regimentation(paths)
    if claimed != expected:
        return f"regimentation test says {claimed}, the definition says {expected}"
    if (sink_path is None) != (expected is not None):
        return "oracle's sink verdict disagrees with regimentation"
    if sink_path is not None:
        defect = colored_path_defect(paths, *sink_path)
        if defect:
            return f"oracle witness: {defect}"
    if expected is not None:
        if outcome != ("regimented", expected):
            return f"dichotomy verdict {outcome} on a regimented multiset"
        return None
    if outcome[0] != "path":
        return f"dichotomy verdict {outcome} on a traversable multiset"
    defect = colored_path_defect(paths, *outcome[1:])
    return f"dichotomy witness: {defect}" if defect else None
