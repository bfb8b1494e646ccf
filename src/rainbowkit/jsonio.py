"""JSON serialization for instances and witnesses.

Instance schemas (UTF-8 JSON files):

* matching family: array of matchings; a matching is an array of edges,
  none listed twice; an edge is ``[left_index, right_index]``.
* network family: array of groups; a group is an array of paths; a path is
  an array of nodes, each ``"s"``, ``"t"``, or a non-negative inner index.
  A group's position is its color, so witness colors index this array; an
  empty group keeps its position and colors nothing.
* matrix: ``{"rows": m, "cols": n, "cells": [[...], ...]}`` with integer
  symbols, distinct within each row.
* residue multiset: ``{"n": modulus, "elements": [...]}``.

Deserialization raises InputError with a message naming the offending field.
"""

from __future__ import annotations

from typing import Any

from .errors import InputError, MalformedPathError, OverlapError, RainbowkitError
from .graph_core import MatchingFamily, RainbowMatching, Vertex, edge, validate_matching
from .network_paths import ColoredPath, PathGroupFamily, build_family, make_path
from .rainbow_solver import ExtremalCycle, FamilyClassification, HasRainbow
from .reductions import (
    ExtremalPair,
    HasZeroSum,
    MultisetClassification,
    ResidueMultiset,
    SymbolMatrix,
    Transversal,
)


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise InputError(f"{where}: {message}")


def _int(value: Any, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), where,
             f"expected an integer, got {value!r}")
    return value


def family_from_obj(obj: Any) -> MatchingFamily:
    _require(isinstance(obj, list), "family", "expected an array of matchings")
    members = []
    for i, raw in enumerate(obj):
        _require(isinstance(raw, list), f"family[{i}]", "expected an array of edges")
        edges: dict = {}  # edge -> position of its first listing
        for j, pair in enumerate(raw):
            where = f"family[{i}][{j}]"
            _require(isinstance(pair, list) and len(pair) == 2, where,
                     "expected an edge [left, right]")
            left = _int(pair[0], where)
            right = _int(pair[1], where)
            _require(left >= 0 and right >= 0, where, "indices must be non-negative")
            first = edges.setdefault(edge(left, right), j)
            _require(first == j, where, f"repeats the edge family[{i}][{first}]")
        try:
            members.append(validate_matching(edges))
        except OverlapError as exc:
            raise InputError(f"family[{i}]: {exc}") from exc
    return MatchingFamily(tuple(members))


def family_to_obj(family: MatchingFamily) -> list:
    return [[[e.left.index, e.right.index] for e in member] for member in family]


def network_from_obj(obj: Any) -> PathGroupFamily:
    _require(isinstance(obj, list), "network", "expected an array of groups")
    groups = []
    for i, raw_group in enumerate(obj):
        _require(isinstance(raw_group, list), f"network[{i}]",
                 "expected an array of paths")
        paths = []
        for j, raw_path in enumerate(raw_group):
            where = f"network[{i}][{j}]"
            _require(isinstance(raw_path, list), where, "expected an array of nodes")
            try:
                paths.append(make_path(raw_path))
            except MalformedPathError as exc:
                raise InputError(f"{where}: {exc}") from exc
        groups.append(paths)
    try:
        return build_family(groups)
    except RainbowkitError as exc:
        raise InputError(f"network: {exc}") from exc


def network_to_obj(family: PathGroupFamily) -> list:
    return [[list(p.nodes) for p in g] for g in family.groups]


def matrix_from_obj(obj: Any) -> SymbolMatrix:
    _require(isinstance(obj, dict), "matrix", "expected an object")
    for key in ("rows", "cols", "cells"):
        _require(key in obj, "matrix", f"missing field {key!r}")
    rows = _int(obj["rows"], "matrix.rows")
    cols = _int(obj["cols"], "matrix.cols")
    cells = obj["cells"]
    _require(isinstance(cells, list) and len(cells) == rows, "matrix.cells",
             f"expected {rows} rows")
    for r, row in enumerate(cells):
        where = f"matrix.cells[{r}]"
        _require(isinstance(row, list) and len(row) == cols, where,
                 f"expected {cols} cells")
        for c, symbol in enumerate(row):
            _int(symbol, f"{where}[{c}]")
    try:
        return SymbolMatrix(tuple(tuple(row) for row in cells))
    except RainbowkitError as exc:
        raise InputError(f"matrix: {exc}") from exc


def matrix_to_obj(matrix: SymbolMatrix) -> dict:
    return {"rows": matrix.rows, "cols": matrix.cols,
            "cells": [list(row) for row in matrix.cells]}


def multiset_from_obj(obj: Any) -> ResidueMultiset:
    _require(isinstance(obj, dict), "multiset", "expected an object")
    for key in ("n", "elements"):
        _require(key in obj, "multiset", f"missing field {key!r}")
    n = _int(obj["n"], "multiset.n")
    elements = obj["elements"]
    _require(isinstance(elements, list), "multiset.elements", "expected an array")
    values = [_int(v, f"multiset.elements[{i}]") for i, v in enumerate(elements)]
    try:
        return ResidueMultiset(n, tuple(values))
    except RainbowkitError as exc:
        raise InputError(f"multiset: {exc}") from exc


def multiset_to_obj(multiset: ResidueMultiset) -> dict:
    return {"n": multiset.modulus, "elements": list(multiset.elements)}


def rainbow_to_obj(rainbow: RainbowMatching) -> dict:
    return {
        "size": len(rainbow),
        "assignment": [[c, [e.left.index, e.right.index]] for c, e in rainbow.entries],
    }


def transversal_to_obj(transversal: Transversal) -> dict:
    return {"entries": [list(rc) for rc in sorted(transversal.entries)]}


def zero_sum_to_obj(witness: tuple[int, ...]) -> dict:
    return {"elements": list(witness)}


def colored_path_to_obj(path: ColoredPath) -> dict:
    return {"nodes": list(path.nodes), "colors": list(path.colors)}


def _vertex_to_obj(v: Vertex) -> list:
    return ["L" if v.side == 0 else "R", v.index]


def family_classification_to_obj(verdict: FamilyClassification) -> dict:
    if isinstance(verdict, HasRainbow):
        return {"verdict": "rainbow", "witness": rainbow_to_obj(verdict.witness)}
    assert isinstance(verdict, ExtremalCycle)
    return {
        "verdict": "extremal-cycle",
        "cycle": [_vertex_to_obj(v) for v in verdict.cycle],
        "even_colors": sorted(verdict.even_colors),
        "odd_colors": sorted(verdict.odd_colors),
    }


def multiset_classification_to_obj(verdict: MultisetClassification) -> dict:
    if isinstance(verdict, HasZeroSum):
        return {"verdict": "zero-sum", "elements": list(verdict.witness)}
    assert isinstance(verdict, ExtremalPair)
    return {"verdict": "extremal-pair", "a": verdict.low, "b": verdict.high}
