"""Reductions onto the rainbow-matching engine: row-distinct matrix
transversals and zero-sum sub-multisets of residues."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import DEFAULT_BUDGET, GuaranteeViolation, PreconditionError, RowDuplicateError, charge
from .graph_core import (
    Matching,
    MatchingFamily,
    RainbowMatching,
    edge,
    validate_matching,
)
from .rainbow_solver import HasRainbow, classify_family, find_rainbow_matching


@dataclass(frozen=True, slots=True)
class SymbolMatrix:
    """A rectangular matrix of integer symbols, distinct within each row."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells or not cells[0]:
            raise PreconditionError("matrix must have at least one row and column")
        width = len(cells[0])
        for r, row in enumerate(cells):
            if len(row) != width:
                raise PreconditionError(f"row {r} has {len(row)} cells, expected {width}")
            seen: set[int] = set()
            for symbol in row:
                if symbol in seen:
                    raise RowDuplicateError(r, symbol)
                seen.add(symbol)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])


@dataclass(frozen=True, slots=True)
class Transversal:
    """Matrix positions, no two sharing a row, a column, or a symbol."""

    entries: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.entries)


def transversal_is_valid(matrix: SymbolMatrix, transversal: Transversal) -> bool:
    """Check the three distinctness constraints and fullness from scratch."""
    entries = sorted(transversal.entries)
    if not all(0 <= r < matrix.rows and 0 <= c < matrix.cols for r, c in entries):
        return False
    rows = [r for r, _ in entries]
    cols = [c for _, c in entries]
    symbols = [matrix.cells[r][c] for r, c in entries]
    return (len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
            and len(set(symbols)) == len(symbols)
            and len(entries) == min(matrix.rows, matrix.cols))


def matrix_to_family(matrix: SymbolMatrix) -> MatchingFamily:
    """One matching per row, joining each column to the symbol it holds there.

    Symbols index the right side through their sorted order over the whole
    matrix, so equal symbols in different rows meet the same right vertex.
    """
    rank = {s: i for i, s in enumerate(sorted({s for row in matrix.cells for s in row}))}
    members = tuple(
        validate_matching(edge(col, rank[s]) for col, s in enumerate(row))
        for row in matrix.cells)
    return MatchingFamily(members)


def find_transversal(matrix: SymbolMatrix,
                     budget: int = DEFAULT_BUDGET) -> Optional[Transversal]:
    """A full transversal via the rainbow solver, or None.

    Each rainbow edge, column j matched to a symbol and colored by row i,
    pulls back to the entry (i, j). Success is guaranteed once the row count
    reaches twice the column count minus one; there the solver's size
    threshold holds, so a miss raises GuaranteeViolation from the solver. The
    pulled-back entries are revalidated from scratch. The search runs under
    ``budget`` as in ``find_rainbow_matching``.
    """
    target = min(matrix.rows, matrix.cols)
    rainbow = find_rainbow_matching(matrix_to_family(matrix), target, budget)
    if rainbow is None:
        return None
    result = Transversal(frozenset((row, e.left.index) for row, e in rainbow.entries))
    if not transversal_is_valid(matrix, result):
        raise GuaranteeViolation("pulled-back transversal failed revalidation")
    return result


@dataclass(frozen=True, slots=True)
class ResidueMultiset:
    """A multiset of residues modulo a positive modulus, stored sorted."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise PreconditionError(f"modulus must be positive, got {self.modulus}")
        ordered = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", ordered)
        if any(not 0 <= e < self.modulus for e in ordered):
            raise PreconditionError(
                f"every element must lie in [0, {self.modulus}), got {ordered}")

    def __len__(self) -> int:
        return len(self.elements)


def egz_family(multiset: ResidueMultiset) -> MatchingFamily:
    """One shift matching per element, sorted and with multiplicity.

    Element a becomes the perfect matching joining each left residue i to the
    right residue i + a mod n; color k corresponds to ``elements[k]``. Each
    member is taken from a memo of the last ``_SHIFT_MEMO_SIZE`` shifts used,
    so equal elements, which the sort makes adjacent, share one member
    object, and later calls with the same modulus and element get it again.
    A shift is a bijection of the residues, so each member is a plain
    ``Matching`` record, built without ``validate_matching``.
    """
    n = multiset.modulus
    return MatchingFamily(tuple(_shift(n, a) for a in multiset.elements))


# the shifts ``_shift`` keeps, which hold at most this many times the largest
# modulus in edges
_SHIFT_MEMO_SIZE = 64


@lru_cache(maxsize=_SHIFT_MEMO_SIZE)
def _shift(n: int, a: int) -> Matching:
    """The shift i -> i + a mod n as a matching of the residues mod n."""
    return Matching(frozenset(edge(i, (i + a) % n) for i in range(n)))


def _charge_shift_family(multiset: ResidueMultiset, budget: int) -> None:
    """Charge n edges per distinct residue, unless fewer than n build none."""
    if len(multiset) >= multiset.modulus:
        charge(multiset.modulus * len(set(multiset.elements)), "edges", budget)


def find_zero_sum_subset(multiset: ResidueMultiset,
                         budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, ...]]:
    """A size-n sub-multiset summing to zero mod n, or None.

    Solved as a full rainbow matching on the shift family: such a matching
    covers every left and every right residue exactly once, so the chosen
    shifts telescope to zero mod n. Guaranteed to exist from 2n-1 elements
    up; there the solver's size threshold holds, so a miss raises
    GuaranteeViolation from the solver. Fewer than n elements hold no
    n-subset, so they return None before the shift family is built. The
    witness is re-verified (size, sum, sub-multiset) before it is returned.
    The shift family's n edges per distinct residue are charged against
    ``budget`` before it is built, and the search runs under ``budget`` as
    in ``find_rainbow_matching``.
    """
    if len(multiset) < multiset.modulus:
        return None
    _charge_shift_family(multiset, budget)
    rainbow = find_rainbow_matching(egz_family(multiset), multiset.modulus, budget)
    return None if rainbow is None else _zero_sum_witness(multiset, rainbow)


def zero_sum_is_valid(multiset: ResidueMultiset, witness: tuple[int, ...]) -> bool:
    """Check size n, sum zero mod n and sub-multiset from scratch."""
    n = multiset.modulus
    return (len(witness) == n and sum(witness) % n == 0
            and not Counter(witness) - Counter(multiset.elements))


def _zero_sum_witness(multiset: ResidueMultiset,
                      rainbow: RainbowMatching) -> tuple[int, ...]:
    """The residues behind a full rainbow matching of the shift family,
    sorted, after checking them with ``zero_sum_is_valid``."""
    witness = tuple(sorted(multiset.elements[c] for c in rainbow.colors))
    if not zero_sum_is_valid(multiset, witness):
        raise GuaranteeViolation("zero-sum witness failed revalidation")
    return witness


@dataclass(frozen=True, slots=True)
class HasZeroSum:
    witness: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ExtremalPair:
    low: int
    high: int


MultisetClassification = Union[HasZeroSum, ExtremalPair]


def classify_multiset(multiset: ResidueMultiset,
                      budget: int = DEFAULT_BUDGET) -> MultisetClassification:
    """Find a zero-sum sub-multiset or certify the unique blocking shape.

    A multiset of 2n-2 residues with no zero-sum sub-multiset of size n must
    be n-1 copies each of two residues whose difference is coprime to n,
    which is exactly when classify_family finds the shift family's split
    2n-cycle. Anything else failing the solver raises TheoremViolation.
    ``budget`` acts as in ``find_zero_sum_subset``, charged before any check.
    """
    _charge_shift_family(multiset, budget)
    n = multiset.modulus
    if n < 2:
        raise PreconditionError("classification needs modulus at least 2")
    if len(multiset) != 2 * n - 2:
        raise PreconditionError(
            f"need exactly {2 * n - 2} elements, got {len(multiset)}")
    verdict = classify_family(egz_family(multiset), budget)
    if isinstance(verdict, HasRainbow):
        return HasZeroSum(_zero_sum_witness(multiset, verdict.witness))
    low, high = sorted(multiset.elements[min(colors)]
                       for colors in (verdict.even_colors, verdict.odd_colors))
    return ExtremalPair(low, high)
