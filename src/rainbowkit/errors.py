"""Exception types shared across the package, and the step budget that
bounds every exhaustive search."""

import math

DEFAULT_BUDGET = 10_000_000


class RainbowkitError(Exception):
    """Base class for all rainbowkit errors."""


class PreconditionError(RainbowkitError):
    """An operation was called outside its documented preconditions."""


class OverlapError(RainbowkitError):
    """Two edges share an endpoint where a matching was required."""

    def __init__(self, vertex) -> None:
        super().__init__(f"edges overlap at {vertex}")
        self.vertex = vertex


class MalformedPathError(RainbowkitError):
    """A node sequence is not a valid source-to-sink path."""


class InnerOverlapError(RainbowkitError):
    """Two paths of one group share an inner vertex."""

    def __init__(self, group, vertex) -> None:
        super().__init__(f"group {group}: paths share inner vertex {vertex}")
        self.group = group
        self.vertex = vertex


class GuaranteeViolation(RainbowkitError):
    """A guaranteed construction failed; this always indicates a bug."""


class DichotomyViolation(RainbowkitError):
    """Neither branch of the regimented/traversable dichotomy holds; a bug."""


class TheoremViolation(RainbowkitError):
    """A classification fell through every case the theory allows; a bug."""


class RowDuplicateError(RainbowkitError):
    """A matrix row repeats a symbol."""

    def __init__(self, row, symbol) -> None:
        super().__init__(f"row {row} repeats symbol {symbol!r}")
        self.row = row
        self.symbol = symbol


class BudgetExceeded(RainbowkitError):
    """An exhaustive computation hit its step budget."""


class Meter:
    """Counts elementary steps against a budget, one per ``spend()``; spending
    exactly the budget succeeds, and one step more raises BudgetExceeded."""

    __slots__ = ("left",)

    def __init__(self, budget: int) -> None:
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("step budget exhausted")


def charge(total: int, unit: str, budget: int) -> None:
    """Refuse a computation before it starts when ``total`` ``unit`` exceed
    ``budget``."""
    if total > budget:
        raise BudgetExceeded(f"{total} {unit} exceed the budget")


def charge_multisets(kinds: int, k: int, budget: int) -> None:
    """Charge the k-multisets of ``kinds`` items. There are at least
    2**min(kinds - 1, k) of them, so a count that bound already puts over
    the budget is refused without being computed."""
    least = min(kinds - 1, k)
    if least > budget.bit_length():
        raise BudgetExceeded(f"2**{least} or more multisets exceed the budget")
    charge(math.comb(kinds + k - 1, k), "multisets", budget)


class InfeasibleSpec(RainbowkitError):
    """The requested instance shape cannot be realized."""


class InputError(RainbowkitError):
    """Malformed input data; the message pinpoints the offending field."""
