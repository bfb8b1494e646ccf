"""Constructive rainbow-matching algorithms for bipartite graphs, with the
network machinery behind them, two classical reductions (row-distinct matrix
transversals and zero-sum residue sub-multisets), and brute-force oracles
that verify every guarantee exhaustively at desk scale."""

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DichotomyViolation,
    GuaranteeViolation,
    InfeasibleSpec,
    InnerOverlapError,
    InputError,
    MalformedPathError,
    OverlapError,
    PreconditionError,
    RainbowkitError,
    RowDuplicateError,
    TheoremViolation,
)
from .graph_core import (
    Edge,
    Matching,
    MatchingFamily,
    RainbowMatching,
    Side,
    Vertex,
    augmenting_paths,
    edge,
    rainbow_is_valid,
    validate_matching,
)
from .network_paths import (
    SINK,
    SOURCE,
    ColoredPath,
    NetPath,
    PathGroup,
    PathGroupFamily,
    Regimentation,
    build_family,
    colored_path_conforms,
    find_multicolored_st_path,
    is_regimented,
    iter_multicolored_st_paths,
    make_path,
    reachable_witness_set,
    verify_regimented_dichotomy,
)
from .rainbow_solver import (
    ExtremalCycle,
    FamilyClassification,
    HasRainbow,
    NetworkTranslation,
    build_contracted_network,
    classify_family,
    drisko_condition,
    find_rainbow_matching,
)
from .reductions import (
    ExtremalPair,
    HasZeroSum,
    MultisetClassification,
    ResidueMultiset,
    SymbolMatrix,
    Transversal,
    classify_multiset,
    egz_family,
    find_transversal,
    find_zero_sum_subset,
    matrix_to_family,
    transversal_is_valid,
    zero_sum_is_valid,
)
from .oracle import (
    GenSpec,
    brute_mc_path,
    brute_rainbow,
    brute_reaches_sink,
    brute_zero_sum,
    canonical_cycle_family,
    enumerate_matchings,
    enumerate_multisets,
    generate,
)

__version__ = "0.1.0"
