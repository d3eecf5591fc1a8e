"""Strong connectability of strict digraphs, extension constructions,
bounds, and balanced non-transitive dice.

The names imported below are the package's public interface.
"""

from .dice import (
    MAX_DICE,
    SEARCH_BUDGET,
    DiceSet,
    beats_digraph,
    is_balanced,
    parse_dice,
    search_balanced_realization,
    serialize_dice,
    win_matrix,
)
from .dicut import (
    find_complete_dicut,
    format_added_edges,
    format_certificate,
    verify_certificate,
    verify_complete_dicut,
)
from .digraph import (
    MAX_VERTICES,
    Condensation,
    Edge,
    StrictDigraph,
    is_strong,
    parse_edge_list,
    serialize_edge_list,
    strong_components,
)
from .errors import (
    BudgetError,
    EmptyGraphError,
    HasCompleteDicutError,
    InvalidDiceError,
    InvalidInputError,
    ParseError,
    StrongExtError,
    TooSmallError,
)
from .extend import (
    MIN_EXTENSION_PAIR_BUDGET,
    MIN_EXTENSION_VERTEX_BUDGET,
    BoundsReport,
    ExtensionPlan,
    bounds,
    brute_force_min_extension,
    extend,
    gen_bipartite_plus_isolated,
    gen_disjoint_cycles,
    gen_tt_minus_path,
)

