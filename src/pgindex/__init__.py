"""Public Good indices and values for simple, TU, and (j,k) simple games.

The package covers the whole pipeline: building games (tables, weighted
rules, coalition worths), enumerating their minimal critical structure,
computing the potential-based value family with its surplus variant and
normalizations, the average-game reduction back to TU, and the merge /
permutation / axiom toolkit used to characterize the normalized value.
"""

import types

from .algebra import (
    AxiomReport,
    AxiomResult,
    MergeReport,
    MergeViolation,
    axiom_report,
    decompose,
    is_mergeable,
    is_null_player,
    mcv_union_check,
    oplus,
    permute,
    single_mcv_game,
)
from .average import (
    AverageGameResult,
    ValueComparison,
    average_game,
    average_worth_oracle,
    compare_pgv_vs_jk,
)
from .critical import (
    CoalitionSet,
    MCVSet,
    is_critical_for,
    minimal_critical_below,
    minimal_critical_coalitions,
    minimal_critical_vectors,
    minimal_critical_vectors_oracle,
    minimal_winning_coalitions,
    real_gaining_coalitions,
)
from .errors import (
    CapExceeded,
    GameError,
    ParseError,
    TrivialGame,
    ValidationError,
)
from .gamefile import (
    dump_game,
    dumps_game,
    game_to_dict,
    load_game,
    loads_game,
    rational_str,
)
from .games import (
    DEFAULT_CAP,
    JKGame,
    SimpleGame,
    TUGame,
    WeightedRule,
    embed_2k_as_tu,
    embed_simple,
    evaluate,
    extract_simple,
    make_simple_game,
    make_table_game,
    make_tu_game,
    make_weighted_game,
    remove_player,
    simple_game_from_generators,
    subgame,
    zero_game,
)
from .indices import (
    IndexReport,
    criticality_count,
    jk_potential,
    jk_potential_recursive,
    lambda_total,
    normalized_variant,
    pgi_normalized,
    pgi_raw,
    pgv_tu,
    public_good_value_jk,
    total_criticality,
    tu_potential,
    variant_value,
)

__version__ = "0.1.0"

# every public name imported above, and none of the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
