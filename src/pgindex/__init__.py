"""Public Good indices and values for simple, TU, and (j,k) simple games.

The package covers the whole pipeline: building games (tables, weighted
rules, coalition worths), enumerating their minimal critical structure,
computing the potential-based value family with its surplus variant and
normalizations, the average-game reduction back to TU, and the merge /
permutation / axiom toolkit used to characterize the normalized value.

Every public name is loaded from its submodule on first use (PEP 562), so
that ``import pgindex`` and a CLI request load only the submodules they
run; ``pgindex.<submodule>`` loads that submodule the same way.
"""

import importlib

__version__ = "0.1.0"

#: the submodule of every public name
_SOURCES = {
    name: module
    for module, names in {
        "algebra": (
            "AxiomReport", "AxiomResult", "MergeReport", "MergeViolation", "axiom_report",
            "decompose", "is_mergeable", "is_null_player", "mcv_union_check", "oplus",
            "permute", "single_mcv_game",
        ),
        "average": (
            "AverageGameResult", "ValueComparison", "average_game", "average_worth_oracle",
            "compare_pgv_vs_jk",
        ),
        "critical": (
            "CoalitionSet", "MCVSet", "is_critical_for", "minimal_critical_below",
            "minimal_critical_coalitions", "minimal_critical_vectors",
            "minimal_critical_vectors_oracle", "minimal_winning_coalitions",
            "real_gaining_coalitions",
        ),
        "errors": ("CapExceeded", "GameError", "ParseError", "TrivialGame", "ValidationError"),
        "gamefile": (
            "dump_game", "dumps_game", "game_to_dict", "load_game", "loads_game", "rational_str",
        ),
        "games": (
            "DEFAULT_CAP", "JKGame", "SimpleGame", "TUGame", "WeightedRule", "embed_2k_as_tu",
            "embed_simple", "evaluate", "extract_simple", "make_simple_game", "make_table_game",
            "make_tu_game", "make_weighted_game", "remove_player", "simple_game_from_generators",
            "subgame", "zero_game",
        ),
        "indices": (
            "IndexReport", "criticality_count", "jk_potential", "jk_potential_recursive",
            "lambda_total", "normalized_variant", "pgi_normalized", "pgi_raw", "pgv_tu",
            "public_good_value_jk", "total_criticality", "tu_potential", "variant_value",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SOURCES:
        value = getattr(importlib.import_module("." + _SOURCES[name], __name__), name)
    elif name in _SOURCES.values():  # importing a submodule binds it here
        return importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
