"""Exact construction, validation and colouring analysis of block designs.

The names below load on first use (PEP 562): `from designcolour import
Design` imports `designcolour.core` and nothing else, so a command
starts with only the modules it uses.  Each name stays defined in its
own submodule, the one the table names.
"""
from importlib import import_module

__version__ = "0.1.0"

# The exported names of each submodule.
_MODULES = {
    "core": (
        "Design", "DesignError", "Grouping", "InternalConsistencyError", "LeaveGraph",
        "UnsupportedParameterError", "ValidationReport", "Violation", "admissible",
        "is_transversal", "validate_bibd", "validate_gdd", "validate_packing",
    ),
    "colouring": (
        "Colouring", "InstanceTooLargeError", "PairStats", "brute_min_monochrome",
        "check_block_equitable", "check_colouring", "check_group_colouring", "check_weak",
        "count_monochrome_cross_pairs", "pair_stats_equitable",
    ),
    "solver": (
        "BudgetExceededError", "ChromaticResult", "SearchBudget", "SolveResult",
        "chromatic_lower_bound", "chromatic_number", "decide_colourable",
        "gdd_chromatic_numbers", "upper_bound_colouring",
    ),
    "td": ("FieldTable", "UnsupportedOrderError", "build_td", "field_table"),
    "packings": (
        "BoundInfo", "ColouredPacking", "PairsProfile", "Unachievable", "bound_general",
        "bound_max_equitable", "max_equitable_packing", "pack_4n", "pack_4n2_odd",
        "pack_from_pairs", "pack_small", "pairs_for_s", "td_packing_coloured",
        "verify_pairs_profile",
    ),
    "transforms": (
        "NONEXISTENT", "BlowUp", "ParallelClass", "blow_up", "delete_point",
        "equitable_gdd_colouring", "group_equitable_blowup", "is_parallel_class",
        "pc_to_gdd", "remove_blocks", "td_group_equitable_colouring",
    ),
    "parallel": (
        "PcAnalysis", "PcRecord", "analyze_parallel_classes", "enumerate_parallel_classes",
    ),
    "catalog": ("CatalogEntry", "UnknownEntryError", "catalog_get", "catalog_names"),
    "fileio": ("ParseError", "parse_colouring", "parse_design", "render_colouring", "render_design"),
}

# each exported name and the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """A submodule, or an exported name from its submodule, imported on
    first access and then bound here, so later lookups skip this hook."""
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_EXPORTS})
