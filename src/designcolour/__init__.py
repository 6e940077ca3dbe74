"""Exact construction, validation and colouring analysis of block designs."""

from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    LeaveGraph,
    UnsupportedParameterError,
    ValidationReport,
    Violation,
    admissible,
    is_transversal,
    validate_bibd,
    validate_gdd,
    validate_packing,
)
from .colouring import (
    Colouring,
    InstanceTooLargeError,
    PairStats,
    brute_min_monochrome,
    check_block_equitable,
    check_colouring,
    check_group_colouring,
    check_weak,
    count_monochrome_cross_pairs,
    pair_stats_equitable,
)
from .solver import (
    BudgetExceededError,
    ChromaticResult,
    SearchBudget,
    SolveResult,
    chromatic_lower_bound,
    chromatic_number,
    decide_colourable,
    gdd_chromatic_numbers,
    upper_bound_colouring,
)
from .td import FieldTable, UnsupportedOrderError, build_td, field_table
from .packings import (
    BoundInfo,
    ColouredPacking,
    PairsProfile,
    Unachievable,
    bound_general,
    bound_max_equitable,
    max_equitable_packing,
    pack_4n,
    pack_4n2_odd,
    pack_from_pairs,
    pack_small,
    pairs_for_s,
    td_packing_coloured,
    verify_pairs_profile,
)
from .transforms import (
    NONEXISTENT,
    BlowUp,
    ParallelClass,
    blow_up,
    delete_point,
    equitable_gdd_colouring,
    group_equitable_blowup,
    is_parallel_class,
    pc_to_gdd,
    remove_blocks,
    td_group_equitable_colouring,
)
from .parallel import (
    PcAnalysis,
    PcRecord,
    analyze_parallel_classes,
    enumerate_parallel_classes,
)
from .catalog import CatalogEntry, UnknownEntryError, catalog_get, catalog_names
from .fileio import (
    ParseError,
    parse_colouring,
    parse_design,
    render_colouring,
    render_design,
)

__version__ = "0.1.0"
