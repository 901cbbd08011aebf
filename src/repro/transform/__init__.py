"""BE transformations: splitting, peeling, dead-field removal, reordering."""

from .common import TransformError, extract_alloc_count, is_alloc_cast
from .rewrite import Transformer, retype
from .unparse import (
    unit_text, program_sources, expr_text, struct_definition, type_decl,
    function_text,
)
from .splitting import SplitSpec, split_structure, remove_dead_fields, LINK_FIELD
from .peeling import PeelSpec, peel_structure, check_peelable
from .reorder import (
    reorder_fields, reorder_record, hotness_order, affinity_packed_order,
)
from .heuristics import (
    HeuristicParams, TransformDecision, decide_transforms, decide_type,
    apply_decisions, peel_groups, split_threshold, transform_blockers,
    PROFILE_SCHEMES,
)
from .search import (
    Layout, LayoutOracle, ENGINES, anneal, layout_from_decision,
    decision_from_layout, search_layouts, search_mode, search_type,
)
from .common import layout_fingerprint

__all__ = [
    "Layout", "LayoutOracle", "ENGINES", "anneal",
    "layout_from_decision", "decision_from_layout", "search_layouts",
    "search_mode", "search_type", "layout_fingerprint",
    "transform_blockers",
    "TransformError", "extract_alloc_count", "is_alloc_cast",
    "Transformer", "retype",
    "unit_text", "program_sources", "expr_text", "struct_definition",
    "type_decl", "function_text",
    "SplitSpec", "split_structure", "remove_dead_fields", "LINK_FIELD",
    "PeelSpec", "peel_structure", "check_peelable",
    "reorder_fields", "reorder_record", "hotness_order",
    "affinity_packed_order",
    "HeuristicParams", "TransformDecision", "decide_transforms",
    "decide_type", "apply_decisions", "peel_groups", "split_threshold",
    "PROFILE_SCHEMES",
]
