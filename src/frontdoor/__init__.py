"""Find and enumerate front-door adjustment sets in causal diagrams."""

from .errors import (
    AlreadyExpandedError,
    CyclicGraphError,
    DuplicateNodeError,
    EmptyAdjustmentError,
    GraphError,
    OverlappingSetsError,
    ParseError,
    PreconditionError,
    SelfLoopError,
    UnknownNodeError,
)
from .estimand import (
    Estimand,
    Prob,
    Product,
    Sum,
    Sym,
    adjustment_formula,
    estimand_from_json,
    render_json,
    render_text,
)
from .graph import ADMG, VarSet, build_graph
from .listing import ListStats, list_adjustment_sets
from .search import (
    AdjustmentQuery,
    CriterionReport,
    check_criterion,
    find_adjustment_set,
    find_blocking_extension,
    second_condition_candidates,
    third_condition_candidates,
)
from .separation import (
    causal_path_graph,
    connecting_path,
    format_path,
    is_separated,
    proper_causal_path_nodes,
)

__version__ = "0.1.0"

__all__ = [
    "ADMG",
    "AdjustmentQuery",
    "AlreadyExpandedError",
    "CriterionReport",
    "CyclicGraphError",
    "DuplicateNodeError",
    "EmptyAdjustmentError",
    "Estimand",
    "GraphError",
    "ListStats",
    "OverlappingSetsError",
    "ParseError",
    "PreconditionError",
    "Prob",
    "Product",
    "SelfLoopError",
    "Sum",
    "Sym",
    "UnknownNodeError",
    "VarSet",
    "adjustment_formula",
    "build_graph",
    "causal_path_graph",
    "check_criterion",
    "connecting_path",
    "estimand_from_json",
    "find_adjustment_set",
    "find_blocking_extension",
    "format_path",
    "is_separated",
    "list_adjustment_sets",
    "proper_causal_path_nodes",
    "render_json",
    "render_text",
    "second_condition_candidates",
    "third_condition_candidates",
]
