"""Exact relative Tutte polynomials of colored multigraphs with zero edges."""

from .errors import EngineError
from .graph import (
    EMPTY_KEY,
    POINTED_COLOR,
    RECOLOR_ZERO,
    ColoredMultigraph,
    EdgeRecord,
    PivotClassKey,
    blocks,
    contract,
    delete,
    is_bridge,
    is_connected,
    pivot_class_key,
    recolor_subset,
    splice_all,
)
from .poly import RelPolynomial, equal_mod_ideal, variable, z_symbol
from .pointed import (
    PointedGraph,
    PointedPolynomials,
    classify_pair,
    pi_0,
    pi_C,
    pi_L,
    pi_contract,
    pi_delete,
    pointed_polys,
)
from .tensor import (
    TensorInstance,
    beta_lambda,
    beta_zero,
    compose_contracting_set,
    induced_partition,
    sigma,
    tensor_product,
    substitution_rhs,
    verify_tensor_formula,
)
from .textio import format_graph, parse_graph_file, parse_graph_text
from .tutte import (
    ContractingSet,
    ProperLabeling,
    canonical_labeling,
    enumerate_contracting_sets,
    tutte_recursive,
    universal_tutte_statesum,
)

__version__ = "0.1.0"
