"""parklike: exact enumeration of parking-like and tree-like structures.

The package implements a small species calculus (sums, products, powers,
restriction, partitional composition, recursive definitions), a parking-like
operator parameterized by a non-decreasing slot map, the tree-like operator
T = A(X*T), the bijection between the two (identity slot map), and exact
generating-series evaluation with Lagrange inversion.  Everything is pure
Python over exact integers.
"""

from .chi import ChiMap
from .dsl import parse_chi_text, parse_species
from .errors import (
    BlockLengthMismatchError,
    BudgetExceededError,
    ChiNotIdentityError,
    ChiTableExhaustedError,
    DivergentRecursionError,
    InadmissibleCompositionError,
    InvalidStructureError,
    NonIntegralSeriesError,
    ParseError,
    SpeciesError,
    UnboundNameError,
)
from .expr import (
    E,
    EPlus,
    Compose,
    One,
    Park,
    Power,
    Prod,
    Ref,
    Restrict,
    SpeciesEnv,
    Sum,
    Tree,
    X,
    Zero,
    expr_to_text,
)
from .generate import Generator
from .membership import accepts, validate_parking, validate_tree
from .parking import (
    ParkingFunction,
    ParkingLike,
    blocks_to_pf,
    is_parking_blocks,
    pf_to_blocks,
    validate_parking_function,
)
from .bijection import park_to_tree, q_order, tree_to_park
from .series import EgfSeries, egf_of_species, lagrange_solve, series_equal_prefix
from .structures import (
    AtomVal,
    ComposeVal,
    ProdVal,
    SetVal,
    SumVal,
    UNIT,
    UnitVal,
    deserialize,
    from_jsonable,
    serialize,
)
from .treelike import (
    TreeLike,
    tree_from_core,
    tree_to_core,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "accepts",
    "AtomVal",
    "BlockLengthMismatchError",
    "BudgetExceededError",
    "ChiMap",
    "ChiNotIdentityError",
    "ChiTableExhaustedError",
    "Compose",
    "ComposeVal",
    "DivergentRecursionError",
    "E",
    "EPlus",
    "EgfSeries",
    "Generator",
    "InadmissibleCompositionError",
    "InvalidStructureError",
    "NonIntegralSeriesError",
    "One",
    "Park",
    "ParkingFunction",
    "ParkingLike",
    "ParseError",
    "Power",
    "Prod",
    "ProdVal",
    "Ref",
    "Restrict",
    "SetVal",
    "SpeciesEnv",
    "SpeciesError",
    "Sum",
    "SumVal",
    "Tree",
    "TreeLike",
    "UNIT",
    "UnboundNameError",
    "UnitVal",
    "X",
    "Zero",
    "blocks_to_pf",
    "deserialize",
    "egf_of_species",
    "expr_to_text",
    "from_jsonable",
    "is_parking_blocks",
    "lagrange_solve",
    "park_to_tree",
    "parse_chi_text",
    "parse_species",
    "pf_to_blocks",
    "q_order",
    "run_suite",
    "serialize",
    "series_equal_prefix",
    "tree_from_core",
    "tree_to_core",
    "tree_to_park",
    "validate_parking",
    "validate_parking_function",
    "validate_tree",
]
