"""Uniform embeddings of trees and median graphs into sparse Hilbert-space
vectors, with empirical compression and dilatation measurement."""

from .cube import (
    CubeSpec,
    KeyProperty,
    MedianGraph,
    gen_cube,
    key_property,
    median_from_tree,
    tree_product_graph,
)
from .errors import (
    BudgetExceededError,
    CubeSpanError,
    MedEmbedError,
    NonTerminationError,
    SideComputationError,
    SpaceFormatError,
)
from .metrics import (
    BoundCheck,
    BoundCurve,
    CompressionProfile,
    PairSampler,
    ProductSpace,
    ProfileEntry,
    bourgain_consistency,
    check_profile_against,
    default_bound_curves,
    edge_dilatation_bound,
    l1_l2_compare,
    oracle_deviations,
    profile,
)
from .sparse import Graph, PathForest, SparseVector, vec_distance, vectors
from .spacefile import (
    SpaceFile,
    build_space,
    load_spacefile,
    save_spacefile,
    to_spacefile,
)
from .tree import RootedTree, TreeSpec, gen_tree
from .weights import (
    WeightFunction,
    WeightReport,
    build_weight_report,
    deficit_bound,
    diff_sq_sum,
    diff_sq_tail_bound,
    parse_weight,
)

__version__ = "0.1.0"
