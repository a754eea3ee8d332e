"""Combinatorial and geometric rigidity of half-turn-symmetric bar-joint
frameworks in polyhedral-normed planes: gain-graph sparsity certification,
Henneberg-type construction/deconstruction, character-block orbit matrices,
framework colourings, and verified isostatic placement synthesis."""

from .catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, graph_for_base_id, is_base_graph
from .colouring import (
    GeometricVerdict,
    geometric_verdict,
    monochrome_quotients,
)
from .construct import (
    ConstructionSequence,
    NoAdmissibleReduction,
    NotTight,
    construct,
    decompose,
    random_tight,
)
from .graph import (
    BadVertexIndex,
    DuplicateParallelEdge,
    Edge,
    GainGraph,
    GainGraphError,
    GainOneLoop,
    InvariantViolation,
    disjoint_union,
    edge,
)
from .iso import apply_iso, are_isomorphic, isomorphism
from .moves import (
    ALL_KINDS,
    KINDS_222,
    Move,
    MoveError,
    Reduction,
    apply_move,
    apply_reduction,
    enumerate_reductions,
    is_admissible,
)
from .norms import L1, LINF, ConeBoundary, LpNorm, PolyhedralNorm, ZeroVector
from .placement import (
    BASE_PLACEMENTS,
    PlacementError,
    RealisationConfig,
    base_placement,
    extend_placement,
    realize,
)
from .rigidity import (
    Framework,
    FrameworkError,
    NotWellPositioned,
    RigidityReport,
    analyse,
    orbit_matrix,
    trivial_dim,
    well_positioned,
)
from .sparsity import (
    SparsityParams,
    SparsityReport,
    brute_force_oracle,
    check_sparsity,
    check_tight,
    tight_partition,
)

__version__ = "0.1.0"
