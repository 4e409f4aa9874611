"""Exact equivariant cohomology of moment-angle complexes and polyhedral
products, with symmetric-group representation decompositions, a brute-force
cellular cross-check, and stability scanning over families."""

__version__ = "0.1.0"

from .simplicial import (  # noqa: F401
    SimplicialComplex,
    Vertex,
    full_subcomplex,
    join,
    skeleton,
    vc_cube_dual,
)
from .perms import (  # noqa: F401
    OrbitTable,
    PermGroup,
    Permutation,
    act_on_subset,
    enumerate_group,
    is_g_complex,
    subset_orbit_reps,
    support_split,
)
from .homology import (  # noqa: F401
    CohomologyBasis,
    coboundaries,
    induced_cohomology_map,
    reduced_cohomology,
)
from .symrep import (  # noqa: F401
    ClassFunction,
    PaddedPartition,
    class_size,
    decompose,
    hook_dim,
    induce_to_sym,
    mn_character,
    pad,
    partitions,
    pieri_induce,
    unpad,
    weight,
)
from .hochster import (  # noqa: F401
    MOMENT_ANGLE,
    REAL_MOMENT_ANGLE,
    CohomologyClass,
    EquivariantReport,
    SpherePair,
    betti,
    cup_product,
    equivariant_decomposition,
    g_algebra_equivariance_check,
    sym_irreducible_decomposition,
)
from .cellular import (  # noqa: F401
    MomentAngleCellComplex,
    compare_with_hochster,
)
from .families import (  # noqa: F401
    Family,
    JoinSkeletonsFamily,
    SkeletonFamily,
    VcCubeDualFamily,
    betti_growth,
    check_consistent,
    check_r_face_stable,
    check_r_vertex_stable,
    check_stabiliser_consistent,
    multiplicity_scan,
    parse_family,
)
