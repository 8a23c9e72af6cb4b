"""Exact computations with finite-dimensional Rota-Baxter systems.

The package represents systems and their bimodules by structure-constant
tensors over an exact field, assembles three cochain complexes as explicit
matrices, computes cohomology dimensions, verifies and trivialises
truncated formal deformations (an operator-only one is a DeformationData
whose multiplication series is constant), and converts between degree-2
cocycles and abelian extensions in both directions.
"""

from .linalg import GF, QQ, Field, Matrix, hstack, vstack, block_diag, kron_all
from .algebra import (
    Algebra,
    BimoduleActions,
    MultiMap,
    Verdict,
    check_associative,
    check_bimodule,
    check_nondegenerate,
    decode_tuple,
    encode_tuple,
    multimap_from_vector,
    multimap_vector,
    regular_actions,
    zero_actions,
    zero_algebra,
)
from .systems import (
    OrthogonalityReport,
    RotaBaxterSystem,
    check_morphism,
    check_rb_operator,
    check_rbs,
    conjugate_system,
    from_rb_operator,
    orthogonality_criterion,
    star_algebra,
    star_rbs_if_commuting,
)
from .bimodules import (
    DModule,
    RBSBimodule,
    check_rbs_bimodule,
    conjugate_bimodule,
    d_module,
    d_module_rbs,
    regular_bimodule,
    semidirect_extract,
    semidirect_maps,
    semidirect_product,
)
from .cohomology import (
    ALG,
    RBS,
    RBSO,
    BettiReport,
    Cochain,
    Complexes,
    ComplexSlice,
    DimensionCapExceeded,
    betti,
    les_check,
    pack_rbs_cochain,
    phi,
    rba_embedding_check,
    rbs_d,
    rbs_dim,
    unpack_rbs_cochain,
)
from .deformation import (
    DeformationData,
    GaugeSeries,
    apply_gauge,
    compose_gauges,
    constant_deformation,
    gauge_inverse,
    identity_gauge,
    infinitesimal,
    rigidify,
    verify_deformation,
)
from .extensions import (
    Cocycle2,
    ExtensionData,
    ExtensionIso,
    assemble_extension,
    build_extension,
    check_extension,
    check_iso,
    extract_cocycle,
    h2_extension_census,
    induced_bimodule,
    iso_from_cohomologous,
    same_class,
    zero_cocycle,
)

__version__ = "0.1.0"
