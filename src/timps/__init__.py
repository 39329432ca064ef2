"""Translation-invariant injective MPS: canonical forms, transfer fixed
points, tensor-space homotopies, and plaquette Chern invariants of
parametrized families."""

__version__ = "0.1.0"

from .config import DEFAULT_TOLS, Tolerances
from .tensors import (
    CanonicalDecomposition,
    GaugeMove,
    MpsTensor,
    apply_gauge,
    canonical_decompose,
    essential_rank,
    gauge_equivalent,
    is_injective,
    left_gram,
    pad_tensor,
    range_projection,
    right_gram,
    right_normalize,
    tensor_from_json,
    tensor_to_json,
)
from .transfer import (
    WindowObservable,
    correlation_length,
    expectation,
    fixed_point,
    trace_invariant,
    transfer_matrix,
    transfer_spectrum,
    window_density_matrix,
)
from .homotopy import (
    PhiRule,
    apply_bond_isometry,
    apply_physical_isometry,
    contraction_endpoint,
    contraction_path,
    has_split_core_spectrum,
    isometry_path_block,
    retract,
    spectral_filter,
)
from .families import (
    Mesh2,
    aklt_path,
    make_sphere_mesh,
    psi2_sphere_family,
    psi2_tensor,
    pump_lift,
    pump_north,
    pump_south,
)
from .invariants import (
    chern_number,
    curvature_report,
    link_variable,
)
