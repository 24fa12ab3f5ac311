"""finslerflow: numerical Finsler geometry on periodic 2D charts.

Connection and curvature stack of a Finsler structure F(x, y), the
indicatrix (Liouville) measure and curvature functional, variational
identities on the space of Finsler metrics, and the scalar curvature flow
d/dt log F = -H(u,u) in normalized and unnormalized form.
"""

from .jets import Jet, JetOrderError, jet_spec
from .grids import BaseGrid, FiberGrid, build_grid, base_derivative
from .structures import (
    FinslerStructure,
    Chart,
    SingularMetricError,
    DomainError,
    validate_structure,
    fiber_jet,
    JetRequest,
)
from .connections import (
    fundamental_tensor,
    cartan_tensor,
    mean_cartan,
    spray,
    nonlinear_connection,
    berwald_coeffs,
    cartan_hcoeffs,
    geodesic_integrate,
)
from .curvature import (
    hh_curvature,
    ricci_tensors,
    ricci_directional,
    hat_scalars,
    gem_residual,
    curvature_bundle,
    CurvatureBundle,
)
from .fields import GridStructure
from .measure import (
    liouville_density,
    functional_report,
    global_inner,
    FunctionalReport,
)
from .variations import (
    membership_residuals,
    conformal_variation,
    lie_derivative_metric,
    divergence_delta,
    codifferential,
    trace_split,
    adjointness_residual,
    variation_residuals,
    MetricFamily,
    randers_family,
    conformal_family,
)
from .flow import (
    FlowState,
    FlowDiagnostics,
    encode_state,
    curvature_field,
    step,
    run_flow,
    dt_policy,
    uniform_scaling_flow,
    write_checkpoint,
    read_checkpoint,
)
from .zoo import ZooEntry, get_entry, reference_check, list_entries

__version__ = "0.1.0"
