"""mixvar: numerics for variational problems with mixed-order derivatives.

The toolkit discretizes the mixed-order gradient (one derivative column per
multi-index on the hyperplane of homogeneity), estimates quasiconvex
envelopes by minimizing mean energies over zero-boundary test fields,
characterizes coercivity through the auxiliary curve theta(t), solves
Dirichlet problems by the direct method, and runs empirical Young-measure
diagnostics on the resulting gradient fields.
"""

from .smoothness import (
    AnisoBox,
    BoxCover,
    SmoothnessVector,
    box_cover,
    homogeneity_set,
    kernel_monomials,
    lower_set,
    pairing,
)
from .grid import (
    AGradientField,
    APolynomial,
    Grid,
    GridField,
    a_gradient,
    full_gradient,
    mixed_derivative,
    project_to_gradients,
    sobolev_norm,
    stencil_matrix,
    truncate,
)
from .integrand import Integrand, builtin, builtin_from_config, grad_check
from .envelope import (
    EnvelopeOptions,
    EnvelopeTable,
    dacorogna_min,
    dacorogna_refine,
    envelope_interpolate,
    is_aqc_at,
    tabulate_envelope,
)
from .coercivity import (
    ThetaCurve,
    ThetaOptions,
    mean_coercivity_fit,
    strong_qc_test,
    theta_estimate,
)
from .solver import (
    DirichletProblem,
    SolveOptions,
    apolynomial_datum,
    relax_compare,
    solve_dirichlet,
)
from .youngmeasure import (
    EmpiricalMeasure,
    coordinate_quantile_distance,
    decompose,
    empirical_measure,
    jensen_gap,
    moments,
    scale_and_tile,
    sliced_wasserstein,
)
from .containers import load_field, save_field

__version__ = "0.1.0"
