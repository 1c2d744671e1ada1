"""bergman-lab: a numerical laboratory for weighted Bergman-space operator theory.

Pseudohyperbolic geometry, disc quadrature, Bekolle-Bonami weight constants,
truncated reproducing-kernel models of A^2(u), Berezin transforms, Toeplitz
matrices and spectra, Carleson embedding indices, essential-norm and
Schatten-class estimators, and the acceptance verification suite behind the
``bergman-lab verify`` command.
"""

from .config import DEFAULTS, Defaults
from .criteria import (
    boundedness_index,
    carleson_test,
    compactness_index,
    qlp_index,
    theorem_consistency_report,
    vanishing_carleson_test,
)
from .errors import (
    BergmanLabError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    PrecisionError,
)
from .geometry import (
    BoundaryLadder,
    CarlesonSet,
    Lattice,
    PseudoDisk,
    audit_grid,
    boundary_ladder,
    build_lattice,
    mobius,
    pseudo_add,
    pseudo_disk,
    pseudo_distance,
)
from .kernels import (
    KernelModel,
    build_kernel_model,
    kernel_diag,
    kernel_eval,
    kernel_norm,
    kernel_norms,
    reproducing_check,
)
from .measures import (
    DiscMeasure,
    atomic,
    basis_gram,
    density,
    measure_from_config,
    power_density,
    weighted_area,
)
from .quadrature import DiscQuadrature, disc_rule, region_quadrature, weighted_disc_rule
from .reports import CriterionReport, band, classify_ring_trend, ring_slope
from .toeplitz import (
    Spectrum,
    ToeplitzMatrix,
    apply_toeplitz,
    assemble,
    essential_norm_estimate,
    h_function,
    matrix_apply,
    pairing_check,
    schatten_integral,
    schatten_membership_report,
    spectrum,
    trace_identity_check,
)
from .transforms import (
    average_function,
    average_profile,
    berezin,
    berezin_profile,
    comparability_report,
    profile_lp_norm,
    t_berezin,
    t_berezin_profile,
)
from .verification import run_all, render_summary
from .weights import (
    Weight,
    bekolle_constant,
    constant,
    cp_constant,
    disk_masses,
    grid_weight,
    mass,
    power_one_minus_z,
    standard,
    weight_from_config,
)

__version__ = "0.1.0"
