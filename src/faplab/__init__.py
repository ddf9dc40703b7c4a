"""faplab: first-arrival-position diffusion channels.

Analytic arrival densities with drift and their heavy-tailed zero-drift
limits, exact and Euler first-passage samplers, dispersion-constrained
entropy machinery, and the closed-form channel capacities they verify.
"""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    ConstraintSpec,
    DispersionLevel,
    EntropyEstimate,
    InfeasibleError,
    MaxentProfile,
    capacity_closed_form,
    capacity_table,
    dispersion_of,
    entropy_estimate,
    feasibility,
    log_moment,
    maxent_profile,
    mutual_information,
)
from .cauchy import (
    Degenerate,
    MultivariateCauchy,
    UnivariateCauchy,
    entropy_multivariate,
    entropy_univariate,
    independent_sum,
    linear_combination,
    pdf_multivariate,
    pdf_univariate,
    phi_constant,
    sample_multivariate,
    sample_univariate,
)
from .fap import (
    ChannelGeometry,
    DriftVector,
    FapPoint,
    arrival_probability,
    fap_density,
    fap_pdf,
    fap_pdf_2d,
    fap_pdf_3d,
    zero_drift_reduction,
)
from .sim import (
    FapSampleSet,
    SimConfig,
    ks_statistic,
    ks_two_sample,
    sample_exact_zero_drift,
    simulate_first_arrival,
)
from .special import bessel_k1, digamma, log_gamma, w2
