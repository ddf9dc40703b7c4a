"""faplab: first-arrival-position diffusion channels.

Analytic arrival densities with drift and their heavy-tailed zero-drift
limits, exact and Euler first-passage samplers, dispersion-constrained
entropy machinery, and the closed-form channel capacities they verify.

The public names below are imported from their modules on first access
(PEP 562), so ``import faplab`` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": (
        "CapacityResult",
        "ConstraintSpec",
        "DispersionLevel",
        "EntropyEstimate",
        "InfeasibleError",
        "MaxentProfile",
        "capacity_closed_form",
        "capacity_table",
        "dispersion_of",
        "entropy_estimate",
        "feasibility",
        "log_moment",
        "maxent_profile",
        "mutual_information",
    ),
    "cauchy": (
        "Degenerate",
        "MultivariateCauchy",
        "UnivariateCauchy",
        "entropy_multivariate",
        "entropy_univariate",
        "independent_sum",
        "linear_combination",
        "pdf_multivariate",
        "pdf_univariate",
        "phi_constant",
        "sample_multivariate",
        "sample_univariate",
    ),
    "fap": (
        "ChannelGeometry",
        "DriftVector",
        "FapPoint",
        "arrival_probability",
        "fap_density",
        "fap_pdf",
        "fap_pdf_2d",
        "fap_pdf_3d",
        "zero_drift_reduction",
    ),
    "sim": (
        "FapSampleSet",
        "SimConfig",
        "ks_statistic",
        "ks_two_sample",
        "sample_exact_zero_drift",
        "simulate_first_arrival",
    ),
    "special": ("digamma", "log_gamma", "w2"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
