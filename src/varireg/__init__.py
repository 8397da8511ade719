"""Tuning-free registration of warped functional data.

Separates phase from amplitude variation by matching the distribution of
each curve's local variation; covers complete, discrete, and noisy
observation regimes, with simulators and misspecification diagnostics.
"""

from .diagnostics import (
    RateCheckResult,
    RegistrationReport,
    evaluate_against_truth,
    rate_check,
    z_statistic,
)
from .errors import (
    AllCandidatesSingular,
    EmptySample,
    EmptyWindow,
    GridMismatch,
    NonMonotoneInput,
    NonSymmetric,
    NotRankOne,
    SingularFit,
    VariregError,
    ZeroVariation,
)
from .fpca import (
    EigenDecomposition,
    covariance_matrix,
    cross_sectional_mean,
    leading_eigenpairs,
    row_eigenpairs,
    scores,
)
from .registration import (
    NoisyOptions,
    RegisterOptions,
    RegistrationResult,
    WarpMap,
    estimate_warps_discrete,
    register_complete,
    register_discrete,
    register_noisy,
)
from .simulate import (
    LatentModelConfig,
    TruthBundle,
    WarpLawConfig,
    counterexample_pair,
    make_truth_bundle,
    observe,
    sample_latent,
    sample_warp,
    substream,
    true_variation_cdf,
)
from .variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    VariationSummary,
    discrete_variation_cdf,
    generalized_inverse,
    quantile_to_cdf,
    wasserstein2,
)

__version__ = "0.1.0"
