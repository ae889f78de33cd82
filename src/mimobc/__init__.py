"""Capacity region of the degraded Gaussian vector broadcast channel, plus
a numerical verifier for the Fisher-information converse machinery."""

from .errors import (
    DimensionMismatchError,
    InadmissibleSourceError,
    InputFormatError,
    LoewnerOrderError,
    NotPsdError,
    NumericalError,
    SingularMatrixError,
)
from .matrices import (
    is_psd,
    loewner_leq,
    logdet,
    matrix_line_integral,
    sqrt_psd,
    symmetrize,
)
from .model import (
    BroadcastChannel,
    MarkovHierarchy,
    MixtureSource,
    aggregate_covariance,
    coarsen,
    gaussian_entropy,
)
from .region import (
    CovarianceSplit,
    OptimizerConfig,
    decoupled_boundary,
    grid_oracle,
    rate_tuple,
    trace_boundary,
    weighted_sum_rate,
)
from .report import Residual, VerificationReport, WalkthroughReport

__version__ = "0.1.0"
