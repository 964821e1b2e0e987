"""Population synthesis by k-nearest-neighbor REX crossover kernels.

Reconstructs a full population from a small sample: kernel density
resampling where each output point comes from a fresh crossover kernel
built on a random subset of a sample point's k nearest neighbors, plus
baselines, marginal-frequency bias correction, and the binned-Hellinger
evaluation protocol.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticsReport,
    DensityModel,
    asymptotics_report,
    ball_cov_mc,
    ball_cov_theory,
    linear_model,
    uniform_model,
)
from .datagen import GmmSpec, gen_gmm, gen_ring, gen_swiss_roll
from .dataio import PointSet, read_marginals_csv, read_points_csv, write_points_csv
from .errors import (
    BadParams,
    BadSpec,
    CsvFormatError,
    DegenerateVariance,
    DimensionMismatch,
    EmptyData,
    EmptyKcs,
    EmptySample,
    InconsistentMarginals,
    KnnRexError,
    KTooLarge,
    NonFiniteSample,
    RejectionStall,
    SingularCovariance,
    SingularSigma,
    StallLimit,
    TooFewPoints,
    ZeroDensity,
)
from .estimators import (
    EstimatorConfig,
    KmModel,
    MarginalSpec,
    PointStream,
    km_fit,
    km_loglik,
    km_synth,
    suggest_params,
    synth_bias_corrected,
    synth_bmp,
    synth_fixed_gaussian,
    synth_knn_rex,
    synthesis_stream,
    synthesize,
)
from .evaluation import BinningSpec, IcvReport, hellinger, icv_run, icv_sweep, make_binning, welch_t
from .kernels import KcsStats, kcs_stats, rex_density, rex_log_density, rex_sample, rex_samples
from .knn import KnnIndex, build_knn, query_neighbors
from .whiten import WhitenTransform, whiten_apply, whiten_fit, whiten_invert
