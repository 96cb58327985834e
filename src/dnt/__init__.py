"""Distance-based normality testing from Q-Q plots.

The pipeline renders a sample's normal Q-Q plot, extracts features,
and measures the squared learned-metric distance to a null centroid;
rejection cutoffs come from Monte-Carlo calibration. Classical tests
(KS, AD, JB, GLB, GG, BS) and image-similarity baselines (PSNR, SSIM)
share the same calibration and power-study harness.
"""

from .classical import (
    TestStatistic,
    ad_statistic,
    bs_statistic,
    gg_statistic,
    glb_statistic,
    jb_statistic,
    ks_statistic,
)
from .engine import (
    DNTModel,
    TestReport,
    TrainConfig,
    calibrate_cutoff,
    dnt_test,
    load_model,
    save_model,
    train,
)
from .errors import (
    ConfigError,
    DntError,
    FormatError,
    InsufficientDataError,
    InvalidArgumentError,
    ModelMismatchError,
    TrainingError,
    UnsupportedVersionError,
)
from .features import SelectionModel, extract_image, extract_raw, fit_selection
from .imagesim import SimilarityReference, SimilarityScore, psnr, ssim
from .lmnn import (
    LmnnConfig,
    MetricMatrix,
    TripletSet,
    build_triplets,
    mahalanobis_distance,
    train_metric,
)
from .normal import normal_cdf, normal_quantile
from .power import PowerTable, RunConfig, emit_table, parse_table, run_power_study
from .qq import QQPoints, QQRaster, ideal_points, plotting_positions, qq_points, rasterize, to_pgm
from .sampling import (
    DistributionSpec,
    Sample,
    SeedScheme,
    benchmark_cases,
    case_spec,
    parse_distribution_label,
    sample,
    sample_moments,
    standardize,
)

__version__ = "0.1.0"
