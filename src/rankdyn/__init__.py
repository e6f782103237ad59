"""Cross-sectional rank dynamics for densely observed functional data.

Curves are turned into rank trajectories (empirical or kernel-smoothed),
each subject's rank derivative is split into a population component and an
individual component, and a handful of summary statistics quantify how
much subjects mix over time.  Bandwidths come from leave-one-out
cross-validation, and a Gaussian simulation model with closed-form truths
verifies the whole stack.
"""

from .bandwidth import BandwidthGrid, CvEntry, CvReport, cv_objective, select_bandwidths
from .dynamics import (
    ComponentContributions,
    DecompositionResult,
    contributions,
    decompose,
    decompose_many,
    estimate_partials,
)
from .errors import (
    BoundaryError,
    CsvFormatError,
    DataError,
    DegenerateSampleError,
    DomainError,
    DuplicateTimeError,
    EvaluationError,
    GridMismatchError,
    InsufficientDataError,
)
from .kernels import BIWEIGHT, EPANECHNIKOV, Biweight, Epanechnikov, Kernel, get_kernel
from .ranks import (
    Bandwidths,
    RankTrajectories,
    default_bandwidths,
    empirical_ranks,
    smooth_cdf,
    smooth_ranks,
)
from .sample import (
    FunctionalSample,
    SmoothedSample,
    default_presmooth_bandwidth,
    load_long_csv,
    load_wide_csv,
    pooled_std,
    presmooth,
)
from .simulation import (
    MonteCarloReport,
    MonteCarloRow,
    SimModel,
    SimSample,
    generate_sample,
    mise,
    model_pooled_std,
    run_monte_carlo,
    true_values,
)
from .summaries import (
    PopulationSummary,
    SubjectSummary,
    population_summaries,
    subject_summaries,
)

__version__ = "0.1.0"
