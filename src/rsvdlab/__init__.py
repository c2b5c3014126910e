"""Randomized-SVD laboratory.

Repeated-sampling randomized SVD with power iterations, subspace
distances, signal-plus-noise generators, downstream applications
(spectral clustering, matrix completion with entrywise confidence
intervals, missing-data PCA), closed-form predictions of the theory, and a
deterministic Monte-Carlo experiment harness.
"""

from .rng import RngStream, gaussian_matrix, stable_hash64
from .linalg import (
    RankDeficiencyError,
    SpectrumPair,
    svd_thin,
    sym_eig,
)
from .sketch import (
    RsvdOutput,
    SketchConfig,
    rs_rsvd_asym,
    rs_rsvd_sym,
    rs_rsvd_sym_chain,
)
from .subspace import AlignmentResult, procrustes_align
from .models import (
    CompletionInstance,
    MissingPcaInstance,
    SbmInstance,
    gen_completion,
    gen_edm,
    gen_missing_pca,
    gen_sbm,
)
from .applications import (
    ClusteringResult,
    CompletionResult,
    EntryCI,
    complete,
    entry_ci_batch,
    exact_complete,
    match_labels,
    rsvd_complete,
    rsvd_missing_pca,
    rsvd_spectral_cluster,
)
from .theory import RateModel, RateVerdict, rate_exponent
from .harness import (
    ExperimentPlan,
    ReplicateRecord,
    ellipse_coverage,
    emit_csv,
    load_plan,
    rate_regression,
    rate_slopes,
    run_plan,
)

__version__ = "0.1.0"
