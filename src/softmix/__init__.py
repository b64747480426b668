"""Gradient EM for fitting k parametric functions under a soft-min loss."""

from .data import DataSet, ParamSet
from .datagen import GenSpec, generate
from .em import ConvergenceTrace, EMConfig, gradient_em_step, partition_dataset, run_gradient_em
from .losses import CertificationError, LossModel, certify, default_step_size
from .softmin import SoftMinConfig, empirical_loss, soft_min_weights
from .theory import (
    ProblemConstants,
    TheoremQuantities,
    compute_contraction,
    compute_error_floor,
    compute_eta,
    compute_eta_prime,
    estimate_constants,
    partition_regions,
    predicted_distance_bound,
    theorem_quantities,
)
from .verify import (
    GridSpec,
    LemmaReport,
    brute_force_minimize,
    check_lemma_bounds,
    finite_diff_gradient,
    step_decomposition,
)

__version__ = "0.1.0"
