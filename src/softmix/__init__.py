"""Gradient EM for fitting k parametric functions under a soft-min loss.

The top level holds README's library quick start and the types its calls
return or raise; every other name is in its submodule.
"""

from .data import DataSet, ParamSet
from .datagen import GenSpec, generate
from .em import ConvergenceTrace, EMConfig, run_gradient_em
from .losses import CertificationError, LossModel, certify, default_step_size

__version__ = "0.1.0"
