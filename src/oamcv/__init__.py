"""Gaussian-state toolkit for OAM-multiplexed continuous-variable entanglement.

Covers source states in the covariance-matrix picture, lossy and noisy
channel distribution, PPT-entanglement and Gaussian-steering certification
with sudden-death thresholds, a six-setting homodyne tomography simulator,
and Laguerre-Gaussian beam diagnostics.
"""

__version__ = "0.1.0"

from .channels import apply_channel, apply_channel_grid, apply_channel_multiplexed
from .criteria import (CriteriaArrays, CriteriaReport, classify, classify_many,
                       entanglement_death_eta, ppt_nu, ppt_nu_closed_form, ppt_nu_eigen,
                       source_criteria, steering, steering_death_eta,
                       steering_death_eta_ba_lossy)
from .errors import (InputError, NumericalError, ResolutionError, ToolkitError,
                     UnphysicalStateError)
from .gaussian import (ChannelParams, CovarianceMatrix, Decibel, ModePair,
                       MultiplexedState, SqueezingSpec, ValidityReport, db_to_linear,
                       linear_to_db, make_multiplexed, make_tmss,
                       symplectic_eigenvalues, validate)
from .modes import (FieldGrid, IntensityGrid, LGModeSpec, StripeCount,
                    count_dark_stripes, lg_field, lg_images, tilted_lens_pattern, write_pgm)
from .tomography import (ReconstructionWarning, SampleBatch, VarianceSet,
                         expected_variances, read_variances_csv, reconstruct_cm,
                         sampled_variances, simulate_measurements, variances_from_batches,
                         write_batch_csv, write_variances_csv)

__all__ = [
    "__version__",
    # errors
    "ToolkitError", "InputError", "UnphysicalStateError", "NumericalError",
    "ResolutionError",
    # gaussian core
    "CovarianceMatrix", "SqueezingSpec", "ChannelParams", "MultiplexedState",
    "ModePair", "Decibel", "ValidityReport", "make_tmss", "make_multiplexed",
    "db_to_linear", "linear_to_db", "validate", "symplectic_eigenvalues",
    # channels
    "apply_channel", "apply_channel_grid", "apply_channel_multiplexed",
    # criteria
    "CriteriaReport", "CriteriaArrays", "ppt_nu", "ppt_nu_closed_form", "ppt_nu_eigen",
    "steering", "classify", "classify_many", "entanglement_death_eta", "steering_death_eta",
    "steering_death_eta_ba_lossy", "source_criteria",
    # tomography
    "VarianceSet", "SampleBatch", "ReconstructionWarning", "simulate_measurements",
    "variances_from_batches", "sampled_variances", "reconstruct_cm", "expected_variances",
    "write_variances_csv", "read_variances_csv", "write_batch_csv",
    # modes
    "LGModeSpec", "FieldGrid", "IntensityGrid", "StripeCount", "lg_field", "lg_images",
    "tilted_lens_pattern", "count_dark_stripes", "write_pgm",
]
