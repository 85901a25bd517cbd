"""Six-setting balanced-homodyne simulation and covariance reconstruction.

The protocol measures the four single quadrature variances of the conjugate
and probe modes plus the variances of the joint quadratures X_Pr - X_Conj
and Y_Pr + Y_Conj, each setting in a separate run.  Single-mode settings
are normalized to the one-mode SNL (1); joint settings to the two-mode SNL
(2), which is the normalization under which -3.3 dB corresponds to a joint
variance of 0.47 per shot-noise unit.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import CovarianceMatrix, as_cm, validate

SETTINGS = ("Xc", "Yc", "Xp", "Yp", "Xdiff", "Ysum")

# 0 dB reference of each setting (two vacuum modes enter the joint ones)
SNL_REFERENCE = {"Xc": 1.0, "Yc": 1.0, "Xp": 1.0, "Yp": 1.0, "Xdiff": 2.0, "Ysum": 2.0}

_DB_PER_LN = 10.0 / math.log(10.0)
_DB_FIELDS = tuple(setting.lower() + "_db" for setting in SETTINGS)


class ReconstructionWarning(UserWarning):
    """The reconstructed matrix is not a physical Gaussian state."""


def _variances(cm: CovarianceMatrix) -> tuple:
    """Absolute variances of the six settings of a state, in SETTINGS order."""
    s = cm.entries
    return (float(s[0, 0]), float(s[1, 1]), float(s[2, 2]), float(s[3, 3]),
            float(s[2, 2] + s[0, 0] - 2.0 * s[0, 2]), float(s[3, 3] + s[1, 1] + 2.0 * s[1, 3]))


def _positive_variances(cm: CovarianceMatrix) -> tuple:
    """The six variances of a state, each checked positive."""
    variances = _variances(cm)
    for setting, var in zip(SETTINGS, variances):
        if var <= 0.0:
            raise NumericalError(f"variance of {setting} is not positive: {var!r}")
    return variances


def _setting_index(setting) -> int:
    """Position of a setting in SETTINGS; only its exact names are accepted."""
    if not isinstance(setting, str) or setting not in SETTINGS:
        raise InputError(f"unknown setting {setting!r}, expected one of {SETTINGS}")
    return SETTINGS.index(setting)


def setting_variance(cm, setting: str) -> float:
    """Absolute (SNL-unnormalized) variance of one measurement setting."""
    cm = as_cm(cm)
    return _variances(cm)[_setting_index(setting)]


@dataclass(frozen=True)
class VarianceSet:
    """The six measured noise variances, in dB relative to the matching SNL."""

    xc_db: float
    yc_db: float
    xp_db: float
    yp_db: float
    xdiff_db: float
    ysum_db: float
    stderr_db: Optional[tuple] = None

    def __post_init__(self):
        values = [float(getattr(self, name)) for name in _DB_FIELDS]
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"variances must be finite dB values, got {values}")
        for name, v in zip(_DB_FIELDS, values):
            object.__setattr__(self, name, v)
        if self.stderr_db is not None:
            se = tuple(float(x) for x in self.stderr_db)
            if len(se) != len(SETTINGS) or not all(math.isfinite(x) and x >= 0 for x in se):
                raise InputError("stderr_db must be six finite nonnegative dB values")
            object.__setattr__(self, "stderr_db", se)

    def db(self, setting: str) -> float:
        return getattr(self, _DB_FIELDS[_setting_index(setting)])

    def stderr(self, setting: str) -> Optional[float]:
        index = _setting_index(setting)
        return None if self.stderr_db is None else self.stderr_db[index]

    def absolute_variance(self, setting: str) -> float:
        """Variance in absolute units: the dB value de-normalized by its SNL."""
        return 10.0 ** (self.db(setting) / 10.0) * SNL_REFERENCE[setting]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo outcomes of one homodyne setting, reproducible from its seed."""

    setting: str
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        _setting_index(self.setting)
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise InputError("a batch needs at least 2 scalar samples")
        if not np.all(np.isfinite(samples)):
            raise InputError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", int(self.seed))


def simulate_measurements(cm, n_per_setting: int, seed) -> tuple:
    """Draw the six measurement batches for a state, one per setting.

    Each batch holds n zero-mean Gaussian scalars whose true variance is the
    corresponding combination of CM entries.  Per-setting generators are
    seeded from integers derived deterministically from the master seed, so
    batches are mutually independent, reproducible individually from their
    recorded seed, and safe to sample in parallel.
    """
    cm = as_cm(cm)
    report = validate(cm)
    if not report.ok:
        raise UnphysicalStateError(
            f"cannot simulate an unphysical state (min symplectic {report.min_symplectic:.6g})")
    n = int(n_per_setting)
    if n < 2:
        raise InputError(f"n_per_setting must be >= 2, got {n_per_setting!r}")
    variances = _positive_variances(cm)
    child_seeds = np.random.SeedSequence(seed).generate_state(len(SETTINGS), np.uint64)
    batches = []
    for setting, true_var, child in zip(SETTINGS, variances, child_seeds):
        rng = np.random.default_rng(int(child))
        batches.append(SampleBatch(setting, rng.normal(0.0, math.sqrt(true_var), n), int(child)))
    return tuple(batches)


def variances_from_batches(batches: Iterable[SampleBatch]) -> VarianceSet:
    """Unbiased sample variances of the six batches, in dB with standard errors.

    Accepts the batches in any order (one per setting).  Standard errors use
    Var(s^2) = 2 sigma^4/(n - 1) for Gaussian data, which propagates to a
    variance-independent dB error of (10/ln 10) sqrt(2/(n - 1)).
    """
    by_setting = {}
    for batch in batches:
        if not isinstance(batch, SampleBatch):
            raise InputError(f"expected SampleBatch, got {type(batch).__name__}")
        if batch.setting in by_setting:
            raise InputError(f"duplicate batch for setting {batch.setting!r}")
        by_setting[batch.setting] = batch
    missing = set(SETTINGS) - set(by_setting)
    if missing:
        raise InputError(f"missing batches for settings {sorted(missing)}")
    dbs, errs = [], []
    for setting in SETTINGS:
        batch = by_setting[setting]
        var = float(np.var(batch.samples, ddof=1))
        if var <= 0.0:
            raise InputError(f"degenerate batch for {setting!r}: sample variance is zero")
        dbs.append(10.0 * math.log10(var / SNL_REFERENCE[setting]))
        errs.append(_DB_PER_LN * math.sqrt(2.0 / (batch.samples.size - 1)))
    return VarianceSet(*dbs, stderr_db=tuple(errs))


def expected_variances(cm) -> VarianceSet:
    """Noise-free VarianceSet computed directly from the CM, no sampling."""
    variances = _positive_variances(as_cm(cm))
    return VarianceSet(*(10.0 * math.log10(var / SNL_REFERENCE[setting])
                         for setting, var in zip(SETTINGS, variances)))


def covariance_from_sum(var_sum: float, var_i: float, var_j: float) -> float:
    """Cov(xi_i, xi_j) from the variance of xi_i + xi_j, all in absolute units."""
    return 0.5 * (var_sum - var_i - var_j)


def covariance_from_difference(var_diff: float, var_i: float, var_j: float) -> float:
    """Cov(xi_i, xi_j) from the variance of xi_i - xi_j, all in absolute units."""
    return -0.5 * (var_diff - var_i - var_j)


def reconstruct_cm(vs: VarianceSet) -> CovarianceMatrix:
    """Covariance matrix from the six measured variances.

    The diagonal comes from the linearized single-mode variances; the X-X
    covariance from the difference form and the Y-Y covariance from the sum
    form, with joint variances de-normalized from the two-mode SNL first.
    The unmeasured X-Y cross terms are structurally zero.  A result that
    fails the physicality check is reported with a ReconstructionWarning
    rather than an error, since measured data may be marginally unphysical.
    """
    if not isinstance(vs, VarianceSet):
        raise InputError(f"expected VarianceSet, got {type(vs).__name__}")
    xc, yc = vs.absolute_variance("Xc"), vs.absolute_variance("Yc")
    xp, yp = vs.absolute_variance("Xp"), vs.absolute_variance("Yp")
    m = np.zeros((4, 4))
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = xc, yc, xp, yp
    m[0, 2] = m[2, 0] = covariance_from_difference(vs.absolute_variance("Xdiff"), xp, xc)
    m[1, 3] = m[3, 1] = covariance_from_sum(vs.absolute_variance("Ysum"), yp, yc)
    cm = CovarianceMatrix(m)
    report = validate(cm)
    if not report.ok:
        warnings.warn(
            f"reconstructed matrix is unphysical (min symplectic {report.min_symplectic:.6g})",
            ReconstructionWarning, stacklevel=2)
    return cm


def write_variances_csv(vs: VarianceSet, path) -> None:
    """Write a VarianceSet as CSV rows `setting,db,stderr_db` in protocol order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "db", "stderr_db"])
        for setting in SETTINGS:
            err = vs.stderr(setting)
            writer.writerow([setting, repr(vs.db(setting)), "" if err is None else repr(err)])


def read_variances_csv(path) -> VarianceSet:
    """Read a VarianceSet written by write_variances_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["setting", "db", "stderr_db"]:
            raise InputError(f"bad variance CSV header {header!r}")
        rows = {row[0]: row for row in reader if row}
    missing = set(SETTINGS) - set(rows)
    if missing:
        raise InputError(f"variance CSV is missing settings {sorted(missing)}")
    dbs = [float(rows[s][1]) for s in SETTINGS]
    raw_errs = [rows[s][2] for s in SETTINGS]
    if all(e == "" for e in raw_errs):
        errs = None
    elif any(e == "" for e in raw_errs):
        raise InputError("stderr_db must be given for all settings or none")
    else:
        errs = tuple(float(e) for e in raw_errs)
    return VarianceSet(*dbs, stderr_db=errs)


def write_batch_csv(batch: SampleBatch, path) -> None:
    """Export one batch as a single-column CSV headed by its setting name."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([batch.setting])
        for x in batch.samples:
            writer.writerow([repr(float(x))])
