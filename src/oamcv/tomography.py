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
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import (CovarianceMatrix, _db_linear, _frozen, _physical, _raise_first,
                       _well_formed, as_cm, checked_matrices, is_integer, real_array,
                       real_or_nan, symplectic_eigenvalues, validate)

SETTINGS = ("Xc", "Yc", "Xp", "Yp", "Xdiff", "Ysum")

# 0 dB reference of each setting (two vacuum modes enter the joint ones)
SNL_REFERENCE = {"Xc": 1.0, "Yc": 1.0, "Xp": 1.0, "Yp": 1.0, "Xdiff": 2.0, "Ysum": 2.0}

_DB_PER_LN = 10.0 / math.log(10.0)
_DB_FIELDS = tuple(setting.lower() + "_db" for setting in SETTINGS)


class ReconstructionWarning(UserWarning):
    """The reconstructed matrix is not a physical Gaussian state."""


@np.errstate(over="ignore", invalid="ignore")
def _variances(sigmas: np.ndarray) -> np.ndarray:
    """Absolute variances of the six settings of each state of a (..., 4, 4) stack, (..., 6);
    a joint variance that overflows is inf (or NaN, from inf - inf), without a warning."""
    s = sigmas
    return np.stack([s[..., 0, 0], s[..., 1, 1], s[..., 2, 2], s[..., 3, 3],
                     s[..., 2, 2] + s[..., 0, 0] - 2.0 * s[..., 0, 2],
                     s[..., 3, 3] + s[..., 1, 1] + 2.0 * s[..., 1, 3]], axis=-1)


def _to_db(variances) -> list:
    """The six absolute variances of a state in dB of each setting's SNL, per element the
    bytes of linear_to_db; each variance must have been checked positive and finite."""
    return [10.0 * math.log10(var / SNL_REFERENCE[setting])
            for setting, var in zip(SETTINGS, variances)]


def _positive_variances(sigmas: np.ndarray) -> np.ndarray:
    """The six variances of each state of a (..., 4, 4) stack, each checked positive and finite."""
    variances = _variances(sigmas)
    bad = ~((variances > 0.0) & (variances < math.inf))
    if bad.any():
        index = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericalError(f"variance of {SETTINGS[index[-1]]} is not positive and finite: "
                             f"{float(variances[index])!r}")
    return variances


def _simulable(raw: np.ndarray) -> np.ndarray:
    """The six variances of each state of a stack: well formed, physical, positive, else raises."""
    sigmas, malformed = _well_formed(raw)
    nu_min = symplectic_eigenvalues(sigmas)[:, 0]
    _raise_first([malformed, (~_physical(nu_min), lambda i: UnphysicalStateError(
        f"cannot simulate an unphysical state (min symplectic {nu_min[i]:.6g}, state {i})"))])
    return _positive_variances(sigmas)


def _child_seeds(seed: int) -> list:
    """The integer seeds of a state's six per-setting generators, derived from its seed."""
    return np.random.SeedSequence(seed).generate_state(len(SETTINGS), np.uint64).tolist()


def _stderr_db(n: int) -> float:
    """dB standard error of a sample variance of n Gaussian draws: Var(s^2) = 2 sigma^4/(n - 1)."""
    return _DB_PER_LN * math.sqrt(2.0 / (n - 1))


def _setting_index(setting) -> int:
    """Position of a setting in SETTINGS; only its exact names are accepted."""
    if not isinstance(setting, str) or setting not in SETTINGS:
        raise InputError(f"unknown setting {setting!r}, expected one of {SETTINGS}")
    return SETTINGS.index(setting)


def setting_variance(cm, setting: str) -> float:
    """Absolute (SNL-unnormalized) variance of one measurement setting."""
    return float(_variances(as_cm(cm).entries)[_setting_index(setting)])


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
        raw = [getattr(self, name) for name in _DB_FIELDS]
        values = [real_or_nan(v) for v in raw]
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"variances must be finite dB values, got {raw}")
        for name, v in zip(_DB_FIELDS, values):
            object.__setattr__(self, name, v)
        if self.stderr_db is not None:
            se = self.stderr_db
            se = tuple(map(real_or_nan, se)) if isinstance(se, (list, tuple)) else ()
            if len(se) != len(SETTINGS) or not all(math.isfinite(x) and x >= 0 for x in se):
                raise InputError("stderr_db must be a list of six finite nonnegative dB values")
            object.__setattr__(self, "stderr_db", se)

    def db(self, setting: str) -> float:
        return getattr(self, _DB_FIELDS[_setting_index(setting)])

    def stderr(self, setting: str) -> Optional[float]:
        index = _setting_index(setting)
        return None if self.stderr_db is None else self.stderr_db[index]

    def absolute_variance(self, setting: str) -> float:
        """Variance in absolute units: the dB value de-normalized by its SNL."""
        return _db_linear(self.db(setting)) * SNL_REFERENCE[setting]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo outcomes of one homodyne setting, reproducible from its seed."""

    setting: str
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        _setting_index(self.setting)
        samples = real_array(self.samples).copy()
        if samples.ndim != 1 or samples.size < 2:
            raise InputError("a batch needs at least 2 scalar samples")
        if not np.all(np.isfinite(samples)):
            raise InputError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", checked_seed(self.seed))


def checked_seed(seed) -> int:
    """A seed as an int: an integer >= 0, not a bool; else InputError."""
    if not is_integer(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def checked_sampling(n_per_setting, seed) -> tuple:
    """(n, seed) as ints: n an integer >= 2 with n - 1 at most the float max, not a bool,
    and checked_seed(seed); else InputError."""
    if (not is_integer(n_per_setting) or n_per_setting < 2
            or n_per_setting - 1 > sys.float_info.max):
        raise InputError(f"n_per_setting must be an integer >= 2, got {n_per_setting!r}")
    return int(n_per_setting), checked_seed(seed)


def simulate_measurements(cm, n_per_setting: int, seed) -> tuple:
    """Draw the six measurement batches for a state, one per setting.

    Each batch holds n zero-mean Gaussian scalars whose true variance is the
    corresponding combination of CM entries.  Per-setting generators are
    seeded from integers derived deterministically from the master seed, so
    batches are mutually independent, reproducible individually from their
    recorded seed, and safe to sample in parallel.
    """
    variances = _simulable(checked_matrices(cm, 2)[None])[0].tolist()
    n, seed = checked_sampling(n_per_setting, seed)
    batches = []
    for setting, true_var, child in zip(SETTINGS, variances, _child_seeds(seed)):
        samples = np.random.default_rng(child).normal(0.0, math.sqrt(true_var), n)
        # finite draws of a finite variance, and a child seed that is a checked int
        batches.append(_frozen(SampleBatch, setting, samples, child))
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
    variances, errs = [], []
    for setting in SETTINGS:
        batch = by_setting[setting]
        with np.errstate(over="ignore", invalid="ignore"):
            var = float(np.var(batch.samples, ddof=1))
        if not 0.0 < var < math.inf:
            raise InputError(f"degenerate batch for {setting!r}: sample variance is "
                             f"{var or 'zero'}")
        variances.append(var)
        errs.append(_stderr_db(batch.samples.size))
    return _frozen(VarianceSet, *_to_db(variances), tuple(errs))


def sampled_variances(sigmas, n_per_setting: int, seeds) -> list:
    """The measured VarianceSet of each state of an (N, 4, 4) stack, one seed per state.

    _sampled_db, checked.  For n Gaussian draws, (n - 1) s^2 / sigma^2 is
    exactly chi^2(n - 1) (Cochran's theorem), so each setting's sample variance
    is one Gamma((n - 1)/2) draw scaled by sigma^2 / ((n - 1)/2): the law of
    variances_from_batches(simulate_measurements(sigma, n, seed)), at a cost
    that does not grow with n.  A state's generators are seeded from the
    per-setting child seeds simulate_measurements uses, so each state is
    reproducible from its own seed; the draws differ from the sample path's.
    Standard errors are those of variances_from_batches.
    """
    raw = checked_matrices(sigmas, 3)
    n, _ = checked_sampling(n_per_setting, 0)  # the seeds are checked one by one
    seeds = [checked_seed(seed) for seed in seeds]
    if len(seeds) != len(raw):
        raise InputError(f"{len(raw)} states need {len(raw)} seeds, got {len(seeds)}")
    errs = (_stderr_db(n),) * len(SETTINGS)
    return [_frozen(VarianceSet, *row, errs)
            for row in _sampled_db(_simulable(raw).tolist(), n, seeds)]


def _sampled_db(variances: list, n: int, seeds: list):
    """Yield the six sampled dB values of each state, from its row of six checked variances
    and its seed: sampled_variances without its checks, each draw checked in (0, inf)."""
    shape = (n - 1) / 2.0
    for row, seed in zip(variances, seeds):
        draws = [np.random.default_rng(child).standard_gamma(shape) * var / shape
                 for var, child in zip(row, _child_seeds(seed))]
        if not all(0.0 < draw < math.inf for draw in draws):
            raise NumericalError(f"a sampled variance is not in (0, inf): {draws!r} (seed {seed})")
        yield _to_db(draws)


def expected_variances(cm) -> VarianceSet:
    """Noise-free VarianceSet computed directly from the CM, no sampling."""
    return _frozen(VarianceSet, *_to_db(_positive_variances(as_cm(cm).entries).tolist()), None)


def covariance_from_sum(var_sum: float, var_i: float, var_j: float) -> float:
    """Cov(xi_i, xi_j) from the variance of xi_i + xi_j, all in absolute units."""
    return 0.5 * (var_sum - var_i - var_j)


def covariance_from_difference(var_diff: float, var_i: float, var_j: float) -> float:
    """Cov(xi_i, xi_j) from the variance of xi_i - xi_j, all in absolute units."""
    return -0.5 * (var_diff - var_i - var_j)


def _reconstruct(db_rows) -> np.ndarray:
    """reconstruct_cm's matrix of each row of six dB values in SETTINGS order, (N, 4, 4).

    The diagonal holds the single-mode variances, X-X and Y-Y covariances come
    from the difference and sum forms of the joint variances (de-normalized
    from the two-mode SNL first), and the unmeasured X-Y terms are zero.
    """
    # absolute_variance per element, whose scalar 10.0 ** the outputs depend on
    rows = [[_db_linear(db) * SNL_REFERENCE[s] for s, db in zip(SETTINGS, row)] for row in db_rows]
    xc, yc, xp, yp, xdiff, ysum = np.array(rows).reshape(-1, 6).T
    m = np.zeros((len(xc), 4, 4))
    m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 3, 3] = xc, yc, xp, yp
    m[:, 0, 2] = m[:, 2, 0] = covariance_from_difference(xdiff, xp, xc)
    m[:, 1, 3] = m[:, 3, 1] = covariance_from_sum(ysum, yp, yc)
    return m


def reconstruct_cm(vs: VarianceSet) -> CovarianceMatrix:
    """Covariance matrix from the six measured variances: _reconstruct of one.

    A result that fails validate() is reported with a ReconstructionWarning
    rather than an error, since measured data may be marginally unphysical.
    """
    if not isinstance(vs, VarianceSet):
        raise InputError(f"expected VarianceSet, got {type(vs).__name__}")
    cm = CovarianceMatrix(_reconstruct([[vs.db(s) for s in SETTINGS]])[0])
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
    """Read a VarianceSet written by write_variances_csv; any other content is an InputError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["setting", "db", "stderr_db"]:
            raise InputError(f"bad variance CSV header {header!r}")
        rows = [row for row in reader if row]
    by_setting = {row[0]: row for row in rows if len(row) == 3}
    # six rows covering the six settings: no row short, long, repeated or unknown
    if len(rows) != len(SETTINGS) or set(by_setting) != set(SETTINGS):
        raise InputError(f"variance CSV needs a 3-field row per setting {SETTINGS}, got {rows}")
    raw_errs = [by_setting[s][2] for s in SETTINGS]
    if "" in raw_errs and any(raw_errs):
        raise InputError("stderr_db must be given for all settings or none")
    try:
        dbs = [float(by_setting[s][1]) for s in SETTINGS]
        errs = tuple(map(float, raw_errs)) if any(raw_errs) else None
    except ValueError as exc:
        raise InputError(f"variance CSV values must be numbers: {exc}") from exc
    return VarianceSet(*dbs, stderr_db=errs)


def write_batch_csv(batch: SampleBatch, path) -> None:
    """Export one batch as a single-column CSV headed by its setting name."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([batch.setting])
        for x in batch.samples:
            writer.writerow([repr(float(x))])
