"""Two-mode Gaussian states in the covariance-matrix picture.

Quadrature convention: X = a + a^dag, Y = (a - a^dag)/i, so the vacuum
variance is 1 and the shot-noise level (SNL) is 1 per mode.  The mode
order is fixed as (X_Conj, Y_Conj, X_Pr, Y_Pr): the conjugate mode is
kept by Alice, the probe mode is the one sent through the channel to Bob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError

MODE_ORDER = ("Xc", "Yc", "Xp", "Yp")

SYMMETRY_TOL = 1e-9
PHYSICALITY_TOL = 1e-6

# two-mode symplectic form, block diagonal of [[0, 1], [-1, 0]]
OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 0.0]])
OMEGA.flags.writeable = False

_I2 = np.eye(2)
_Z2 = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class Decibel:
    """A value in dB relative to the applicable shot-noise level."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise InputError(f"dB value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", value)

    @property
    def linear(self) -> float:
        return 10.0 ** (self.value / 10.0)


def db_to_linear(x) -> float:
    """Linear power ratio 10^(x/10) of a Decibel or plain dB float."""
    return (x if isinstance(x, Decibel) else Decibel(x)).linear


def linear_to_db(v) -> Decibel:
    """dB value of a positive linear ratio; exact inverse of db_to_linear."""
    v = float(v)
    if not math.isfinite(v) or v <= 0.0:
        raise InputError(f"linear value must be positive and finite, got {v!r}")
    return Decibel(10.0 * math.log10(v))


@dataclass(frozen=True)
class SqueezingSpec:
    """Squeezed (v) and anti-squeezed (vp) joint-quadrature variances of a source.

    v*vp = 1 characterizes a pure two-mode squeezed state; v*vp > 1 a source
    degraded by internal loss or noise.  The two variances are swapped at
    construction if given in the wrong order, so v <= vp always holds.
    """

    v: float
    vp: float

    def __post_init__(self):
        try:
            v, vp = float(self.v), float(self.vp)
        except (TypeError, ValueError) as exc:
            raise InputError(f"variances must be numbers, got ({self.v!r}, {self.vp!r})") from exc
        if not (math.isfinite(v) and math.isfinite(vp)) or v <= 0.0 or vp <= 0.0:
            raise InputError(
                f"variances must be positive and finite, got ({self.v!r}, {self.vp!r})")
        if v > vp:
            v, vp = vp, v
        if v * vp < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalStateError(
                f"V*V' = {v * vp:.6g} < 1: both joint variances below vacuum is unphysical")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vp", vp)

    @classmethod
    def from_r(cls, r: float) -> "SqueezingSpec":
        """Pure-state spec with v = e^{-2r}, vp = e^{2r} for squeezing parameter r >= 0."""
        r = float(r)
        if not math.isfinite(r) or r < 0.0:
            raise InputError(f"squeezing parameter must be >= 0, got {r!r}")
        return cls(v=math.exp(-2.0 * r), vp=math.exp(2.0 * r))

    def to_json_dict(self) -> dict:
        return {"v": self.v, "vp": self.vp}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SqueezingSpec":
        if "r" in d:
            extra = set(d) - {"r"}
            if extra:
                raise InputError(f"spec with 'r' cannot also have {sorted(extra)}")
            return cls.from_r(d["r"])
        if set(d) != {"v", "vp"}:
            raise InputError(f"spec needs keys v and vp (or r), got {sorted(d)}")
        return cls(v=d["v"], vp=d["vp"])


@dataclass(frozen=True)
class ChannelParams:
    """Transmission efficiency eta and excess noise delta of the probe channel.

    delta is in shot-noise units: delta = 0 is a purely lossy channel, and
    delta = 1 means the injected noise sits 3 dB above the SNL.
    """

    eta: float
    delta: float = 0.0

    def __post_init__(self):
        eta = float(self.eta)
        if not math.isfinite(eta) or not 0.0 <= eta <= 1.0:
            raise InputError(f"eta must lie in [0, 1], got {self.eta!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "delta", checked_delta(self.delta))


def checked_delta(delta) -> float:
    """Excess noise delta as a float; anything but a finite number >= 0 is an InputError."""
    try:
        if math.isfinite(value := float(delta)) and value >= 0.0:
            return value
    except (TypeError, ValueError):
        pass
    raise InputError(f"delta must be >= 0, got {delta!r}")


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """4x4 symmetric covariance matrix in the fixed (Xc, Yc, Xp, Yp) order.

    Construction symmetrizes the entries exactly and freezes them.  Validity
    beyond symmetry (the uncertainty bound sigma + i*Omega >= 0) is checked
    by validate(), which returns a report instead of raising, because
    reconstructed experimental matrices may be marginally unphysical.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise InputError(f"covariance matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("covariance matrix entries must be finite")
        defect = float(np.max(np.abs(m - m.T)))
        if defect > 1e-6:
            raise InputError(f"matrix is not symmetric (max |s_ij - s_ji| = {defect:.3g})")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def conj_block(self) -> np.ndarray:
        """2x2 block of Alice's (conjugate) mode, sigma_A."""
        return self.entries[:2, :2]

    @property
    def pr_block(self) -> np.ndarray:
        """2x2 block of Bob's (probe) mode, sigma_B."""
        return self.entries[2:, 2:]

    @property
    def cross_block(self) -> np.ndarray:
        """2x2 conjugate-probe correlation block."""
        return self.entries[:2, 2:]

    def to_json_dict(self) -> dict:
        return {"order": list(MODE_ORDER), "matrix": self.entries.tolist()}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "CovarianceMatrix":
        if set(d) != {"order", "matrix"}:
            raise InputError(f"covariance JSON needs keys order and matrix, got {sorted(d)}")
        if tuple(d["order"]) != MODE_ORDER:
            raise InputError(f"unsupported mode order {d['order']!r}, expected {list(MODE_ORDER)}")
        return cls(np.array(d["matrix"], dtype=float))


def as_cm(obj) -> CovarianceMatrix:
    """Coerce a CovarianceMatrix or any 4x4 array-like into a CovarianceMatrix."""
    return obj if isinstance(obj, CovarianceMatrix) else CovarianceMatrix(obj)


def as_spec(obj) -> SqueezingSpec:
    """Coerce a SqueezingSpec or a (v, vp) pair into a SqueezingSpec."""
    return obj if isinstance(obj, SqueezingSpec) else SqueezingSpec(*obj)


def symplectic_eigenvalues(matrix) -> np.ndarray:
    """The two symplectic eigenvalues of a 4x4 CM, ascending; (nan, nan) if it is not PD.

    With sigma = L L^T (Cholesky), i L^T Omega L is Hermitian and similar to
    i Omega sigma, so its eigenvalues are -nu2, -nu1, nu1, nu2 (Williamson
    1936).  A stack of shape (..., 4, 4) gives one pair per matrix, (..., 2).
    """
    m = matrix.entries if isinstance(matrix, CovarianceMatrix) else np.asarray(matrix, dtype=float)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:  # one matrix that is not PD fails the whole stack
        if m.ndim == 2:
            return np.full(2, np.nan)
        nus = [symplectic_eigenvalues(x) for x in m.reshape(-1, 4, 4)]
        return np.array(nus).reshape(*m.shape[:-2], 2)
    return np.linalg.eigvalsh(1j * (chol.swapaxes(-1, -2) @ OMEGA @ chol))[..., 2:]


@np.errstate(all="ignore")
def _invariants(sigma: np.ndarray) -> tuple:
    """(Dt, det sigma, det A, det B) per state, Dt = det A + det B - 2 det C; silent overflow."""
    det_a = np.linalg.det(sigma[:, :2, :2])
    det_b = np.linalg.det(sigma[:, 2:, 2:])
    det_c = np.linalg.det(sigma[:, :2, 2:])
    return det_a + det_b - 2.0 * det_c, np.linalg.det(sigma), det_a, det_b


def _finite_check(dt, det_sigma, det_a, det_b) -> tuple:
    """The check that every invariant is finite; the later checks compare False on NaN."""
    finite = np.isfinite(dt) & np.isfinite(det_sigma) & np.isfinite(det_a) & np.isfinite(det_b)
    return (~finite, lambda i: NumericalError(
        f"state invariants are not finite (Dt = {float(dt[i])!r}, "
        f"det sigma = {float(det_sigma[i])!r})"))


def _raise_first_failure(checks: list) -> None:
    """Raise the error of the first state that fails any check.

    checks holds (mask, error) pairs in check order, and error(i) gives the
    exception of state i (the malformed check's raises as_cm's own), so a
    state failing several checks gets its first one's error.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        first = int(np.argmax(failed))
        raise next(error(first) for mask, error in checks if mask[first])


@dataclass(frozen=True)
class ValidityReport:
    """Symmetry and physicality diagnostics of a candidate covariance matrix."""

    symmetry_defect: float
    min_symplectic: float
    symmetric: bool
    physical: bool

    @property
    def ok(self) -> bool:
        return self.symmetric and self.physical


def validate(candidate) -> ValidityReport:
    """Check symmetry (tol 1e-9), and physicality: PD plus the uncertainty bound (tol 1e-6).

    Accepts a CovarianceMatrix or any real 4x4 array and always returns a
    report; min_symplectic is nan for a matrix that is not PD, so it is unphysical.
    """
    m = candidate.entries if isinstance(candidate, CovarianceMatrix) else np.asarray(candidate, dtype=float)
    if m.shape != (4, 4):
        raise InputError(f"candidate must be 4x4, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        return ValidityReport(math.inf, math.nan, False, False)
    defect = float(np.max(np.abs(m - m.T)))
    nu_min = float(symplectic_eigenvalues((m + m.T) / 2.0)[0])
    return ValidityReport(defect, nu_min, defect <= SYMMETRY_TOL, nu_min >= 1.0 - PHYSICALITY_TOL)


def make_tmss(spec) -> CovarianceMatrix:
    """Covariance matrix of the two-mode squeezed (EPR) state for a source spec.

    Diagonal blocks are (v + vp)/2 * I and off-diagonal blocks (vp - v)/2 * Z:
    X quadratures correlated, Y quadratures anti-correlated, sigma_A = sigma_B.
    """
    spec = as_spec(spec)
    if spec.v <= 0.0 or spec.vp <= 0.0 or spec.v * spec.vp < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"spec (v={spec.v!r}, vp={spec.vp!r}) does not describe a physical state")
    va = (spec.v + spec.vp) / 2.0
    vc = (spec.vp - spec.v) / 2.0
    return CovarianceMatrix(np.block([[va * _I2, vc * _Z2],
                                      [vc * _Z2, va * _I2]]))


class ModePair(NamedTuple):
    """Source spec and current covariance matrix of one topological charge."""

    spec: SqueezingSpec
    cm: CovarianceMatrix


@dataclass(frozen=True, eq=False)
class MultiplexedState:
    """Ordered map from topological charge l to an independent two-mode state.

    The probe mode of entry l carries charge l and the conjugate carries -l
    (OAM conservation with an l = 0 pump).  Entries are mutually independent;
    no cross-charge correlations are ever stored.
    """

    pairs: Mapping[int, ModePair]

    def __post_init__(self):
        object.__setattr__(self, "pairs", MappingProxyType(dict(self.pairs)))

    @property
    def charges(self) -> tuple:
        return tuple(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, l) -> bool:
        return l in self.pairs

    def __getitem__(self, l) -> ModePair:
        return self.pairs[l]

    def items(self):
        return self.pairs.items()

    def to_json_dict(self) -> dict:
        return {"pairs": {str(l): {"spec": p.spec.to_json_dict(), "cm": p.cm.to_json_dict()}
                          for l, p in self.pairs.items()}}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "MultiplexedState":
        if set(d) != {"pairs"}:
            raise InputError(f"multiplexed JSON needs the single key 'pairs', got {sorted(d)}")
        pairs = {}
        for key, entry in d["pairs"].items():
            pairs[int(key)] = ModePair(SqueezingSpec.from_json_dict(entry["spec"]),
                                       CovarianceMatrix.from_json_dict(entry["cm"]))
        return cls(pairs)


def make_multiplexed(specs) -> MultiplexedState:
    """Build one two-mode squeezed state per topological charge.

    specs is a mapping {l: SqueezingSpec} or an iterable of (l, spec) pairs;
    duplicate or non-integer charges are rejected.  Each entry's matrix is
    exactly make_tmss of its spec.
    """
    items: Iterable = specs.items() if isinstance(specs, Mapping) else specs
    pairs = {}
    for l, spec in items:
        if isinstance(l, bool) or not isinstance(l, (int, np.integer)):
            raise InputError(f"topological charge must be an integer, got {l!r}")
        l = int(l)
        if l in pairs:
            raise InputError(f"duplicate topological charge {l}")
        spec = as_spec(spec)
        pairs[l] = ModePair(spec, make_tmss(spec))
    return MultiplexedState(pairs)
