"""Two-mode Gaussian states in the covariance-matrix picture.

Quadrature convention: X = a + a^dag, Y = (a - a^dag)/i, so the vacuum
variance is 1 and the shot-noise level (SNL) is 1 per mode.  The mode
order is fixed as (X_Conj, Y_Conj, X_Pr, Y_Pr): the conjugate mode is
kept by Alice, the probe mode is the one sent through the channel to Bob.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError

MODE_ORDER = ("Xc", "Yc", "Xp", "Yp")

SYMMETRY_TOL = 1e-9
ASYMMETRY_TOL = 1e-6  # constructors and criteria symmetrize up to it, reject beyond
PHYSICALITY_TOL = 1e-6

# two-mode symplectic form, block diagonal of [[0, 1], [-1, 0]]
OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 0.0]])
OMEGA.flags.writeable = False

# rows and columns of the A, B and C blocks of a 4x4 matrix: sigma[:, rows, cols] is (N, 3, 2, 2)
_BLOCK_ROWS = np.array([[0, 1], [2, 3], [0, 1]])[:, :, None]
_BLOCK_COLS = np.array([[0, 1], [2, 3], [2, 3]])[:, None, :]


def is_integer(x) -> bool:
    """True for an int or numpy integer, but not for a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for an int, float or numpy real, but not for a bool: a number by the number rule."""
    return isinstance(x, (float, np.floating)) or is_integer(x)


def real_or_nan(x) -> float:
    """The number rule: an int, float or numpy real (not a bool) as a float; anything else NaN.

    Text, None, bools and containers are not numbers, and an int beyond
    float range is +-inf.  Every range test of a caller's number is False
    on NaN, so each owner rejects a non-number with its own error text.
    """
    if not is_real(x):
        return math.nan
    try:
        return float(x)
    except OverflowError:  # an int beyond float range
        return math.inf if x > 0 else -math.inf


def real_array(obj, dtype=float) -> np.ndarray:
    """The array rule: obj as a float or complex array; a numeric numpy array converts whole.

    That conversion returns obj itself if it has dtype already, so an owner
    that keeps the array copies it.  Anything else is read by _entries, entry
    by entry, through the number rule, and converted by one np.array call.
    """
    if _is_numeric_array(obj, dtype):
        return np.asarray(obj, dtype=dtype)
    entries = _entries(obj, dtype)
    try:
        return np.array(entries, dtype=dtype)
    except ValueError:  # every entry is a number, so only ragged rows get here
        raise InputError(f"array entries must be numbers, got {obj!r}") from None


def _is_numeric_array(obj, dtype) -> bool:
    """True for a numpy array of ints or floats (or complex, for dtype=complex)."""
    return isinstance(obj, np.ndarray) and obj.dtype.kind in ("iufc" if dtype is complex else "iuf")


def _entries(obj, dtype):
    """obj's numbers as nested lists, a numeric numpy array kept whole; else InputError naming
    the first entry that is not a number (or complex, for dtype=complex)."""
    if is_real(obj):
        return real_or_nan(obj)  # an int beyond float range is +-inf
    if _is_numeric_array(obj, dtype) or (
            dtype is complex and isinstance(obj, (complex, np.complexfloating))):
        return obj
    rows = obj.tolist() if isinstance(obj, np.ndarray) else obj  # bools, text, objects
    if isinstance(rows, (list, tuple)):
        return [_entries(row, dtype) for row in rows]
    raise InputError(f"array entries must be numbers, got {obj!r}")


def _frozen(cls, *values):
    """cls(*values), a frozen dataclass, without its checks; each array is made read-only.

    The one owner of an unchecked construction.  Only for values the package
    has just built from checked inputs, for which the caller guarantees every
    rule cls's constructor would test: a value is checked once, where it enters.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Decibel:
    """A value in dB relative to the applicable shot-noise level."""

    value: float

    def __post_init__(self):
        value = real_or_nan(self.value)
        if not math.isfinite(value):
            raise InputError(f"dB value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", value)

    @property
    def linear(self) -> float:
        """10^(value/10); a NumericalError that names the value where that overflows a float."""
        return _db_linear(self.value)


def _db_linear(db: float) -> float:
    """10^(db/10), the one scalar conversion of a dB value to its linear ratio.

    Python's float power raises a bare OverflowError where the ratio
    overflows a float; that is a NumericalError naming the value.
    """
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise NumericalError(f"dB value {db!r} overflows its linear ratio") from None


def db_to_linear(x) -> float:
    """Linear power ratio 10^(x/10) of a Decibel or plain dB float."""
    return (x if isinstance(x, Decibel) else Decibel(x)).linear


def linear_to_db(v) -> Decibel:
    """dB value of a positive linear ratio; exact inverse of db_to_linear."""
    value = real_or_nan(v)
    if not math.isfinite(value) or value <= 0.0:
        raise InputError(f"linear value must be positive and finite, got {v!r}")
    return Decibel(10.0 * math.log10(value))


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
        v, vp = real_or_nan(self.v), real_or_nan(self.vp)
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
        """Pure-state spec v = e^{-2r}, vp = e^{2r}; r must be a number >= 0 with finite e^{2r}."""
        # math.exp is finite up to exactly log(max float), and 2r is exact
        if 0.0 <= (value := real_or_nan(r)) <= math.log(np.finfo(float).max) / 2.0:
            return cls(v=math.exp(-2.0 * value), vp=math.exp(2.0 * value))
        raise InputError(f"squeezing parameter must be >= 0 with finite e^(2r), got {r!r}")

    def to_json_dict(self) -> dict:
        return {"v": self.v, "vp": self.vp}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SqueezingSpec":
        """Spec from an object with keys v and vp, or r alone; anything else is an InputError."""
        if not isinstance(d, Mapping) or set(d) not in ({"v", "vp"}, {"r"}):
            raise InputError(f"spec needs keys v and vp, or r alone, got {d!r}")
        return cls.from_r(d["r"]) if "r" in d else cls(v=d["v"], vp=d["vp"])


@dataclass(frozen=True)
class ChannelParams:
    """Transmission efficiency eta and excess noise delta of the probe channel.

    delta is in shot-noise units: delta = 0 is a purely lossy channel, and
    delta = 1 means the injected noise sits 3 dB above the SNL.
    """

    eta: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eta", checked_eta(self.eta))
        object.__setattr__(self, "delta", checked_delta(self.delta))


def checked_eta(eta) -> float:
    """Transmission eta as a float; anything but a number in [0, 1] is an InputError."""
    if 0.0 <= (value := real_or_nan(eta)) <= 1.0:  # False for NaN
        return value
    raise InputError(f"eta must lie in [0, 1], got {eta!r}")


def checked_delta(delta) -> float:
    """Excess noise delta as a float, with -0 read as 0; anything but a finite number >= 0
    is an InputError."""
    if math.isfinite(value := real_or_nan(delta)) and value >= 0.0:
        return value + 0.0
    raise InputError(f"delta must be >= 0, got {delta!r}")


def checked_charges(charges) -> tuple:
    """The charge rule: an iterable of integers (not bool, not text), none repeated, as ints."""
    try:
        if isinstance(charges, (str, bytes)):  # not read one character at a time
            raise TypeError
        charges = tuple(charges)
    except TypeError as exc:
        raise InputError(f"charges must be a list of integers, got {charges!r}") from exc
    if bad := [l for l in charges if not is_integer(l)]:
        raise InputError(f"charges must be integers, got {bad[0]!r}")
    charges = tuple(map(int, charges))
    if len(set(charges)) != len(charges):
        raise InputError(f"charges must be distinct, got {charges}")
    return charges


def charges_from_keys(keys) -> tuple:
    """checked_charges of JSON keys; text of up to 18 digits is read by int(): "1", "01" repeat."""
    return checked_charges(int(key) if isinstance(key, str) and re.fullmatch(r"-?\d{1,18}", key)
                           else key for key in keys)


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
        sigma, malformed = _well_formed(checked_matrices(self.entries, 2)[None])
        _raise_first([malformed])
        m = sigma[0]
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
        if not isinstance(d, Mapping) or set(d) != {"order", "matrix"}:
            raise InputError(f"covariance JSON needs keys order and matrix, got {d!r}")
        if not isinstance(d["order"], (list, tuple)) or tuple(d["order"]) != MODE_ORDER:
            raise InputError(f"unsupported mode order {d['order']!r}, expected {list(MODE_ORDER)}")
        return cls(d["matrix"])


def as_cm(obj) -> CovarianceMatrix:
    """Coerce a CovarianceMatrix or any 4x4 array-like into a CovarianceMatrix."""
    return obj if isinstance(obj, CovarianceMatrix) else CovarianceMatrix(obj)


def _from_pair(cls, obj, text: str):
    """obj if it is a cls, cls(*obj) of a list or tuple pair; anything else is an InputError."""
    if isinstance(obj, cls):
        return obj
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return cls(*obj)
    raise InputError(f"{text}, got {obj!r}")


def as_spec(obj) -> SqueezingSpec:
    """Coerce a SqueezingSpec or a (v, vp) pair into a SqueezingSpec."""
    return _from_pair(SqueezingSpec, obj, "a source spec must be a SqueezingSpec or a (v, vp) pair")


def checked_matrices(obj, ndim=None) -> np.ndarray:
    """The shape rule: real_array(obj) as 4x4 matrices with ndim axes if given; else InputError.

    ndim 2 is one matrix, 3 an (N, 4, 4) stack; a CovarianceMatrix gives its entries.
    """
    m = obj.entries if isinstance(obj, CovarianceMatrix) else real_array(obj)
    if m.shape[-2:] != (4, 4) or ndim not in (None, m.ndim):
        expected = {2: "a 4x4 matrix", 3: "an (N, 4, 4) stack"}.get(ndim, "a (..., 4, 4) stack")
        raise InputError(f"covariance entries must be {expected}, got shape {m.shape}")
    return m


def symplectic_eigenvalues(matrix) -> np.ndarray:
    """The two symplectic eigenvalues of a 4x4 CM, ascending; (nan, nan) if it is not PD.

    With sigma = L L^T (Cholesky), i L^T Omega L is Hermitian and similar to
    i Omega sigma, so its eigenvalues are -nu2, -nu1, nu1, nu2 (Williamson
    1936).  A stack of shape (..., 4, 4) gives one pair per matrix, (..., 2).
    """
    m = checked_matrices(matrix)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:  # one matrix that is not PD fails the whole stack
        flat = m.reshape(-1, 4, 4)
        if len(flat) == 1:
            return np.full((*m.shape[:-2], 2), np.nan)
        # retry each half: k matrices that are not PD cost O(k log N) calls
        half = len(flat) // 2
        nus = (symplectic_eigenvalues(flat[:half]), symplectic_eigenvalues(flat[half:]))
        return np.concatenate(nus).reshape(*m.shape[:-2], 2)
    return np.linalg.eigvalsh(1j * (chol.swapaxes(-1, -2) @ OMEGA @ chol))[..., 2:]


@np.errstate(all="ignore")
def _symmetrized(raw: np.ndarray) -> tuple:
    """(entries finite, max |s_ij - s_ji|, s/2 + s^T/2) per matrix of a stack; silent overflow.

    Halving before the sum keeps entries above half the float max finite.
    """
    transposed = raw.swapaxes(-1, -2)
    return (np.isfinite(raw).all(axis=(-2, -1)), np.abs(raw - transposed).max(axis=(-2, -1)),
            raw / 2.0 + transposed / 2.0)


def _well_formed(raw: np.ndarray) -> tuple:
    """Symmetrized stack and the malformed check: entries not finite, asymmetry > ASYMMETRY_TOL."""
    finite, defect, symmetric = _symmetrized(raw)
    malformed = ~finite | (defect > ASYMMETRY_TOL)
    # the identity in place of a malformed matrix keeps the later stages finite
    sigma = np.where(malformed[:, None, None], np.eye(4), symmetric)
    return sigma, (malformed, lambda i: InputError(
        f"matrix is not symmetric (max |s_ij - s_ji| = {float(defect[i]):.3g})" if finite[i]
        else "covariance matrix entries must be finite"))


@np.errstate(all="ignore")
def _invariants(sigma: np.ndarray) -> tuple:
    """(Dt, det sigma, det A, det B) per state, Dt = det A + det B - 2 det C; silent overflow."""
    det_a, det_b, det_c = np.linalg.det(sigma[:, _BLOCK_ROWS, _BLOCK_COLS]).T
    return det_a + det_b - 2.0 * det_c, np.linalg.det(sigma), det_a, det_b


def _finite_check(dt, det_sigma, det_a, det_b) -> tuple:
    """The check that every invariant is finite; the later checks compare False on NaN."""
    finite = np.isfinite(dt) & np.isfinite(det_sigma) & np.isfinite(det_a) & np.isfinite(det_b)
    return (~finite, lambda i: NumericalError(
        f"state invariants are not finite (Dt = {float(dt[i])!r}, "
        f"det sigma = {float(det_sigma[i])!r})"))


def _failures(checks: list) -> dict:
    """{i: error(i) of its first failing (mask, error) check} for each failing state i, in order."""
    masks = np.array([mask for mask, _ in checks])
    first = masks.argmax(axis=0)
    return {i: checks[first[i]][1](i) for i in np.flatnonzero(masks.any(axis=0)).tolist()}


def _raise_first(checks: list) -> None:
    """Raise the error _failures gives the first failing state, if any state fails a check."""
    if any(mask.any() for mask, _ in checks):
        raise next(iter(_failures(checks).values()))


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
    """Check symmetry (SYMMETRY_TOL) and physicality: PD plus the uncertainty bound (tol 1e-6).

    Accepts a CovarianceMatrix or any real 4x4 array and always returns a
    report; min_symplectic is nan for a matrix that is not PD, so it is unphysical.
    """
    finite, defect, symmetric = _symmetrized(checked_matrices(candidate, 2))
    if not finite:
        return ValidityReport(math.inf, math.nan, False, False)
    defect, nu_min = float(defect), float(symplectic_eigenvalues(symmetric)[0])
    return ValidityReport(defect, nu_min, defect <= SYMMETRY_TOL, _physical(nu_min))


def _physical(nu_min):
    """The uncertainty bound on smallest symplectic eigenvalue(s); NaN (not PD) fails it."""
    return nu_min >= 1.0 - PHYSICALITY_TOL


def make_tmss(spec) -> CovarianceMatrix:
    """Covariance matrix of the two-mode squeezed (EPR) state for a source spec.

    Diagonal blocks are a * I and off-diagonal blocks c * Z, with a = (v + vp)/2,
    c = (vp - v)/2 and Z = diag(1, -1): X quadratures correlated, Y quadratures
    anti-correlated, sigma_A = sigma_B.  The spec is checked here, by the
    SqueezingSpec rules; the matrix built from it is symmetric and finite by
    construction (each half is taken before the sum, which cannot overflow),
    so it is frozen without the CovarianceMatrix checks.
    The matrix's own v is the difference of those two stored entries, so it and every
    nu taken from it carry a relative error of about eps (v + vp)/(2 v): about 1e-15
    for v = 0.47, vp = 4.11, but 5e-8 at r = 5, so past r ~ 4 the matrix routes do not
    resolve all 9 digits of nu, and from r ~ 5.4 the channel API's source check refuses
    this matrix.  No command builds it: the sweep and tomo read the spec's standard form.
    """
    # run the constructor's rules again, on fields that may have been overwritten
    spec = replace(as_spec(spec))
    a, c = spec.v / 2.0 + spec.vp / 2.0, spec.vp / 2.0 - spec.v / 2.0
    return _frozen(CovarianceMatrix, np.array(
        [[a, 0.0, c, 0.0], [0.0, a, 0.0, -c], [c, 0.0, a, 0.0], [0.0, -c, 0.0, a]]))


class ModePair(NamedTuple):
    """Source spec and current covariance matrix of one topological charge."""

    spec: SqueezingSpec
    cm: CovarianceMatrix


@dataclass(frozen=True, eq=False)
class MultiplexedState:
    """Ordered map from topological charge l to an independent two-mode state.

    The probe mode of entry l carries charge l and the conjugate carries -l
    (OAM conservation with an l = 0 pump).  Entries are mutually independent;
    no cross-charge correlations are ever stored.  Charges: see checked_charges.
    """

    pairs: Mapping[int, ModePair]

    def __post_init__(self):
        items = list(self.pairs.items() if isinstance(self.pairs, Mapping) else self.pairs)
        pairs = dict(zip(checked_charges(l for l, _ in items), (pair for _, pair in items)))
        object.__setattr__(self, "pairs", MappingProxyType(pairs))

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
        """State from {"pairs": {l: {"spec": ..., "cm": ...}}}; anything else is an InputError."""
        pairs = d.get("pairs") if isinstance(d, Mapping) and set(d) == {"pairs"} else None
        if not isinstance(pairs, Mapping) or not all(
                isinstance(e, Mapping) and set(e) == {"spec", "cm"} for e in pairs.values()):
            raise InputError(f"multiplexed JSON needs 'pairs' of {{spec, cm}} objects, got {d!r}")
        return cls(zip(charges_from_keys(pairs), (
            ModePair(SqueezingSpec.from_json_dict(e["spec"]),
                     CovarianceMatrix.from_json_dict(e["cm"])) for e in pairs.values())))


def make_multiplexed(specs) -> MultiplexedState:
    """Build one two-mode squeezed state per topological charge.

    specs is a mapping {l: SqueezingSpec} or an iterable of (l, spec) pairs, with
    charges as checked_charges takes them.  Each matrix is exactly make_tmss of its spec.
    """
    items = specs.items() if isinstance(specs, Mapping) else specs
    return MultiplexedState((l, ModePair(as_spec(s), make_tmss(s))) for l, s in items)
