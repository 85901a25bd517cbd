"""Entanglement and steering certification for two-mode Gaussian states.

Entanglement is decided by the PPT criterion: the state is entangled iff
the smallest symplectic eigenvalue nu of the partially transposed CM is
below 1 (sufficient and necessary for 1x1-mode Gaussian states).  Steering
is quantified in nats by g_ab = max(0, ln(det sigma_A / det sigma)/2) and
its B->A counterpart; steering implies entanglement but not conversely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import apply_channel
from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import (ChannelParams, as_cm, as_spec, make_tmss,
                       symplectic_eigenvalues)

TOL_DECISION = 1e-9
STEERING_CLASSES = ("two-way", "one-way-AB", "one-way-BA", "none")

BISECT_LO = 1e-6
BISECT_XTOL = 1e-6
BISECT_MAX_ITER = 200

# partial transpose of the probe mode flips the sign of Y_Pr
_PT = np.diag([1.0, 1.0, 1.0, -1.0])
_PT.flags.writeable = False


def _pd_sigma(cm) -> np.ndarray:
    """Entries of a structurally valid (symmetric positive-definite) CM."""
    sigma = as_cm(cm).entries
    if float(np.linalg.eigvalsh(sigma)[0]) <= 0.0:
        raise InputError("covariance matrix must be positive definite")
    return sigma


def _pt_invariants(sigma: np.ndarray) -> tuple:
    a = float(np.linalg.det(sigma[:2, :2]))
    b = float(np.linalg.det(sigma[2:, 2:]))
    c = float(np.linalg.det(sigma[:2, 2:]))
    return a + b - 2.0 * c, float(np.linalg.det(sigma))


def ppt_nu_closed_form(cm) -> float:
    """PPT nu from the symplectic-invariant formula.

    nu^2 = (Dt - sqrt(Dt^2 - 4 det sigma))/2 with Dt = det A + det B - 2 det C,
    evaluated through the conjugate form 2 det sigma / (Dt + sqrt(...)) so
    strongly squeezed states do not lose the small root to cancellation.
    A discriminant below -1e-9 (scaled) raises NumericalError; smaller
    negative rounding residue is clamped to zero.
    """
    sigma = _pd_sigma(cm)
    dt, det_sigma = _pt_invariants(sigma)
    disc = dt * dt - 4.0 * det_sigma
    if disc < -1e-9 * max(1.0, dt * dt):
        raise NumericalError(f"PPT discriminant is negative beyond tolerance: {disc:.3g}")
    denominator = dt + math.sqrt(max(disc, 0.0))
    if denominator <= 0.0:
        raise NumericalError(f"degenerate PPT invariants (Dt = {dt!r})")
    return math.sqrt(max(2.0 * det_sigma / denominator, 0.0))


def ppt_nu_eigen(cm) -> float:
    """PPT nu from the eigenvalues of i*Omega*(P sigma P), the independent route."""
    sigma = _pd_sigma(cm)
    return float(symplectic_eigenvalues(_PT @ sigma @ _PT)[0])


def _degeneracy_allowance(cm) -> float:
    """Resolution limit of the closed form near symplectic degeneracy.

    The discriminant Dt^2 - 4 det sigma carries an absolute rounding noise
    of order eps * Dt^2; once the true discriminant falls below that, the
    small root is only determined to ~sqrt(eps) * scale.  Away from
    degeneracy this bound collapses to ~eps and the 1e-9 agreement gate
    stays fully strict.
    """
    sigma = _pd_sigma(cm)
    dt, det_sigma = _pt_invariants(sigma)
    noise = 8.0 * np.finfo(float).eps * max(1.0, dt * dt)
    s = math.sqrt(max(dt * dt - 4.0 * det_sigma, 0.0))
    ds = math.sqrt(noise) if s * s <= noise else noise / (2.0 * s)
    nu2 = max(2.0 * det_sigma / max(dt + s, np.finfo(float).tiny), 0.0)
    if nu2 <= 0.0:
        return math.sqrt(noise)
    return 4.0 * math.sqrt(nu2) * ds / (2.0 * (dt + s))


def ppt_nu(cm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed CM.

    nu < 1 certifies entanglement, smaller nu means stronger entanglement.
    Computed by both the closed form and the eigenvalue route, which must
    agree within 1e-9 (plus the float resolution limit when the two
    symplectic eigenvalues are nearly degenerate).
    """
    closed = ppt_nu_closed_form(cm)
    eigen = ppt_nu_eigen(cm)
    if abs(closed - eigen) > 1e-9 * max(1.0, abs(closed)) + _degeneracy_allowance(cm):
        raise NumericalError(
            f"PPT computation paths disagree: closed form {closed!r} vs eigen {eigen!r}")
    return closed


def steering(cm) -> tuple:
    """Gaussian steerabilities (g_ab, g_ba) in nats.

    g_ab > 0 means Alice (conjugate side) can steer Bob's state, g_ba > 0
    the reverse; both vanish for product states.
    """
    sigma = as_cm(cm).entries
    det_a = float(np.linalg.det(sigma[:2, :2]))
    det_b = float(np.linalg.det(sigma[2:, 2:]))
    det_sigma = float(np.linalg.det(sigma))
    if det_sigma <= 0.0 or det_a <= 0.0 or det_b <= 0.0:
        raise UnphysicalStateError(
            f"state determinants must be positive, got det sigma = {det_sigma:.3g}")
    return (max(0.0, 0.5 * math.log(det_a / det_sigma)),
            max(0.0, 0.5 * math.log(det_b / det_sigma)))


@dataclass(frozen=True)
class CriteriaReport:
    """PPT value, steerabilities, and the steering class of one state."""

    nu: float
    entangled: bool
    g_ab: float
    g_ba: float
    steering_class: str

    def to_json_dict(self) -> dict:
        return {"nu": self.nu, "entangled": self.entangled,
                "gAB": self.g_ab, "gBA": self.g_ba, "class": self.steering_class}

    def describe(self) -> str:
        verdict = "entangled" if self.entangled else "separable"
        if abs(self.nu - 1.0) <= TOL_DECISION:
            verdict += " (boundary)"
        return (f"nu={self.nu:.6g} [{verdict}], gAB={self.g_ab:.6g}, "
                f"gBA={self.g_ba:.6g}, steering: {self.steering_class}")


def classify(cm) -> CriteriaReport:
    """Bundle PPT and steering into one report.

    Strict inequalities are decided with tolerance 1e-9: a nu within that
    margin of 1 counts as not entangled (conservative certification) and is
    marked as boundary by describe().
    """
    nu = ppt_nu(cm)
    g_ab, g_ba = steering(cm)
    a, b = g_ab > TOL_DECISION, g_ba > TOL_DECISION
    if a and b:
        cls = "two-way"
    elif a:
        cls = "one-way-AB"
    elif b:
        cls = "one-way-BA"
    else:
        cls = "none"
    return CriteriaReport(nu=nu, entangled=nu < 1.0 - TOL_DECISION,
                          g_ab=g_ab, g_ba=g_ba, steering_class=cls)


class CriteriaArrays(NamedTuple):
    """classify() of every state of a stack, one array per report field."""

    nu: np.ndarray
    entangled: np.ndarray
    g_ab: np.ndarray
    g_ba: np.ndarray
    steering_class: np.ndarray


def _steerability(det_marginal: np.ndarray, det_sigma: np.ndarray) -> np.ndarray:
    # math.log per element: numpy's vectorised log may round differently in
    # the last bit, and the values must equal those of steering()
    logs = np.array([math.log(x) for x in (det_marginal / det_sigma).tolist()])
    return np.maximum(0.0, 0.5 * logs)


def classify_many(sigmas) -> CriteriaArrays:
    """classify() of each matrix of an (N, 4, 4) stack, in one vectorised pass.

    The invariants, both PPT routes with their agreement gate (1e-9 plus the
    degeneracy allowance) and the steering determinant checks are evaluated
    element-wise; every value equals the one classify() gives for that
    state.  If any state fails a check, classify() is called on the first
    such state, so the error raised is the scalar one.
    """
    raw = np.asarray(sigmas, dtype=float)
    if raw.ndim != 3 or raw.shape[1:] != (4, 4):
        raise InputError(f"expected a stack of 4x4 matrices, got shape {raw.shape}")
    transposed = raw.swapaxes(1, 2)
    malformed = ~np.isfinite(raw).all(axis=(1, 2)) | \
        (np.abs(raw - transposed) > 1e-6).any(axis=(1, 2))
    # malformed states fail below; the identity keeps the linear algebra finite
    sigma = np.where(malformed[:, None, None], np.eye(4), (raw + transposed) / 2.0)
    not_pd = np.linalg.eigvalsh(sigma)[:, 0] <= 0.0
    det_a = np.linalg.det(sigma[:, :2, :2])
    det_b = np.linalg.det(sigma[:, 2:, 2:])
    det_c = np.linalg.det(sigma[:, :2, 2:])
    det_sigma = np.linalg.det(sigma)
    dt = det_a + det_b - 2.0 * det_c
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        # closed form, as in ppt_nu_closed_form
        disc = dt * dt - 4.0 * det_sigma
        s = np.sqrt(np.maximum(disc, 0.0))
        denominator = dt + s
        nu = np.sqrt(np.maximum(2.0 * det_sigma / denominator, 0.0))
        # resolution limit, as in _degeneracy_allowance
        noise = 8.0 * eps * np.maximum(1.0, dt * dt)
        ds = np.where(s * s <= noise, np.sqrt(noise), noise / (2.0 * s))
        nu2 = np.maximum(2.0 * det_sigma / np.maximum(denominator, tiny), 0.0)
        allowance = np.where(nu2 <= 0.0, np.sqrt(noise),
                             4.0 * np.sqrt(nu2) * ds / (2.0 * denominator))
    eigen = symplectic_eigenvalues(_PT @ sigma @ _PT)[:, 0]
    failed = (malformed | not_pd
              | (disc < -1e-9 * np.maximum(1.0, dt * dt))
              | (denominator <= 0.0)
              | (np.abs(nu - eigen) > 1e-9 * np.maximum(1.0, np.abs(nu)) + allowance)
              | (det_sigma <= 0.0) | (det_a <= 0.0) | (det_b <= 0.0))
    if failed.any():
        first = int(np.argmax(failed))
        classify(raw[first])
        raise NumericalError(f"state {first} fails a batched check that classify() passes")
    g_ab = _steerability(det_a, det_sigma)
    g_ba = _steerability(det_b, det_sigma)
    a, b = g_ab > TOL_DECISION, g_ba > TOL_DECISION
    # STEERING_CLASSES order: both, A->B only, B->A only, neither
    cls = np.array(STEERING_CLASSES)[2 * ~a + ~b]
    return CriteriaArrays(nu=nu, entangled=nu < 1.0 - TOL_DECISION,
                          g_ab=g_ab, g_ba=g_ba, steering_class=cls)


def _bisect(f, lo: float, hi: float, flo: float) -> float:
    """Root of a sign-changing f on [lo, hi] to |d eta| <= BISECT_XTOL."""
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_XTOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _distributed(spec, delta: float, eta: float):
    return apply_channel(make_tmss(spec), ChannelParams(eta, delta))


def _separability_gap(spec, delta: float, eta: float) -> float:
    """1 - Dt + det sigma: positive where the distributed state is separable."""
    dt, det_sigma = _pt_invariants(_distributed(spec, delta, eta).entries)
    return 1.0 - dt + det_sigma


def entanglement_death_eta(spec, delta: float) -> Optional[float]:
    """Transmission efficiency where entanglement suddenly dies, or None.

    Returns the smallest eta in (0, 1] with nu(eta) = 1, located by bisecting
    the separability gap.  None means no transition inside the bracket:
    either the channel is purely lossy (entanglement survives to eta -> 0)
    or the source has no entanglement to lose.
    """
    spec = as_spec(spec)
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise InputError(f"delta must be >= 0, got {delta!r}")
    f = lambda eta: _separability_gap(spec, delta, eta)
    f_hi = f(1.0)
    if f_hi >= 0.0:
        return None
    f_lo = f(BISECT_LO)
    if f_lo < 0.0:
        return None
    return _bisect(f, BISECT_LO, 1.0, f_lo)


def _signed_steerability(spec, delta: float, eta: float, direction: str) -> float:
    sigma = _distributed(spec, delta, eta).entries
    block = sigma[:2, :2] if direction == "AB" else sigma[2:, 2:]
    return 0.5 * math.log(float(np.linalg.det(block)) / float(np.linalg.det(sigma)))


def steering_death_eta(spec, delta: float, direction: str) -> Optional[float]:
    """Transmission efficiency where one steering direction dies, or None.

    direction is "AB" (Alice steers Bob) or "BA".  None means no transition
    inside (0, 1]: the direction either survives the whole bracket or never
    steers at all.
    """
    spec = as_spec(spec)
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise InputError(f"delta must be >= 0, got {delta!r}")
    if direction not in ("AB", "BA"):
        raise InputError(f"direction must be 'AB' or 'BA', got {direction!r}")
    h = lambda eta: _signed_steerability(spec, delta, eta, direction)
    if h(1.0) <= 0.0:
        return None
    h_lo = h(BISECT_LO)
    if h_lo >= 0.0:
        return None
    return _bisect(h, BISECT_LO, 1.0, h_lo)


def steering_death_eta_ba_lossy(spec) -> float:
    """Closed-form B->A steering boundary of a purely lossy channel.

    eta* = (v + vp - 2) / (2 (1 - v)(vp - 1)), valid for squeezed sources
    with v < 1 < vp; cross-checks the bisection route at delta = 0.
    """
    spec = as_spec(spec)
    if spec.v >= 1.0 or spec.vp <= 1.0:
        raise InputError("closed form requires a squeezed source with v < 1 < vp")
    return (spec.v + spec.vp - 2.0) / (2.0 * (1.0 - spec.v) * (spec.vp - 1.0))
