"""Entanglement and steering certification for two-mode Gaussian states.

Entanglement is decided by the PPT criterion: the state is entangled iff
the smallest symplectic eigenvalue nu of the partially transposed CM is
below 1 (sufficient and necessary for 1x1-mode Gaussian states).  Steering
is quantified in nats by g_ab = max(0, ln(det sigma_A / det sigma)/2) and
its B->A counterpart; steering implies entanglement but not conversely.

The sudden-death thresholds of a two-mode squeezed source sent through the
probe channel are closed forms.  With a = (v + vp)/2 and s = (1 - v)(vp - 1),
each correlation survives at eta iff p + q*eta > 0, linear in eta:

    entanglement  (p, q) = (-(a - 1) delta, s + (a - 1) delta)
    A->B steering (p, q) = (-a delta, (1 + delta) a - v vp)
    B->A steering (p, q) = (-(1 + delta)(a - 1), a - v vp + (1 + delta)(a - 1))

The entanglement line is the sign of the factor (a - 1)(b - 1) - c^2 of the
separability gap 1 - Dt + det sigma (Simon, PRL 84, 2726 (2000)); the
steering lines are det sigma_marginal > det sigma (Kogias et al., PRL 114,
060403 (2015)).  A threshold is None when the correlation is already dead
at eta = 1 or still alive at the bracket's lower end ETA_LO; otherwise it
is the root -p/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import as_cm, as_spec, symplectic_eigenvalues

TOL_DECISION = 1e-9
STEERING_CLASSES = ("two-way", "one-way-AB", "one-way-BA", "none")

# lower end of the threshold bracket (0, 1]: a correlation still alive here
# counts as never dying
ETA_LO = 1e-6

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
    """(Dt, det sigma, det A, det B) with Dt = det A + det B - 2 det C."""
    a = float(np.linalg.det(sigma[:2, :2]))
    b = float(np.linalg.det(sigma[2:, 2:]))
    c = float(np.linalg.det(sigma[:2, 2:]))
    return a + b - 2.0 * c, float(np.linalg.det(sigma)), a, b


def _closed_form_nu(dt: float, det_sigma: float) -> float:
    disc = dt * dt - 4.0 * det_sigma
    if disc < -1e-9 * max(1.0, dt * dt):
        raise NumericalError(f"PPT discriminant is negative beyond tolerance: {disc:.3g}")
    denominator = dt + math.sqrt(max(disc, 0.0))
    if denominator <= 0.0:
        raise NumericalError(f"degenerate PPT invariants (Dt = {dt!r})")
    return math.sqrt(max(2.0 * det_sigma / denominator, 0.0))


def _eigen_nu(sigma: np.ndarray) -> float:
    return float(symplectic_eigenvalues(_PT @ sigma @ _PT)[0])


def ppt_nu_closed_form(cm) -> float:
    """PPT nu from the symplectic-invariant formula.

    nu^2 = (Dt - sqrt(Dt^2 - 4 det sigma))/2 with Dt = det A + det B - 2 det C,
    evaluated through the conjugate form 2 det sigma / (Dt + sqrt(...)) so
    strongly squeezed states do not lose the small root to cancellation.
    A discriminant below -1e-9 (scaled) raises NumericalError; smaller
    negative rounding residue is clamped to zero.
    """
    dt, det_sigma, _, _ = _pt_invariants(_pd_sigma(cm))
    return _closed_form_nu(dt, det_sigma)


def ppt_nu_eigen(cm) -> float:
    """PPT nu from the eigenvalues of i*Omega*(P sigma P), the independent route."""
    return _eigen_nu(_pd_sigma(cm))


def _degeneracy_allowance(dt: float, det_sigma: float) -> float:
    """Resolution limit of the closed form near symplectic degeneracy.

    The discriminant Dt^2 - 4 det sigma carries an absolute rounding noise
    of order eps * Dt^2; once the true discriminant falls below that, the
    small root is only determined to ~sqrt(eps) * scale.  Away from
    degeneracy this bound collapses to ~eps and the 1e-9 agreement gate
    stays fully strict.
    """
    noise = 8.0 * np.finfo(float).eps * max(1.0, dt * dt)
    s = math.sqrt(max(dt * dt - 4.0 * det_sigma, 0.0))
    ds = math.sqrt(noise) if s * s <= noise else noise / (2.0 * s)
    nu2 = max(2.0 * det_sigma / max(dt + s, np.finfo(float).tiny), 0.0)
    if nu2 <= 0.0:
        return math.sqrt(noise)
    return 4.0 * math.sqrt(nu2) * ds / (2.0 * (dt + s))


def _checked_nu(sigma: np.ndarray, dt: float, det_sigma: float) -> float:
    closed = _closed_form_nu(dt, det_sigma)
    eigen = _eigen_nu(sigma)
    gap, strict = abs(closed - eigen), 1e-9 * max(1.0, abs(closed))
    if gap <= strict:
        return closed
    if gap > strict + _degeneracy_allowance(dt, det_sigma):
        raise NumericalError(
            f"PPT computation paths disagree: closed form {closed!r} vs eigen {eigen!r}")
    return eigen


def ppt_nu(cm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed CM.

    nu < 1 certifies entanglement, smaller nu means stronger entanglement.
    Computed by both the closed form and the eigenvalue route, which must
    agree within 1e-9 (plus the float resolution limit when the two
    symplectic eigenvalues are nearly degenerate).  The closed-form value is
    returned when the routes agree within 1e-9; when they agree only within
    the resolution limit, the closed form has lost precision and the eigen
    value is returned.
    """
    sigma = _pd_sigma(cm)
    dt, det_sigma, _, _ = _pt_invariants(sigma)
    return _checked_nu(sigma, dt, det_sigma)


def _steerabilities(det_a: float, det_b: float, det_sigma: float) -> tuple:
    if det_sigma <= 0.0 or det_a <= 0.0 or det_b <= 0.0:
        raise UnphysicalStateError(
            f"state determinants must be positive, got det sigma = {det_sigma:.3g}")
    return (max(0.0, 0.5 * math.log(det_a / det_sigma)),
            max(0.0, 0.5 * math.log(det_b / det_sigma)))


def steering(cm) -> tuple:
    """Gaussian steerabilities (g_ab, g_ba) in nats.

    g_ab > 0 means Alice (conjugate side) can steer Bob's state, g_ba > 0
    the reverse; both vanish for product states.
    """
    sigma = as_cm(cm).entries
    return _steerabilities(float(np.linalg.det(sigma[:2, :2])),
                           float(np.linalg.det(sigma[2:, 2:])),
                           float(np.linalg.det(sigma)))


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
    sigma = _pd_sigma(cm)
    dt, det_sigma, det_a, det_b = _pt_invariants(sigma)
    nu = _checked_nu(sigma, dt, det_sigma)
    g_ab, g_ba = _steerabilities(det_a, det_b, det_sigma)
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
    element-wise, and nu takes the eigen value where ppt_nu() does; every
    value equals the one classify() gives for that state.  If any state
    fails a check, classify() is called on the first such state, so the
    error raised is the scalar one.
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
        closed = np.sqrt(np.maximum(2.0 * det_sigma / denominator, 0.0))
        # resolution limit, as in _degeneracy_allowance
        noise = 8.0 * eps * np.maximum(1.0, dt * dt)
        ds = np.where(s * s <= noise, np.sqrt(noise), noise / (2.0 * s))
        nu2 = np.maximum(2.0 * det_sigma / np.maximum(denominator, tiny), 0.0)
        allowance = np.where(nu2 <= 0.0, np.sqrt(noise),
                             4.0 * np.sqrt(nu2) * ds / (2.0 * denominator))
    eigen = symplectic_eigenvalues(_PT @ sigma @ _PT)[:, 0]
    gap, strict = np.abs(closed - eigen), 1e-9 * np.maximum(1.0, np.abs(closed))
    failed = (malformed | not_pd
              | (disc < -1e-9 * np.maximum(1.0, dt * dt))
              | (denominator <= 0.0)
              | (gap > strict + allowance)
              | (det_sigma <= 0.0) | (det_a <= 0.0) | (det_b <= 0.0))
    if failed.any():
        first = int(np.argmax(failed))
        classify(raw[first])
        raise NumericalError(f"state {first} fails a batched check that classify() passes")
    nu = np.where(gap <= strict, closed, eigen)
    g_ab = _steerability(det_a, det_sigma)
    g_ba = _steerability(det_b, det_sigma)
    a, b = g_ab > TOL_DECISION, g_ba > TOL_DECISION
    # STEERING_CLASSES order: both, A->B only, B->A only, neither
    cls = np.array(STEERING_CLASSES)[2 * ~a + ~b]
    return CriteriaArrays(nu=nu, entangled=nu < 1.0 - TOL_DECISION,
                          g_ab=g_ab, g_ba=g_ba, steering_class=cls)


def _checked_delta(delta) -> float:
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise InputError(f"delta must be >= 0, got {delta!r}")
    return delta


def _death_eta(p: float, q: float) -> Optional[float]:
    """Root -p/q of a correlation alive at eta iff p + q*eta > 0, or None.

    None when it is already dead at eta = 1 or still alive at ETA_LO.  Passing
    both checks implies q > 0 (also in rounded arithmetic, since rounding is
    monotone), so q = 0 never reaches the division.
    """
    if p + q <= 0.0 or p + q * ETA_LO > 0.0:
        return None
    return -p / q


def entanglement_death_eta(spec, delta: float) -> Optional[float]:
    """Transmission efficiency where entanglement suddenly dies, or None.

    Returns the eta in (0, 1] with nu(eta) = 1, the closed-form root
    eta* = (a - 1) delta / (s + (a - 1) delta) of the entanglement line (see
    the module docstring).  None means no transition inside the bracket:
    either the channel is purely lossy (entanglement survives to eta -> 0)
    or the source has no entanglement to lose.
    """
    spec, delta = as_spec(spec), _checked_delta(delta)
    a = 0.5 * (spec.v + spec.vp)
    s = (1.0 - spec.v) * (spec.vp - 1.0)
    return _death_eta(-(a - 1.0) * delta, s + (a - 1.0) * delta)


def steering_death_eta(spec, delta: float, direction: str) -> Optional[float]:
    """Transmission efficiency where one steering direction dies, or None.

    direction is "AB" (Alice steers Bob) or "BA".  The closed-form roots are
    eta* = a delta / ((1 + delta) a - v vp) for A->B and
    (1 + delta)(a - 1) / (a - v vp + (1 + delta)(a - 1)) for B->A (see the
    module docstring).  None means no transition inside (0, 1]: the
    direction either survives the whole bracket or never steers at all.
    """
    spec, delta = as_spec(spec), _checked_delta(delta)
    a, vvp = 0.5 * (spec.v + spec.vp), spec.v * spec.vp
    if direction == "AB":
        return _death_eta(-a * delta, (1.0 + delta) * a - vvp)
    if direction == "BA":
        return _death_eta(-(1.0 + delta) * (a - 1.0),
                          a - vvp + (1.0 + delta) * (a - 1.0))
    raise InputError(f"direction must be 'AB' or 'BA', got {direction!r}")


def steering_death_eta_ba_lossy(spec) -> float:
    """Closed-form B->A steering boundary of a purely lossy channel.

    eta* = (v + vp - 2) / (2 (1 - v)(vp - 1)), valid for squeezed sources
    with v < 1 < vp: the delta = 0 case of the B->A line, written in the
    source variances.
    """
    spec = as_spec(spec)
    if spec.v >= 1.0 or spec.vp <= 1.0:
        raise InputError("closed form requires a squeezed source with v < 1 < vp")
    return (spec.v + spec.vp - 2.0) / (2.0 * (1.0 - spec.v) * (spec.vp - 1.0))
