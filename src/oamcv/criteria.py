"""Entanglement and steering certification for two-mode Gaussian states.

Entanglement is decided by the PPT criterion: the state is entangled iff
the smallest symplectic eigenvalue nu of the partially transposed CM is
below 1 (sufficient and necessary for 1x1-mode Gaussian states).  Steering
is quantified in nats by g_ab = max(0, ln(det sigma_A / det sigma)/2) and
its B->A counterpart; steering implies entanglement but not conversely.

The criteria of a matrix have one implementation, vectorised over an
(N, 4, 4) stack: classify_many runs it on a stack, and the other matrix
entry points on a stack of one.  Each failing state gets the error of its
first failing check, in the order malformed, not PD (a NaN eigen route),
invariants not finite, PPT discriminant overflowing, then negative, PPT
denominator, route agreement, determinants; classify_many raises the first
failing state's.

A two-mode squeezed source (v, vp) sent through the probe channel (eta,
delta) is a state in standard form (Duan et al., PRL 84, 2722 (2000);
Simon, PRL 84, 2726 (2000)): sigma_A = a I, sigma_B = b I and
sigma_C = c diag(1, -1), with

    a = (v + vp)/2,  b = eta a + (1 - eta)(1 + delta),  c = sqrt(eta)(vp - v)/2,
    d = ab - c^2 = eta v vp + (1 - eta)(1 + delta) a,

d written without cancellation.  det sigma = d^2, det sigma_A = a^2,
det sigma_B = b^2 and Dt = a^2 + b^2 + 2c^2, so the criteria are closed
forms of these four numbers (Serafini, Illuminati and De Siena, J. Phys. B
37, L21 (2004)):

    nu = 2d / (a + b + sqrt((a - b)^2 + 4c^2)),  g_ab = max(0, ln(a/d)),
    g_ba = max(0, ln(b/d)).

source_criteria reads them over an eta grid, with no matrix.  It is the one
source of the true criteria: the sweep prints them and tomo reports them as
its truth.  The tests hold the matrix routes against it as its cross-check.

A reconstruction has no X-Y terms, so it is six numbers: an x block
[[x_c, c_x], [c_x, x_p]] and a y block [[y_c, c_y], [c_y, y_p]].  Its
invariants are det sigma = det X det Y, det A = x_c y_c, det B = x_p y_p and
Dt = x_c y_c + x_p y_p - 2 c_x c_y (its least symplectic eigenvalue is the
same closed form with + 2 c_x c_y).  _block_criteria classifies tomo's
reconstructions from them, with no matrix: the matrix routes and it feed
their invariants into one decision path, which gives a state the checks
above from not PD on.

The sudden-death thresholds are the same algebra, solved for eta: with
a = (v + vp)/2 and s = (1 - v)(vp - 1), each correlation survives at eta
iff p + q*eta > 0, linear in eta:

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

from .channels import _checked_etas
from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import (_failures, _finite_check, _invariants, _physical, _raise_first, _well_formed,
                       as_cm, as_spec, checked_delta, checked_matrices, symplectic_eigenvalues)

TOL_DECISION = 1e-9
STEERING_CLASSES = ("two-way", "one-way-AB", "one-way-BA", "none")

# lower end of the threshold bracket (0, 1]: a correlation still alive here
# counts as never dying
ETA_LO = 1e-6

# partial transpose of the probe mode flips the sign of Y_Pr: with
# P = diag(1, 1, 1, -1), P sigma P is sigma times this +-1 mask, exactly
_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
_PT_SIGNS.flags.writeable = False


def _discriminant(dt: np.ndarray, det_sigma: np.ndarray) -> tuple:
    """Dt^2 - 4 det sigma of each state, and the check that it is finite (Dt^2 can overflow)."""
    disc = dt * dt - 4.0 * det_sigma
    return disc, (~np.isfinite(disc), lambda i: NumericalError(
        f"PPT discriminant overflows (Dt = {float(dt[i])!r}, det sigma = {float(det_sigma[i])!r})"))


def _closed_form(dt: np.ndarray, det_sigma: np.ndarray) -> tuple:
    """Closed-form nu of each state, sqrt(discriminant), denominator, and their checks."""
    disc, finite_disc = _discriminant(dt, det_sigma)
    s = np.sqrt(np.maximum(disc, 0.0))
    denominator = dt + s
    nu = np.sqrt(np.maximum(2.0 * det_sigma / denominator, 0.0))
    checks = [
        finite_disc,
        (disc < -1e-9 * np.maximum(1.0, dt * dt), lambda i: NumericalError(
            f"PPT discriminant is negative beyond tolerance: {float(disc[i]):.3g}")),
        (denominator <= 0.0, lambda i: NumericalError(
            f"degenerate PPT invariants (Dt = {float(dt[i])!r})")),
    ]
    return nu, s, denominator, checks


def _allowance(dt, det_sigma, s, denominator) -> np.ndarray:
    """Degeneracy allowance: the closed form's resolution limit near symplectic degeneracy.

    The discriminant Dt^2 - 4 det sigma carries an absolute rounding noise
    of order eps * Dt^2; once the true discriminant falls below that, the
    small root is only determined to ~sqrt(eps) * scale.  Away from
    degeneracy this bound collapses to ~eps and the 1e-9 agreement gate
    stays fully strict.
    """
    noise = 8.0 * np.finfo(float).eps * np.maximum(1.0, dt * dt)
    ds = np.where(s * s <= noise, np.sqrt(noise), noise / (2.0 * s))
    nu2 = np.maximum(2.0 * det_sigma / np.maximum(denominator, np.finfo(float).tiny), 0.0)
    return np.where(nu2 <= 0.0, np.sqrt(noise), 4.0 * np.sqrt(nu2) * ds / (2.0 * denominator))


# the one error state of the PPT pass: its checks report overflow and NaN
@np.errstate(all="ignore")
def _ppt_nu(invariants: tuple, not_pd: np.ndarray, eigen=None) -> tuple:
    """PPT nu of each state by route ("nu", "closed" and, given, "eigen"), and the PPT checks
    in order: not PD (the mask not_pd), invariants not finite, the closed form's three, then,
    given the eigen route, the agreement gate; without it, "nu" is the closed form."""
    dt, det_sigma = invariants[:2]
    closed, s, denominator, closed_checks = _closed_form(dt, det_sigma)
    checks = [(not_pd, lambda i: UnphysicalStateError(
        "covariance matrix must be positive definite")), _finite_check(*invariants),
        *closed_checks]
    if eigen is None:
        return {"nu": closed, "closed": closed}, checks
    gap, strict = np.abs(closed - eigen), 1e-9 * np.maximum(1.0, np.abs(closed))
    disagree = ~(gap <= strict)  # NaN fails the gate
    wide = np.flatnonzero(disagree)  # the allowance is needed only past the strict gate
    if wide.size:
        allowance = _allowance(dt[wide], det_sigma[wide], s[wide], denominator[wide])
        disagree[wide] = ~(gap[wide] <= strict[wide] + allowance)
    checks.append((disagree, lambda i: NumericalError(
        f"PPT computation paths disagree: closed form {float(closed[i])!r} "
        f"vs eigen {float(eigen[i])!r}")))
    return {"nu": np.where(gap <= strict, closed, eigen), "closed": closed, "eigen": eigen}, checks


@np.errstate(all="ignore")
def _eigen_route(sigma: np.ndarray) -> np.ndarray:
    """The PPT nu of each matrix of a stack from symplectic_eigenvalues of P sigma P; NaN if
    the matrix is not PD."""
    return symplectic_eigenvalues(sigma * _PT_SIGNS)[:, 0]


def _ppt_route(cm, route: str, reads: int) -> float:
    """One matrix's PPT nu by one route, after the first `reads` PPT checks."""
    sigma = as_cm(cm).entries[None]
    eigen = _eigen_route(sigma)
    routes, checks = _ppt_nu(_invariants(sigma), np.isnan(eigen), eigen)
    _raise_first(checks[:reads])
    return float(routes[route][0])


def _steerability(ratios: np.ndarray, scale: float) -> np.ndarray:
    """g = max(0, scale ln(ratio)) of each element of an array of positive or NaN ratios.

    scale is positive.  A ratio in (0, 1] has ln(ratio) <= 0, so its g is
    +0.0 with no log taken; every other element (a live correlation, NaN,
    inf) reads math.log.
    """
    # math.log per element: numpy's vectorised log may round differently in
    # the last bit, and the tomo JSON prints these values in full
    logs = np.zeros(ratios.shape)
    alive = ~((ratios > 0.0) & (ratios <= 1.0))
    logs[alive] = list(map(math.log, ratios[alive].tolist()))
    return np.maximum(0.0, scale * logs)


def ppt_nu_closed_form(cm) -> float:
    """PPT nu from the symplectic-invariant formula.

    nu^2 = (Dt - sqrt(Dt^2 - 4 det sigma))/2 with Dt = det A + det B - 2 det C,
    evaluated through the conjugate form 2 det sigma / (Dt + sqrt(...)) so
    strongly squeezed states do not lose the small root to cancellation.
    A discriminant below -1e-9 (scaled) raises NumericalError; smaller
    negative rounding residue is clamped to zero.
    """
    return _ppt_route(cm, "closed", 5)  # not PD, invariants, its own three


def ppt_nu_eigen(cm) -> float:
    """PPT nu from symplectic_eigenvalues of P sigma P, the independent route."""
    return _ppt_route(cm, "eigen", 3)  # not PD, invariants, discriminant overflow


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
    return _ppt_route(cm, "nu", 6)


def steering(cm) -> tuple:
    """Gaussian steerabilities (g_ab, g_ba) in nats, from classify() and its checks.

    g_ab > 0 means Alice (conjugate side) can steer Bob's state, g_ba > 0
    the reverse; both vanish for product states.
    """
    report = classify(cm)
    return report.g_ab, report.g_ba


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
    """Bundle PPT and steering into one report: classify_many of a stack of one.

    Strict inequalities are decided with tolerance 1e-9: a nu within that
    margin of 1 counts as not entangled (conservative certification) and is
    marked as boundary by describe().
    """
    return classify_many(checked_matrices(cm, 2)[None]).report(0)


class CriteriaArrays(NamedTuple):
    """classify() of every state of a stack, one array per report field."""

    nu: np.ndarray
    entangled: np.ndarray
    g_ab: np.ndarray
    g_ba: np.ndarray
    steering_class: np.ndarray

    def report(self, i: int) -> CriteriaReport:
        """The CriteriaReport of state i, in Python scalars."""
        return CriteriaReport(*(column[i].item() for column in self))


def _criteria(sigmas) -> tuple:
    """classify_many's arrays of a stack, and {i: error} of each state failing a check.

    A failing state's values are meaningless; its g are NaN.
    """
    sigma, malformed = _well_formed(checked_matrices(sigmas, 3))
    eigen = _eigen_route(sigma)
    return _checked_criteria(_invariants(sigma), np.isnan(eigen), eigen, (malformed,))


def _block_criteria(numbers: np.ndarray) -> tuple:
    """The criteria, physicality and {i: error} of each row (x_c, y_c, x_p, y_p, c_x, c_y) of an
    (N, 6) array, its first four positive: a state with no X-Y terms (the module docstring).

    _criteria's decision path from the block invariants, with no matrix and no
    eigen route.  PD is taken block by block, det X > 0 and det Y > 0: det sigma
    > 0 does not tell, since both can be negative.
    """
    xc, yc, xp, yp, cx, cy = numbers.T
    with np.errstate(all="ignore"):
        det_x, det_y = xc * xp - cx * cx, yc * yp - cy * cy
        det_sigma, det_a, det_b, det_c = det_x * det_y, xc * yc, xp * yp, cx * cy
        pd = (det_x > 0.0) & (det_y > 0.0)
        nu_min = _closed_form(det_a + det_b + 2.0 * det_c, det_sigma)[0]
    arrays, failures = _checked_criteria((det_a + det_b - 2.0 * det_c, det_sigma, det_a, det_b),
                                         ~pd)
    return arrays, pd & _physical(nu_min), failures


def _checked_criteria(invariants: tuple, not_pd: np.ndarray, eigen=None, leading=()) -> tuple:
    """The arrays and {i: error} of states from their invariants (Dt, det sigma, det A, det B):
    the checks of leading, then _ppt_nu's, then the determinants; a failing state's g are NaN."""
    routes, ppt_checks = _ppt_nu(invariants, not_pd, eigen)
    _, det_sigma, det_a, det_b = invariants
    determinants = ((det_sigma <= 0.0) | (det_a <= 0.0) | (det_b <= 0.0),
                    lambda i: UnphysicalStateError(f"state determinants must be positive, "
                                                   f"got det sigma = {float(det_sigma[i]):.3g}"))
    failures = _failures([*leading, *ppt_checks, determinants])
    with np.errstate(all="ignore"):
        ratios = np.array([det_a, det_b]) / det_sigma
    if failures:  # NaN for the failing states, whose ratio math.log may reject
        ratios[:, list(failures)] = math.nan
    return _decided(routes["nu"], *_steerability(ratios, 0.5)), failures


def _decided(nu: np.ndarray, g_ab: np.ndarray, g_ba: np.ndarray) -> CriteriaArrays:
    """The arrays of nu and g, with the entangled flag and steering class they decide."""
    ab, ba = g_ab > TOL_DECISION, g_ba > TOL_DECISION
    # STEERING_CLASSES order: both, A->B only, B->A only, neither
    cls = np.array(STEERING_CLASSES)[2 * ~ab + ~ba]
    return CriteriaArrays(nu=nu, entangled=nu < 1.0 - TOL_DECISION,
                          g_ab=g_ab, g_ba=g_ba, steering_class=cls)


def classify_many(sigmas) -> CriteriaArrays:
    """The criteria of each matrix of an (N, 4, 4) stack, in one vectorised pass.

    The invariants, both PPT routes with their agreement gate (1e-9 plus the
    degeneracy allowance) and the steering determinant checks are evaluated
    element-wise; classify() of one state is this pass on a stack of one.
    The first failing state raises the error classify() raises for it.
    """
    arrays, failures = _criteria(sigmas)
    for error in failures.values():
        raise error
    return arrays


def _standard_form(spec, eta, delta) -> tuple:
    """(a, b, c, d) of a checked spec through the probe channel at an array of checked eta and a
    checked delta, or an array of them that broadcasts against eta (the module docstring).

    a is a float.  a and c are taken as make_tmss takes them, each half before
    the sum, so b and c are the channel outputs' entries bit for bit.
    """
    v, vp = spec.v, spec.vp
    a, noise = v / 2.0 + vp / 2.0, (1.0 - eta) * (1.0 + delta)
    return a, eta * a + noise, np.sqrt(eta) * (vp / 2.0 - v / 2.0), eta * v * vp + noise * a


@np.errstate(all="ignore")
def source_criteria(spec, etas, delta) -> CriteriaArrays:
    """classify_many of a two-mode squeezed source sent through the probe channel, over eta.

    The true criteria of the sweep and of tomo.  The same criteria as
    classify_many(apply_channel_grid(make_tmss(spec), etas, delta)) wherever
    the matrix routes resolve them, read from the standard form (a, b, c, d)
    of each state in closed form (see the module docstring): no matrix is
    built, and nu is resolved to float precision however strongly the source
    is squeezed.  spec and delta obey their rules and every eta lies in
    [0, 1].  delta is one excess noise, giving arrays of shape (N,), or a
    list or tuple of K of them, giving arrays of shape (K, N) whose row k is,
    bit for bit, the criteria at delta[k].  A state whose invariants
    Dt = a^2 + b^2 + 2c^2, det sigma = d^2, det A = a^2 and det B = b^2 are
    not finite raises the error classify raises for it; of a list, the first
    such state of the first delta that has one.  With them finite,
    (a - b)^2 + 4c^2 = Dt - 2d and every value is finite.  The source is not
    checked against float resolution: a command checks the matrices it builds.
    """
    spec = as_spec(spec)
    if isinstance(delta, (list, tuple)):
        delta = np.array([checked_delta(value) for value in delta])[:, None]
    else:
        delta = checked_delta(delta)
    a, b, c, d = _standard_form(spec, _checked_etas(etas), delta)
    # raveled, so that a state's index runs over the deltas in their order
    _raise_first([_finite_check(*map(np.ravel, (a * a + b * b + 2.0 * c * c, d * d, a * a,
                                                b * b)))])
    nu = 2.0 * d / (a + b + np.sqrt((a - b) ** 2 + 4.0 * c * c))
    return _decided(nu, *_steerability(np.array([a / d, b / d]), 1.0))


def _death_eta(p: float, q: float) -> Optional[float]:
    """Root -p/q of a correlation alive at eta iff p + q*eta > 0, or None.

    None when it is already dead at eta = 1 or still alive at ETA_LO.  Passing
    both checks implies q > 0 (also in rounded arithmetic, since rounding is
    monotone), so q = 0 never reaches the division.
    """
    if p + q <= 0.0 or p + q * ETA_LO > 0.0:
        return None
    return -p / q


def _death_etas(spec, delta: float) -> tuple:
    """(entanglement, A->B, B->A) thresholds of a checked spec and delta.

    The roots of the three lines of the module docstring, each by _death_eta.
    """
    v, vp = spec.v, spec.vp
    a, s, vvp = 0.5 * (v + vp), (1.0 - v) * (vp - 1.0), v * vp
    return (_death_eta(-(a - 1.0) * delta, s + (a - 1.0) * delta),
            _death_eta(-a * delta, (1.0 + delta) * a - vvp),
            _death_eta(-(1.0 + delta) * (a - 1.0), a - vvp + (1.0 + delta) * (a - 1.0)))


def entanglement_death_eta(spec, delta: float) -> Optional[float]:
    """Transmission efficiency where entanglement suddenly dies, or None.

    Returns the eta in (0, 1] with nu(eta) = 1, the closed-form root
    eta* = (a - 1) delta / (s + (a - 1) delta) of the entanglement line (see
    the module docstring).  None means no transition inside the bracket:
    either the channel is purely lossy (entanglement survives to eta -> 0)
    or the source has no entanglement to lose.
    """
    return _death_etas(as_spec(spec), checked_delta(delta))[0]


def steering_death_eta(spec, delta: float, direction: str) -> Optional[float]:
    """Transmission efficiency where one steering direction dies, or None.

    direction is "AB" (Alice steers Bob) or "BA".  The closed-form roots are
    eta* = a delta / ((1 + delta) a - v vp) for A->B and
    (1 + delta)(a - 1) / (a - v vp + (1 + delta)(a - 1)) for B->A (see the
    module docstring).  None means no transition inside (0, 1]: the
    direction either survives the whole bracket or never steers at all.
    """
    spec, delta = as_spec(spec), checked_delta(delta)
    if direction not in ("AB", "BA"):
        raise InputError(f"direction must be 'AB' or 'BA', got {direction!r}")
    return _death_etas(spec, delta)[1 if direction == "AB" else 2]


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
