"""Shared oracles and hypothesis strategies for the test suite."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import oamcv
from oamcv import SqueezingSpec
from oamcv.gaussian import OMEGA

# reference source of the experiments: -3.3 dB / 6.1 dB correlations
V_REF, VP_REF = 0.47, 4.11

# symmetric matrices that are not positive definite, although the moduli of
# the eigenvalues of i*Omega*sigma look physical (2.0 and 1.41 at the least)
INDEFINITE = (np.diag([-2.0] * 4),
              np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [3.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))


def eigvals_symplectic(m):
    """Third reference for symplectic spectra: moduli of the eigenvalues of i*Omega*sigma.

    A general (non-Hermitian) eigensolver that never tests positive
    definiteness; on a PD matrix each modulus appears twice, ascending pairs.
    """
    ev = np.abs(np.linalg.eigvals(1j * OMEGA @ m))
    ev.sort(axis=-1)
    return ev[..., ::2]


def analytic_family_cm(v, vp, eta, delta):
    """Distributed-state CM from the closed formulas, independent of apply_channel.

    V_a = (v + vp)/2, V_b = eta*V_a + (1 - eta)(1 + delta),
    V_c = sqrt(eta)*(vp - v)/2, arranged as [[Va I, Vc Z], [Vc Z, Vb I]].
    """
    va = (v + vp) / 2.0
    vb = eta * va + (1.0 - eta) * (1.0 + delta)
    vc = math.sqrt(eta) * (vp - v) / 2.0
    return np.array([[va, 0.0, vc, 0.0],
                     [0.0, va, 0.0, -vc],
                     [vc, 0.0, vb, 0.0],
                     [0.0, -vc, 0.0, vb]])


# digits of the exact oracles below: every float product and difference they take is exact
EXACT_DIGITS = 80


def _exact(numbers):
    """The six numbers (x_c, y_c, x_p, y_p, c_x, c_y) of a state as Decimals, with their
    (det X, det Y, det A, det B, det C)."""
    xc, yc, xp, yp, cx, cy = map(Decimal, numbers)
    return xc * xp - cx * cx, yc * yp - cy * cy, xc * yc, xp * yp, cx * cy


def _exact_least(numbers, sign):
    """Least symplectic eigenvalue of a PD state of six numbers, exactly, with Delta = det A +
    det B + sign * 2 det C: of its partial transpose for sign -1, of the state for +1."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        det_x, det_y, det_a, det_b, det_c = _exact(numbers)
        det_sigma, delta = det_x * det_y, det_a + det_b + sign * 2 * det_c
        return (2 * det_sigma / (delta + (delta * delta - 4 * det_sigma).sqrt())).sqrt()


def exact_pd(numbers) -> bool:
    """Whether a state of six numbers, its first four positive, is positive definite: both
    of its blocks are, det X > 0 and det Y > 0, exactly."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        det_x, det_y = _exact(numbers)[:2]
        return det_x > 0 and det_y > 0


def exact_nu(numbers) -> Decimal:
    """The PPT nu of a PD state of six numbers, in EXACT_DIGITS digits."""
    return _exact_least(numbers, -1)


def exact_nu_min(numbers) -> Decimal:
    """The least symplectic eigenvalue of a PD state of six numbers, in EXACT_DIGITS digits."""
    return _exact_least(numbers, 1)


def exact_g(numbers) -> tuple:
    """(g_ab, g_ba) of a PD state of six numbers, max(0, ln(det A / det sigma)/2) and its
    B->A twin, in EXACT_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        det_x, det_y, det_a, det_b, _ = _exact(numbers)
        return tuple(max(Decimal(0), (det / (det_x * det_y)).ln() / 2) for det in (det_a, det_b))


def block_errors(numbers, nu, g_ab, g_ba) -> tuple:
    """The errors of the float nu and g of a PD state of six numbers, each over its bound.

    The bounds are rounding's amplification: kappa, the condition numbers
    (x_c x_p + c_x^2)/|det X| + (y_c y_p + c_y^2)/|det Y| of the block
    determinants summed, and Dt/s, that of the closed form's square root
    s = sqrt(Dt^2 - 4 det sigma) near symplectic degeneracy.  nu's relative
    error is over eps (kappa + Dt/s), and the absolute error of each g over
    eps kappa.  Over 10,000 states (sampled reconstructions with n from 2 to
    1e6, and random six numbers) these read at most 0.63 and 0.95.
    """
    xc, yc, xp, yp, cx, cy = numbers
    eps = sys.float_info.epsilon
    kappa = ((xc * xp + cx * cx) / abs(xc * xp - cx * cx)
             + (yc * yp + cy * cy) / abs(yc * yp - cy * cy))
    exact = exact_nu(numbers)
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        det_x, det_y, det_a, det_b, det_c = _exact(numbers)
        dt = det_a + det_b - 2 * det_c
        disc = dt * dt - 4 * det_x * det_y
        split = float(dt / disc.sqrt()) if disc else math.inf
        nu_error = float(abs((Decimal(nu) - exact) / exact)) / (eps * (kappa + split))
        g_error = max(float(abs(Decimal(g) - want)) for g, want in zip((g_ab, g_ba),
                                                                      exact_g(numbers)))
    return nu_error, g_error / (eps * kappa)


def exact_joint(v, vp, eta, delta) -> Decimal:
    """The true joint variance b + a - 2c of a source sent through the probe channel, exactly:
    [v (1 + sqrt(eta))^2 + vp (1 - sqrt(eta))^2]/2 + (1 - eta)(1 + delta)."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        v, vp, eta, delta = map(Decimal, (v, vp, eta, delta))
        root = eta.sqrt()
        return (v * (1 + root) ** 2 + vp * (1 - root) ** 2) / 2 + (1 - eta) * (1 + delta)


@st.composite
def source_specs(draw, r_max=2.0, max_impurity=4.0):
    """Arbitrary physical sources: v = m e^{-2r}, vp = m e^{2r} with m >= 1."""
    r = draw(st.floats(0.0, r_max, allow_nan=False, allow_infinity=False))
    m = draw(st.floats(1.0, max_impurity, allow_nan=False, allow_infinity=False))
    return SqueezingSpec(m * math.exp(-2.0 * r), m * math.exp(2.0 * r))


@st.composite
def squeezed_specs(draw, r_min=0.05, r_max=2.0):
    """Sources that keep squeezing below vacuum (v < 1), the entangled family."""
    r = draw(st.floats(r_min, r_max, allow_nan=False, allow_infinity=False))
    m_cap = min(4.0, 0.999 * math.exp(2.0 * r))
    m = draw(st.floats(1.0, m_cap, allow_nan=False, allow_infinity=False))
    return SqueezingSpec(m * math.exp(-2.0 * r), m * math.exp(2.0 * r))


etas = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
deltas = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


def run_child(source: str, env: dict, *args) -> str:
    """Run source in a fresh interpreter that imports this package, with env added to the
    environment and args as sys.argv[1:]; its stdout, once it has exited 0."""
    src = str(Path(oamcv.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", source, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
