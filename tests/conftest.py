"""Shared oracles and hypothesis strategies for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

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
