"""Lossy and noisy single-mode channel acting on the probe half of a state.

The probe mode undergoes a -> sqrt(eta) a + sqrt(1 - eta)(eps + mu) with a
vacuum mode mu and a noise mode eps of variance delta, so the probe block
of the covariance matrix maps to eta*B + (1 - eta)(1 + delta)*I while the
conjugate block stays with Alice untouched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, UnphysicalStateError
from .gaussian import (PHYSICALITY_TOL, ChannelParams, CovarianceMatrix, ModePair, MultiplexedState,
                       _finite_check, _from_pair, _frozen, _invariants, _is_numeric_array,
                       _physical, _raise_first, as_cm, checked_delta, checked_eta,
                       symplectic_eigenvalues)


def apply_channel(cm, ch) -> CovarianceMatrix:
    """Distribute the probe mode through a channel with parameters (eta, delta).

    Cross correlations scale by sqrt(eta).  For a symmetric two-mode squeezed
    input this yields V_b = eta*(v + vp)/2 + (1 - eta)(1 + delta) and
    V_c = sqrt(eta)*(vp - v)/2 exactly, with V_a unchanged.  This is the
    one-row case of apply_channel_grid, with the same checks.
    """
    ch = _from_pair(ChannelParams, ch, "a channel must be a ChannelParams or an (eta, delta) pair")
    sigma = _check_source(as_cm(cm).entries)
    return _frozen(CovarianceMatrix, _channel_map(sigma, np.array([ch.eta]), ch.delta)[0])


def apply_channel_grid(cm, etas, delta: float = 0.0) -> np.ndarray:
    """apply_channel over a grid of eta at one delta, as an (N, 4, 4) stack.

    Entry i is the entries of apply_channel(cm, ChannelParams(etas[i], delta)).
    This is the checked entry point: cm is a covariance matrix, each eta and
    delta obey the ChannelParams rules, and the source passes _check_source,
    once for the whole grid.  The map itself is _channel_map.
    """
    cm = as_cm(cm)
    etas, delta = _checked_etas(etas), checked_delta(delta)
    return _channel_map(_check_source(cm.entries), etas, delta)


def _checked_etas(etas) -> np.ndarray:
    """An eta grid as a float array, the one grid rule of apply_channel_grid and source_criteria.

    A numeric 1-D array is checked whole, and a list or tuple (or any other
    array, as its list) entry by entry; either way the first eta outside
    [0, 1] raises checked_eta's error for it.  Anything else, and lists
    whose every entry is a list (a matrix), is not a list of numbers.
    """
    if _is_numeric_array(etas, float) and etas.ndim == 1:
        grid = np.asarray(etas, dtype=float)
        for eta in etas[~((grid >= 0.0) & (grid <= 1.0))].tolist():
            checked_eta(eta)  # raises on the first eta outside [0, 1]
        return grid
    grid = etas.tolist() if isinstance(etas, np.ndarray) else etas
    if not isinstance(grid, (list, tuple)) or (
            grid and all(isinstance(eta, (list, tuple)) for eta in grid)):
        raise InputError(f"eta grid must be a list of numbers, got {etas!r}")
    return np.array([checked_eta(eta) for eta in grid], dtype=float)


def _channel_map(sigma: np.ndarray, etas: np.ndarray, delta: float) -> np.ndarray:
    """The channel over an eta array at one delta, without checks, as an (N, 4, 4) stack.

    For a source that passed _check_source, etas in [0, 1] and delta >= 0 finite,
    every output is symmetric and finite: the probe block is a convex mix of the
    source's and (1 + delta) I, and the cross block is copied transposed.
    """
    added = (1.0 - etas) * (1.0 + delta)
    out = np.repeat(sigma[np.newaxis], len(etas), axis=0)
    out[:, 2:, 2:] = etas[:, None, None] * sigma[2:, 2:] + added[:, None, None] * np.eye(2)
    out[:, :2, 2:] = np.sqrt(etas)[:, None, None] * sigma[:2, 2:]
    out[:, 2:, :2] = out[:, :2, 2:].swapaxes(1, 2)
    return out


def _check_source(sigma: np.ndarray) -> np.ndarray:
    """The source sigma, once its invariants are finite and it is physical, within the
    resolution of its nu_min; else raises.

    Invariants that are not finite are a NumericalError (_finite_check).
    Rounding entries of size up to s moves nu_min by up to about eps s^2 (0.9 eps s^2
    seen on pure sources), so nu_min is resolved to noise = 8 eps s^2, as in _allowance.
    A nu_min within noise of the bound, or NaN (not PD) once noise exceeds the
    tolerance, is unresolved: a NumericalError naming the joint X variances
    v, v' = (s_XcXc + s_XpXp)/2 -+ s_XcXp, a two-mode squeezed source's v and v'.
    """
    _raise_first([_finite_check(*_invariants(sigma[None]))])
    nu = float(symplectic_eigenvalues(sigma)[0])
    scale = float(np.abs(sigma).max())
    noise = 8.0 * np.finfo(float).eps * scale * scale
    if abs(nu - (1.0 - PHYSICALITY_TOL)) <= noise or (math.isnan(nu) and noise > PHYSICALITY_TOL):
        mean, cross = (sigma[0, 0] + sigma[2, 2]) / 2.0, sigma[0, 2]
        raise NumericalError(
            f"input state is squeezed beyond float resolution (v = {mean - cross:.6g}, "
            f"v' = {mean + cross:.6g}): its min symplectic eigenvalue {nu:.6g} is known "
            f"only to +-{noise:.3g}")
    if not _physical(nu):
        raise UnphysicalStateError(
            f"input state is unphysical (min symplectic eigenvalue {nu:.6g})")
    return sigma


def apply_channel_multiplexed(ms: MultiplexedState, ch) -> MultiplexedState:
    """Apply the same channel independently to every charge of a multiplexed state.

    The transform does not depend on the charge label, so identical input
    states give identical outputs at every l; independence is preserved.
    """
    return MultiplexedState({l: ModePair(pair.spec, apply_channel(pair.cm, ch))
                             for l, pair in ms.items()})
