"""Lossy and noisy single-mode channel acting on the probe half of a state.

The probe mode undergoes a -> sqrt(eta) a + sqrt(1 - eta)(eps + mu) with a
vacuum mode mu and a noise mode eps of variance delta, so the probe block
of the covariance matrix maps to eta*B + (1 - eta)(1 + delta)*I while the
conjugate block stays with Alice untouched.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, UnphysicalStateError
from .gaussian import (ChannelParams, CovarianceMatrix, ModePair, MultiplexedState, _finite_check,
                       _from_pair, _invariants, _raise_first, as_cm, checked_delta, checked_eta,
                       validate)


def apply_channel(cm, ch) -> CovarianceMatrix:
    """Distribute the probe mode through a channel with parameters (eta, delta).

    Cross correlations scale by sqrt(eta).  For a symmetric two-mode squeezed
    input this yields V_b = eta*(v + vp)/2 + (1 - eta)(1 + delta) and
    V_c = sqrt(eta)*(vp - v)/2 exactly, with V_a unchanged.  This is the
    one-row case of apply_channel_grid.
    """
    ch = _from_pair(ChannelParams, ch, "a channel must be a ChannelParams or an (eta, delta) pair")
    return CovarianceMatrix(apply_channel_grid(cm, [ch.eta], ch.delta)[0])


def apply_channel_grid(cm, etas, delta: float = 0.0) -> np.ndarray:
    """apply_channel over a grid of eta at one delta, as an (N, 4, 4) stack.

    Entry i is the entries of apply_channel(cm, ChannelParams(etas[i], delta));
    the source is checked once for the whole grid (finite invariants, then
    validate()), and eta and delta obey the ChannelParams rules.
    """
    cm = as_cm(cm)
    grid = etas.tolist() if isinstance(etas, np.ndarray) else etas
    if not isinstance(grid, (list, tuple)):
        raise InputError(f"eta grid must be a list of numbers, got {etas!r}")
    etas = np.array([checked_eta(eta) for eta in grid], dtype=float)
    delta = checked_delta(delta)
    _raise_first([_finite_check(*_invariants(cm.entries[None]))])
    report = validate(cm)
    if not report.ok:
        raise UnphysicalStateError(
            f"input state is unphysical (min symplectic eigenvalue {report.min_symplectic:.6g})")
    added = (1.0 - etas) * (1.0 + delta)
    out = np.repeat(cm.entries[np.newaxis], len(etas), axis=0)
    out[:, 2:, 2:] = etas[:, None, None] * cm.entries[2:, 2:] + added[:, None, None] * np.eye(2)
    out[:, :2, 2:] = np.sqrt(etas)[:, None, None] * cm.entries[:2, 2:]
    out[:, 2:, :2] = out[:, :2, 2:].swapaxes(1, 2)
    return out


def apply_channel_multiplexed(ms: MultiplexedState, ch) -> MultiplexedState:
    """Apply the same channel independently to every charge of a multiplexed state.

    The transform does not depend on the charge label, so identical input
    states give identical outputs at every l; independence is preserved.
    """
    return MultiplexedState({l: ModePair(pair.spec, apply_channel(pair.cm, ch))
                             for l, pair in ms.items()})
