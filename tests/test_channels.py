"""Lossy/noisy channel transform and its invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamcv.channels
from oamcv import (ChannelParams, CovarianceMatrix, InputError, NumericalError, SqueezingSpec,
                   UnphysicalStateError, apply_channel, apply_channel_grid,
                   apply_channel_multiplexed, make_multiplexed, make_tmss, symplectic_eigenvalues,
                   validate)
from conftest import INDEFINITE, V_REF, VP_REF, analytic_family_cm, deltas, etas, source_specs

REF_SPEC = SqueezingSpec(V_REF, VP_REF)


class TestChannelParams:
    def test_bounds(self):
        with pytest.raises(InputError):
            ChannelParams(1.2, 0.0)
        with pytest.raises(InputError):
            ChannelParams(-0.1, 0.0)
        with pytest.raises(InputError):
            ChannelParams(0.5, -0.5)

    def test_lossy_default(self):
        assert ChannelParams(0.7).delta == 0.0


class TestApplyChannel:
    def test_identity_channel(self):
        cm = make_tmss(REF_SPEC)
        out = apply_channel(cm, ChannelParams(1.0, 0.0))
        assert np.array_equal(out.entries, cm.entries)

    def test_full_loss_gives_noisy_vacuum_product(self):
        out = apply_channel(make_tmss(REF_SPEC), ChannelParams(0.0, 0.5)).entries
        assert np.allclose(np.diag(out), [2.29, 2.29, 1.5, 1.5], atol=1e-12)
        assert np.allclose(out[:2, 2:], 0.0)

    def test_half_loss_with_noise(self):
        out = apply_channel(make_tmss(REF_SPEC), ChannelParams(0.5, 1.0)).entries
        assert out[2, 2] == pytest.approx(2.145, abs=1e-12)
        assert out[0, 2] == pytest.approx(math.sqrt(0.5) * 1.82, abs=1e-12)

    def test_matches_closed_formulas(self):
        for eta, delta in [(0.25, 0.0), (0.5, 1.0), (0.9, 0.15), (0.31, 2.4)]:
            out = apply_channel(make_tmss(REF_SPEC), ChannelParams(eta, delta)).entries
            assert np.allclose(out, analytic_family_cm(V_REF, VP_REF, eta, delta),
                               rtol=0.0, atol=1e-12)

    def test_monte_carlo_beam_splitter_oracle(self):
        # independent route: mix joint Gaussian samples with a (1+delta) ancilla
        eta, delta = 0.5, 1.0
        n = 400_000
        rng = np.random.default_rng(20240211)
        xin = rng.multivariate_normal(np.zeros(4), make_tmss(REF_SPEC).entries, size=n)
        anc = rng.normal(0.0, math.sqrt(1.0 + delta), size=(n, 2))
        mixed = xin.copy()
        mixed[:, 2:] = math.sqrt(eta) * xin[:, 2:] + math.sqrt(1.0 - eta) * anc
        sampled = np.cov(mixed, rowvar=False)
        out = apply_channel(make_tmss(REF_SPEC), ChannelParams(eta, delta)).entries
        # sampling error of second moments at this n is below 0.01
        assert np.max(np.abs(sampled - out)) < 0.04

    def test_rejects_invalid_inputs(self):
        cm = make_tmss(REF_SPEC)
        with pytest.raises(InputError):
            apply_channel(cm, (1.5, 0.0))
        with pytest.raises(InputError):
            apply_channel(np.eye(3), ChannelParams(0.5))
        with pytest.raises(UnphysicalStateError):
            apply_channel(np.diag([0.5, 0.5, 0.5, 0.5]), ChannelParams(0.5))

    @settings(max_examples=150, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_output_always_physical(self, spec, eta, delta):
        out = apply_channel(make_tmss(spec), ChannelParams(eta, delta))
        assert validate(out).ok
        assert np.diag(out.entries).min() >= 1.0 - 1e-6  # no quadrature below vacuum

    @settings(max_examples=150, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_equals_the_checked_grid_row(self, spec, eta, delta):
        cm = make_tmss(spec)
        checked = CovarianceMatrix(apply_channel_grid(cm, [eta], delta)[0])
        assert apply_channel(cm, (eta, delta)).entries.tobytes() == checked.entries.tobytes()

    def test_output_is_frozen_without_the_checks(self, monkeypatch):
        cm = make_tmss(REF_SPEC)
        calls = []
        real = CovarianceMatrix.__post_init__
        monkeypatch.setattr(CovarianceMatrix, "__post_init__",
                            lambda self: calls.append(self) or real(self))
        out = apply_channel(cm, ChannelParams(0.5, 0.1))
        assert calls == [] and not out.entries.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(source_specs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_lossy_composition(self, spec, eta1, eta2):
        cm = make_tmss(spec)
        two_step = apply_channel(apply_channel(cm, ChannelParams(eta1)), ChannelParams(eta2))
        one_step = apply_channel(cm, ChannelParams(eta1 * eta2))
        assert np.allclose(two_step.entries, one_step.entries, rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(source_specs(), etas, deltas, deltas)
    def test_probe_variances_monotone_in_delta(self, spec, eta, d1, d2):
        lo, hi = sorted((d1, d2))
        cm = make_tmss(spec)
        out_lo = apply_channel(cm, ChannelParams(eta, lo)).entries
        out_hi = apply_channel(cm, ChannelParams(eta, hi)).entries
        assert out_hi[2, 2] >= out_lo[2, 2] - 1e-12
        assert out_hi[3, 3] >= out_lo[3, 3] - 1e-12


class TestApplyChannelGrid:
    @settings(max_examples=100, deadline=None)
    @given(source_specs(), st.lists(etas, min_size=1, max_size=20), deltas)
    def test_equals_apply_channel_per_eta(self, spec, grid, delta):
        cm = make_tmss(spec)
        stack = apply_channel_grid(cm, grid, delta)
        assert stack.shape == (len(grid), 4, 4)
        for eta, entries in zip(grid, stack):
            assert np.array_equal(entries, apply_channel(cm, ChannelParams(eta, delta)).entries)

    def test_factorises_the_source_once(self, monkeypatch):
        # one symplectic factorisation of the source per grid, whatever its length
        calls = []
        monkeypatch.setattr(oamcv.channels, "symplectic_eigenvalues",
                            lambda m: calls.append(m) or symplectic_eigenvalues(m))
        source = make_tmss(REF_SPEC)
        apply_channel_grid(source, np.linspace(0.0, 1.0, 50), 0.5)
        assert len(calls) == 1 and np.array_equal(calls[0], source.entries)

    def test_rejects_invalid_inputs(self):
        cm = make_tmss(REF_SPEC)
        with pytest.raises(UnphysicalStateError):
            apply_channel_grid(np.diag([0.5, 0.5, 0.5, 0.5]), [0.5])
        for grid in ([0.5, 1.5], [-0.1], [math.nan]):
            with pytest.raises(InputError):
                apply_channel_grid(cm, grid)
        with pytest.raises(InputError):
            apply_channel_grid(cm, [[0.5]])
        with pytest.raises(InputError):
            apply_channel_grid(cm, [0.5], -0.5)

    @pytest.mark.parametrize("m", INDEFINITE)
    def test_rejects_indefinite_source(self, m):
        with pytest.raises(UnphysicalStateError, match=r"min symplectic eigenvalue nan"):
            apply_channel_grid(m, [0.0, 0.5, 1.0])

    def test_source_invariants_are_checked_before_physicality(self, monkeypatch):
        # every determinant of this source overflows; no physicality check runs
        monkeypatch.setattr(oamcv.channels, "symplectic_eigenvalues", None)
        with pytest.raises(NumericalError, match=r"^state invariants are not finite"):
            apply_channel_grid(make_tmss(SqueezingSpec(1e-200, 1e200)), [0.5])

    @pytest.mark.parametrize("r", [5.4, 6.0, 6.5, 6.8, 7.0, 8.0, 10.0, 15.0, 50.0])
    def test_source_squeezed_beyond_float_resolution_is_numerical_error(self, r):
        # rounding moves nu_min of these pure sources by more than its distance to the bound
        with pytest.raises(NumericalError, match=r"^input state is squeezed beyond float "
                                                 r"resolution \(v = .*, v' = "):
            apply_channel_grid(make_tmss(SqueezingSpec.from_r(r)), [1.0])

    @pytest.mark.parametrize("r", [0.0, 2.0, 5.0, 5.3])
    def test_resolved_pure_source_passes(self, r):
        assert apply_channel_grid(make_tmss(SqueezingSpec.from_r(r)), [1.0]).shape == (1, 4, 4)

    def test_resolved_unphysical_source_is_input_error(self):
        # large entries, but nu_min = 0.1 lies far below the bound's rounding noise
        with pytest.raises(UnphysicalStateError, match=r"min symplectic eigenvalue 0\.1\)$"):
            apply_channel_grid(np.diag([1e5, 1e-7, 1e5, 1e-7]), [0.5])


class TestMultiplexedChannel:
    def test_identity_channel_keeps_state(self):
        ms = make_multiplexed({0: REF_SPEC, 1: REF_SPEC, 2: REF_SPEC})
        out = apply_channel_multiplexed(ms, ChannelParams(1.0, 0.0))
        for l in (0, 1, 2):
            assert np.array_equal(out[l].cm.entries, ms[l].cm.entries)

    def test_charge_independence(self):
        ms = make_multiplexed({0: REF_SPEC, 1: REF_SPEC, 2: REF_SPEC})
        out = apply_channel_multiplexed(ms, ChannelParams(0.6, 0.3))
        assert np.array_equal(out[0].cm.entries, out[1].cm.entries)
        assert np.array_equal(out[0].cm.entries, out[2].cm.entries)

    def test_half_loss_values(self):
        ms = make_multiplexed({l: REF_SPEC for l in (0, 1, 2)})
        out = apply_channel_multiplexed(ms, ChannelParams(0.5, 0.0))
        for l in (0, 1, 2):
            entries = out[l].cm.entries
            assert entries[2, 2] == pytest.approx(1.645, abs=1e-12)
            assert entries[0, 2] == pytest.approx(math.sqrt(0.5) * 1.82, abs=1e-12)

    def test_label_permutation_commutes(self):
        spec_a, spec_b = SqueezingSpec.from_r(0.4), SqueezingSpec(0.6, 2.5)
        ch = ChannelParams(0.5, 0.2)
        forward = apply_channel_multiplexed(make_multiplexed({0: spec_a, 1: spec_b}), ch)
        swapped = apply_channel_multiplexed(make_multiplexed({1: spec_a, 0: spec_b}), ch)
        assert np.array_equal(forward[0].cm.entries, swapped[1].cm.entries)
        assert np.array_equal(forward[1].cm.entries, swapped[0].cm.entries)

    def test_specs_preserved(self):
        ms = make_multiplexed({3: REF_SPEC})
        out = apply_channel_multiplexed(ms, ChannelParams(0.4, 1.0))
        assert out[3].spec == REF_SPEC
