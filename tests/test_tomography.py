"""Homodyne measurement simulation and covariance reconstruction."""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oamcv import (ChannelParams, InputError, NumericalError, ReconstructionWarning, SampleBatch,
                   SqueezingSpec, UnphysicalStateError, VarianceSet, apply_channel,
                   apply_channel_grid, db_to_linear, expected_variances, linear_to_db, make_tmss,
                   read_variances_csv, reconstruct_cm, sampled_variances, simulate_measurements,
                   source_criteria, variances_from_batches, write_batch_csv, write_variances_csv)
from oamcv.channels import _channel_map, _check_source
from oamcv.cli import SweepConfig, run_tomo
from oamcv.gaussian import PHYSICALITY_TOL
from oamcv.tomography import (SETTINGS, SNL_REFERENCE, _filled, _sampled_db, _simulable,
                              _six_numbers, _stderr_db, _true_state, _variances,
                              covariance_from_difference, covariance_from_sum, setting_variance)
from conftest import INDEFINITE, V_REF, VP_REF, deltas, etas, exact_joint, source_specs

REF_CM = make_tmss(SqueezingSpec(V_REF, VP_REF))
EPS = np.finfo(float).eps


def checked_set(variances, n=None) -> VarianceSet:
    """The VarianceSet of six absolute variances, through linear_to_db and the checked
    constructor, with the standard errors of n draws if n is given."""
    stderr = None if n is None else (10.0 / math.log(10.0) * math.sqrt(2.0 / (n - 1)),) * 6
    return VarianceSet(*(linear_to_db(var / SNL_REFERENCE[s]).value
                         for s, var in zip(SETTINGS, variances)), stderr_db=stderr)


class TestSettingVariance:
    def test_reference_values(self):
        assert setting_variance(REF_CM, "Xc") == pytest.approx(2.29, abs=1e-12)
        assert setting_variance(REF_CM, "Xdiff") == pytest.approx(0.94, abs=1e-12)
        assert setting_variance(REF_CM, "Ysum") == pytest.approx(0.94, abs=1e-12)

    def test_unknown_setting(self):
        with pytest.raises(InputError):
            setting_variance(REF_CM, "Xsum")


class TestSimulateMeasurements:
    def test_vacuum_variances(self):
        n = 100_000
        batches = simulate_measurements(np.eye(4), n, seed=1)
        for batch in batches[:4]:
            assert np.var(batch.samples, ddof=1) == pytest.approx(1.0, abs=3 * math.sqrt(2 / n))

    def test_reference_state_variances(self):
        n = 100_000
        batches = simulate_measurements(REF_CM, n, seed=2)
        tol = 3 * math.sqrt(2.0 / n)
        for batch in batches:
            true = setting_variance(REF_CM, batch.setting)
            assert np.var(batch.samples, ddof=1) == pytest.approx(true, abs=3 * true * math.sqrt(2 / n))
        # the joint settings sit 3.3 dB below the two-mode SNL
        xdiff = np.var(batches[4].samples, ddof=1)
        assert 10 * math.log10(xdiff / 2.0) == pytest.approx(-3.3, abs=0.1)

    def test_deterministic_and_reproducible_from_batch_seed(self):
        first = simulate_measurements(REF_CM, 1000, seed=42)
        second = simulate_measurements(REF_CM, 1000, seed=42)
        for a, b in zip(first, second):
            assert np.array_equal(a.samples, b.samples)
        # each batch regenerates from its own recorded integer seed
        for batch in first:
            sigma = math.sqrt(setting_variance(REF_CM, batch.setting))
            regen = np.random.default_rng(batch.seed).normal(0.0, sigma, batch.samples.size)
            assert np.array_equal(regen, batch.samples)

    def test_different_seeds_differ(self):
        a = simulate_measurements(REF_CM, 100, seed=1)[0]
        b = simulate_measurements(REF_CM, 100, seed=2)[0]
        assert not np.array_equal(a.samples, b.samples)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            simulate_measurements(REF_CM, 1, seed=0)
        with pytest.raises(UnphysicalStateError):
            simulate_measurements(np.diag([0.5, 0.5, 0.5, 0.5]), 100, seed=0)

    @pytest.mark.parametrize("n, seed, text", [
        (2.7, 0, "n_per_setting must be an integer >= 2"),
        (True, 0, "n_per_setting must be an integer >= 2"),
        (1, 0, "n_per_setting must be an integer >= 2"),
        (100, -1, "seed must be a non-negative integer"),
        (100, True, "seed must be a non-negative integer"),
        (100, 1.5, "seed must be a non-negative integer"),
        (100, None, "seed must be a non-negative integer"),
    ])
    def test_sampling_rule(self, n, seed, text):
        with pytest.raises(InputError, match=text):
            simulate_measurements(REF_CM, n, seed)

    def test_numpy_integer_sampling_parameters(self):
        batches = simulate_measurements(REF_CM, np.int64(50), np.uint64(3))
        assert [b.samples.tolist() for b in batches] == \
            [b.samples.tolist() for b in simulate_measurements(REF_CM, 50, 3)]

    @pytest.mark.parametrize("m", INDEFINITE)
    def test_rejects_indefinite_state(self, m):
        with pytest.raises(UnphysicalStateError, match=r"min symplectic nan"):
            simulate_measurements(m, 100, seed=0)

    @pytest.mark.parametrize("m", [
        *INDEFINITE, np.diag([0.5, 0.5, 0.5, 0.5]), np.diag([1.0, 1.0, 1.0, math.inf]),
        np.eye(4) + np.diag([0.5, 0.0, 0.0], 1), [["1"] * 4] * 4,
        [[10 ** 400, 0, 0, 0], *np.eye(4)[1:]]],
        ids=["indefinite-diag", "indefinite-mixed", "unphysical", "infinite", "asymmetric",
             "text", "huge-int"])
    def test_sample_and_chi2_paths_reject_a_state_alike(self, m):
        # one stacked check serves simulate_measurements and sampled_variances
        with pytest.raises(InputError) as sample:
            simulate_measurements(m, 100, seed=0)
        with pytest.raises(InputError) as chi2:
            sampled_variances([m], 100, [0])
        assert type(sample.value) is type(chi2.value)
        assert str(sample.value) == str(chi2.value)


    def test_draws_are_frozen_without_a_scan(self, monkeypatch):
        n = 1000
        sizes = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite",
                            lambda x, *args: sizes.append(np.size(x)) or real(x, *args))
        batches = simulate_measurements(REF_CM, n, seed=2)
        # the state's own check runs; no draw is scanned again
        assert sizes and max(sizes) < n
        for batch in batches:
            assert not batch.samples.flags.writeable
            checked = SampleBatch(batch.setting, batch.samples, batch.seed)
            assert checked.samples.tobytes() == batch.samples.tobytes()
            assert type(batch.seed) is int and checked.seed == batch.seed

    def test_overflowing_joint_variance_is_numerical_error(self):
        # the entries are physical, but Xdiff = s_pp + s_cc - 2 s_cp overflows
        m = np.diag([1e308] * 4)
        for entry_point in (lambda: expected_variances(m), lambda: simulate_measurements(m, 10, 1),
                            lambda: sampled_variances(m[None], 10, [1])):
            with pytest.raises(NumericalError, match=r"^variance of Xdiff is not positive and "
                                                     r"finite: inf$"):
                entry_point()


class TestVariancesFromBatches:
    def test_vacuum_near_zero_db(self):
        vs = variances_from_batches(simulate_measurements(np.eye(4), 100_000, seed=3))
        for setting in SETTINGS:
            assert abs(vs.db(setting)) < 0.1
            assert vs.stderr(setting) == pytest.approx(
                10 / math.log(10) * math.sqrt(2 / (100_000 - 1)))

    def test_reference_round_trip_values(self):
        vs = variances_from_batches(simulate_measurements(REF_CM, 100_000, seed=4))
        for setting in ("Xc", "Yc", "Xp", "Yp"):
            assert vs.db(setting) == pytest.approx(3.6, abs=0.1)
        for setting in ("Xdiff", "Ysum"):
            assert vs.db(setting) == pytest.approx(-3.3, abs=0.1)

    def test_order_independent(self):
        batches = simulate_measurements(REF_CM, 5_000, seed=5)
        assert variances_from_batches(batches) == variances_from_batches(batches[::-1])

    def test_degenerate_batch_rejected(self):
        batches = list(simulate_measurements(REF_CM, 100, seed=6))
        batches[0] = SampleBatch("Xc", np.zeros(100), seed=0)
        with pytest.raises(InputError, match="degenerate"):
            variances_from_batches(batches)

    def test_overflowing_sample_variance_is_input_error_without_a_warning(self):
        # finite samples whose squares overflow
        batches = list(simulate_measurements(REF_CM, 100, seed=6))
        batches[2] = SampleBatch("Xp", np.array([1e154, -1e154] * 50), seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError,
                               match=r"^degenerate batch for 'Xp': sample variance is inf$"):
                variances_from_batches(batches)
        assert caught == []

    @settings(max_examples=40, deadline=None)
    @given(source_specs(), etas, deltas, st.integers(0, 2 ** 64 - 1))
    def test_equals_the_checked_variance_set(self, spec, eta, delta, seed):
        batches = simulate_measurements(apply_channel(make_tmss(spec), (eta, delta)), 200, seed)
        checked = checked_set([float(np.var(b.samples, ddof=1)) for b in batches], 200)
        assert repr(variances_from_batches(batches)) == repr(checked)

    def test_missing_and_duplicate_settings(self):
        batches = simulate_measurements(REF_CM, 100, seed=7)
        with pytest.raises(InputError):
            variances_from_batches(batches[:5])
        with pytest.raises(InputError):
            variances_from_batches(list(batches) + [batches[0]])


def ratios(measured, cm) -> np.ndarray:
    """s^2 / sigma^2 of each VarianceSet and setting, (N, 6)."""
    truth = [setting_variance(cm, s) for s in SETTINGS]
    return np.array([[vs.absolute_variance(s) for s in SETTINGS] for vs in measured]) / truth


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: largest gap between the empirical CDFs."""
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), points, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), points, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestSampledVariances:
    N, N_SEEDS = 5, 4000
    CM = apply_channel(REF_CM, ChannelParams(0.7, 0.3))

    def stack(self, count: int) -> np.ndarray:
        return np.broadcast_to(self.CM.entries, (count, 4, 4))

    @pytest.fixture(scope="class")
    def drawn(self) -> np.ndarray:
        """s^2 / sigma^2 of the drawn variances over seeds 0 ... N_SEEDS - 1."""
        return ratios(sampled_variances(self.stack(self.N_SEEDS), self.N, range(self.N_SEEDS)),
                      self.CM)

    def test_first_two_moments_follow_chi_squared(self, drawn):
        # (n - 1) s^2 / sigma^2 ~ chi^2(k), k = n - 1: s^2 / sigma^2 has mean 1,
        # variance 2/k and fourth central moment 12 (k + 4) / k^3
        k = self.N - 1
        var, mu4 = 2.0 / k, 12.0 * (k + 4) / k ** 3
        se_mean = math.sqrt(var / self.N_SEEDS)
        se_var = math.sqrt((mu4 - var ** 2) / self.N_SEEDS)
        assert np.all(np.abs(drawn.mean(axis=0) - 1.0) < 4 * se_mean)
        assert np.all(np.abs(drawn.var(axis=0, ddof=1) - var) < 4 * se_var)

    def test_same_law_as_the_samples(self, drawn):
        # the sample path on other seeds, whose generators share no stream with the draws
        sampled = ratios([variances_from_batches(simulate_measurements(self.CM, self.N, seed))
                          for seed in range(self.N_SEEDS, 2 * self.N_SEEDS)], self.CM)
        critical = 1.63 * math.sqrt(2.0 / self.N_SEEDS)  # 1% level
        for column in range(len(SETTINGS)):
            assert ks_statistic(drawn[:, column], sampled[:, column]) < critical

    def test_stderr_of_the_sample_path(self):
        sample_path = variances_from_batches(simulate_measurements(self.CM, 1000, 3))
        assert sampled_variances(self.stack(1), 1000, [3])[0].stderr_db == sample_path.stderr_db

    def test_each_state_reproducible_from_its_seed(self):
        seeds = [11, 0, 2 ** 64 - 1]
        stack = np.array([REF_CM.entries, self.CM.entries, np.eye(4)])
        measured = sampled_variances(stack, 1000, seeds)
        for sigma, seed, vs in zip(stack, seeds, measured):
            assert sampled_variances(sigma[None], 1000, [seed]) == [vs]
        # the recipe: one Gamma((n - 1)/2) draw per setting from the child seeds
        children = np.random.SeedSequence(11).generate_state(len(SETTINGS), np.uint64)
        for setting, child in zip(SETTINGS, children):
            draw = np.random.default_rng(int(child)).standard_gamma(499.5) \
                * setting_variance(REF_CM, setting) / 499.5
            assert measured[0].db(setting) == 10 * math.log10(draw / SNL_REFERENCE[setting])

    @settings(max_examples=60, deadline=None)
    @given(source_specs(), etas, deltas, st.integers(0, 2 ** 64 - 1))
    def test_equals_the_checked_variance_set(self, spec, eta, delta, seed):
        cm = apply_channel(make_tmss(spec), (eta, delta))
        children = np.random.SeedSequence(seed).generate_state(len(SETTINGS), np.uint64)
        draws = [np.random.default_rng(int(child)).standard_gamma(499.5)
                 * setting_variance(cm, setting) / 499.5
                 for setting, child in zip(SETTINGS, children)]
        measured = sampled_variances(cm.entries[None], 1000, [seed])[0]
        assert repr(measured) == repr(checked_set(draws, 1000))

    @pytest.mark.parametrize("seed", [0, 4, 5, 9])
    def test_overflowing_draw_is_numerical_error(self, seed):
        # a physical state whose draws overflow for these seeds: a computed fault
        with pytest.raises(NumericalError, match=r"^a sampled variance is not in \(0, inf\): "
                                                 r"\[.*inf.*\] \(seed \d+\)$"):
            sampled_variances(np.diag([1.7e308, 1.0, 1.0, 1.0])[None], 2, [seed])

    def test_tomo_point_reproducible_from_its_recorded_seed(self):
        # the same draws: the single settings bit for bit, the joint ones to the
        # channel matrix's rounding of their true variance, b + a - 2c
        config = SweepConfig(charges=(1,), deltas=(0.5,), eta_step=0.25, n_per_setting=50)
        for entry in run_tomo(config)["results"]:
            cm = apply_channel(make_tmss(config.specs[1]), ChannelParams(entry["eta"], 0.5))
            vs = sampled_variances(cm.entries[None], 50, [entry["seed"]])[0]
            measured = entry["reconstructed"]["variances_db"]
            for s in SETTINGS:
                assert measured[s] == pytest.approx(vs.db(s), rel=0, abs=1e-13)
                assert s in ("Xdiff", "Ysum") or measured[s] == vs.db(s)

    @pytest.mark.parametrize("bad", [*INDEFINITE, np.diag([0.5, 0.5, 0.5, 0.5])])
    def test_rejects_state_not_pd_or_unphysical(self, bad):
        with pytest.raises(UnphysicalStateError, match=r"state 1\)$"):
            sampled_variances(np.array([REF_CM.entries, bad, REF_CM.entries]), 100, [0, 1, 2])

    @pytest.mark.parametrize("n, seed, text", [
        (2.7, 0, "n_per_setting must be an integer >= 2"),
        (1, 0, "n_per_setting must be an integer >= 2"),
        (100, -1, "seed must be a non-negative integer"),
        (100, None, "seed must be a non-negative integer"),
    ])
    def test_sampling_rule_on_n_and_every_seed(self, n, seed, text):
        with pytest.raises(InputError, match=text):
            sampled_variances(self.stack(2), n, [0, seed])

    @pytest.mark.parametrize("sigmas, seeds, text", [
        (np.eye(4), [0], r"\(N, 4, 4\) stack"),
        ([[["a"] * 4] * 4], [0], "must be numbers"),
        (np.ones((1, 4, 4)) * np.nan, [0], "must be finite"),
        (np.array([[[1.0, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]), [0],
         "not symmetric"),
        (np.array([np.eye(4)] * 2), [0], "2 states need 2 seeds"),
    ])
    def test_rejects_bad_stacks(self, sigmas, seeds, text):
        with pytest.raises(InputError, match=text):
            sampled_variances(sigmas, 100, seeds)


@st.composite
def accepted_sources(draw):
    """Sources _check_source accepts: v = m e^{-2r}, vp = m e^{2r} with r in [0, 9], and either
    an impurity m in [1, 4] or m a few resolution units 8 eps a^2 above the bound 1 - tol."""
    r = draw(st.floats(0.0, 9.0))
    a = math.cosh(2.0 * r)
    units = draw(st.floats(0.0, 8.0))
    m = draw(st.one_of(st.floats(1.0, 4.0), st.just(
        1.0 - PHYSICALITY_TOL + units * 8.0 * np.finfo(float).eps * a * a)))
    try:
        return _check_source(make_tmss(SqueezingSpec(m * math.exp(-2.0 * r),
                                                     m * math.exp(2.0 * r))).entries)
    except (InputError, NumericalError):
        assume(False)


# the loss-only and paper noise levels, a large one, and the usual range
TOMO_DELTAS = st.one_of(st.sampled_from([0.0, 0.15, 1.0, 1e3, 1e6]), deltas)


class TestDrawCore:
    """run_tomo draws with _sampled_db from the true variances of _true_state, unchecked."""

    @settings(max_examples=300, deadline=None)
    @given(accepted_sources(), st.lists(etas, max_size=16), TOMO_DELTAS)
    def test_channel_outputs_of_an_accepted_source_are_simulable(self, source, grid, delta):
        # _simulable, kept as the oracle, never rejects these outputs and returns
        # _variances of them bit for bit
        stack = _channel_map(source, np.array([0.0, *grid, 1.0]), delta)
        assert _simulable(stack).tobytes() == _variances(stack).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(source_specs(r_max=5.0), st.lists(etas, max_size=16),
           st.lists(TOMO_DELTAS, min_size=1, max_size=3, unique=True),
           st.lists(st.integers(0, 2 ** 64 - 1), min_size=18, max_size=18),
           st.integers(2, 10 ** 6))
    def test_true_state_is_the_channel_outputs(self, spec, grid, deltas, seeds, n):
        # the six numbers are the channel outputs of the source matrix, hex for hex,
        # and so are the single-mode variances and their draws; only the joint
        # variances are taken another way (test_joint_variance_is_exact)
        grid = np.array([0.0, *grid, 1.0])
        variances, numbers = _true_state(spec, grid, deltas)
        for k, delta in enumerate(deltas):
            stack = _channel_map(make_tmss(spec).entries, grid, delta)
            assert [x.hex() for x in _filled(numbers[k]).ravel().tolist()] == \
                [x.hex() for x in stack.ravel().tolist()]
            assert variances[k, :, :4].tobytes() == _variances(stack)[:, :4].tobytes()
            draws = np.array(list(_sampled_db(variances[k].tolist(), n, seeds)))
            matrix_draws = np.array(list(_sampled_db(_variances(stack).tolist(), n, seeds)))
            assert draws[:, :4].tobytes() == matrix_draws[:, :4].tobytes()

    @pytest.mark.parametrize("r", [0.5, 2, 4, 5, 5.3, 8, 15])
    def test_joint_variance_is_exact(self, r):
        # b + a - 2c of the channel outputs loses digits as the source is squeezed
        # (7.7e5 eps at r = 4); the cancellation-free form read 3.02 eps at worst
        spec = SqueezingSpec.from_r(r)
        grid = np.linspace(0.0, 1.0, 1001)
        variances = _true_state(spec, grid, [0.0, 1.0])[0]
        for k, delta in enumerate((0.0, 1.0)):
            assert np.array_equal(variances[k, :, 4], variances[k, :, 5])
            for eta, joint in zip(grid.tolist(), variances[k, :, 4].tolist()):
                exact = exact_joint(spec.v, spec.vp, eta, delta)
                assert abs(float((Decimal(joint) - exact) / exact)) <= 4 * EPS, (eta, delta)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 177.0), st.floats(1.0, 4.0), st.lists(etas, max_size=16), TOMO_DELTAS)
    def test_true_variances_of_any_finite_state_are_drawable(self, r, m, grid, delta):
        # every true variance is positive and finite wherever the states'
        # invariants are (source_criteria passes), however squeezed the source
        spec = SqueezingSpec(m * math.exp(-2.0 * r), m * math.exp(2.0 * r))
        grid = np.array([0.0, *grid, 1.0])
        try:
            source_criteria(spec, grid, delta)
        except NumericalError:
            assume(False)
        variances = _true_state(spec, grid, [delta])[0]
        assert ((variances > 0.0) & (variances < math.inf)).all()

    @settings(max_examples=100, deadline=None)
    @given(source_specs(), st.lists(st.tuples(etas, st.integers(0, 2 ** 64 - 1)), min_size=1,
                                    max_size=8),
           deltas, st.integers(2, 10 ** 6))
    def test_is_the_public_path_bit_for_bit(self, spec, points, delta, n):
        grid, seeds = (list(column) for column in zip(*points))
        stack = apply_channel_grid(make_tmss(spec), grid, delta)
        rows = list(_sampled_db(_variances(stack).tolist(), n, seeds))
        measured = sampled_variances(stack, n, seeds)
        assert np.array([[vs.db(s) for s in SETTINGS] for vs in measured]).tobytes() == \
            np.array(rows).tobytes()
        assert all(vs.stderr_db == (_stderr_db(n),) * len(SETTINGS) for vs in measured)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReconstructionWarning)
            for vs, row in zip(measured, rows):
                assert reconstruct_cm(vs).entries.tobytes() == \
                    _filled(_six_numbers([row]))[0].tobytes()
        assert _six_numbers(rows).tobytes() == \
            np.array([_six_numbers([row])[0] for row in rows]).tobytes()


class TestReconstruct:
    def test_exact_on_analytic_variances(self):
        for eta, delta in [(1.0, 0.0), (0.5, 0.0), (0.3, 0.5), (0.7, 1.0)]:
            cm = apply_channel(REF_CM, ChannelParams(eta, delta))
            rec = reconstruct_cm(expected_variances(cm))
            assert np.allclose(rec.entries, cm.entries, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(source_specs())
    def test_exact_on_analytic_variances_family(self, spec):
        cm = make_tmss(spec)
        rec = reconstruct_cm(expected_variances(cm))
        assert np.allclose(rec.entries, cm.entries, rtol=1e-12, atol=1e-12)

    def test_reference_decibel_values(self):
        vs = VarianceSet(3.6, 3.6, 3.6, 3.6, -3.3, -3.3)
        rec = reconstruct_cm(vs).entries
        assert rec[0, 0] == pytest.approx(2.29, abs=0.01)
        assert rec[0, 2] == pytest.approx(1.82, abs=0.01)
        assert rec[1, 3] == pytest.approx(-1.82, abs=0.01)
        assert rec[0, 1] == 0.0 and rec[0, 3] == 0.0 and rec[1, 2] == 0.0

    def test_vacuum_reconstructs_identity(self):
        assert np.array_equal(reconstruct_cm(VarianceSet(0, 0, 0, 0, 0, 0)).entries, np.eye(4))

    def test_sign_forms_agree_on_analytic_data(self):
        s = REF_CM.entries
        var_xp, var_xc = s[2, 2], s[0, 0]
        var_diff = var_xp + var_xc - 2 * s[0, 2]
        var_sum = var_xp + var_xc + 2 * s[0, 2]
        from_diff = covariance_from_difference(var_diff, var_xp, var_xc)
        from_sum = covariance_from_sum(var_sum, var_xp, var_xc)
        assert from_diff == pytest.approx(from_sum, abs=1e-12)
        assert from_diff == pytest.approx(s[0, 2], abs=1e-12)

    def test_unphysical_data_warns_instead_of_raising(self):
        vs = VarianceSet(0.0, 0.0, 0.0, 0.0, -10.0, 0.0)
        with pytest.warns(ReconstructionWarning):
            reconstruct_cm(vs)

    def test_indefinite_reconstruction_warns(self):
        # Var(Xp - Xc) = 8 with unit single variances puts cov(Xc, Xp) at -3:
        # the X block [[1, -3], [-3, 1]] is indefinite
        vs = VarianceSet(0.0, 0.0, 0.0, 0.0, 10.0 * math.log10(4.0), 0.0)
        with pytest.warns(ReconstructionWarning, match=r"min symplectic nan"):
            cm = reconstruct_cm(vs)
        assert cm.entries[0, 2] == pytest.approx(-3.0, abs=1e-12)

    def test_full_scale_round_trip(self):
        # entrywise agreement within 3 standard errors at n = 1e5, >= 95/100 seeds
        n = 100_000
        s = REF_CM.entries
        tol = np.zeros((4, 4))
        for i in range(4):
            tol[i, i] = 3 * s[i, i] * math.sqrt(2 / (n - 1))
        se_x = 0.5 * math.sqrt(2 / (n - 1)) * math.sqrt(
            setting_variance(REF_CM, "Xdiff") ** 2 + s[0, 0] ** 2 + s[2, 2] ** 2)
        se_y = 0.5 * math.sqrt(2 / (n - 1)) * math.sqrt(
            setting_variance(REF_CM, "Ysum") ** 2 + s[1, 1] ** 2 + s[3, 3] ** 2)
        tol[0, 2] = tol[2, 0] = 3 * se_x
        tol[1, 3] = tol[3, 1] = 3 * se_y
        tol[tol == 0.0] = 1e-12
        passed = sum(
            bool(np.all(np.abs(
                reconstruct_cm(variances_from_batches(
                    simulate_measurements(REF_CM, n, seed))).entries - s) <= tol))
            for seed in range(100))
        assert passed >= 95

    def test_statistical_round_trip(self):
        n, n_seeds = 20_000, 20
        cm = apply_channel(REF_CM, ChannelParams(0.7, 0.3))
        s = cm.entries
        # 4-sigma tolerances from Var(s^2) = 2 sigma^4/(n-1) per entry
        tol = np.zeros((4, 4))
        for i in range(4):
            tol[i, i] = 4 * s[i, i] * math.sqrt(2 / (n - 1))
        se_x = 0.5 * math.sqrt(2 / (n - 1)) * math.sqrt(
            setting_variance(cm, "Xdiff") ** 2 + s[0, 0] ** 2 + s[2, 2] ** 2)
        se_y = 0.5 * math.sqrt(2 / (n - 1)) * math.sqrt(
            setting_variance(cm, "Ysum") ** 2 + s[1, 1] ** 2 + s[3, 3] ** 2)
        tol[0, 2] = tol[2, 0] = 4 * se_x
        tol[1, 3] = tol[3, 1] = 4 * se_y
        tol[tol == 0.0] = 1e-12  # structurally zero entries are exact
        passed = 0
        for seed in range(n_seeds):
            rec = reconstruct_cm(variances_from_batches(simulate_measurements(cm, n, seed)))
            if np.all(np.abs(rec.entries - s) <= tol):
                passed += 1
        assert passed >= n_seeds - 2


class TestCsv:
    def test_variance_round_trip(self, tmp_path):
        vs = variances_from_batches(simulate_measurements(REF_CM, 1000, seed=8))
        path = tmp_path / "variances.csv"
        write_variances_csv(vs, path)
        header = path.read_text().splitlines()[0]
        assert header == "setting,db,stderr_db"
        assert read_variances_csv(path) == vs

    @settings(max_examples=60, deadline=None)
    @given(source_specs(), etas, deltas)
    def test_expected_variances_equal_the_checked_set(self, spec, eta, delta):
        cm = apply_channel(make_tmss(spec), (eta, delta))
        vs = expected_variances(cm)
        assert repr(vs) == repr(checked_set([setting_variance(cm, s) for s in SETTINGS]))
        for s in SETTINGS:
            assert vs.absolute_variance(s) == db_to_linear(vs.db(s)) * SNL_REFERENCE[s]

    def test_variance_round_trip_without_stderr(self, tmp_path):
        vs = expected_variances(REF_CM)
        path = tmp_path / "variances.csv"
        write_variances_csv(vs, path)
        back = read_variances_csv(path)
        assert back == vs and back.stderr_db is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,value\nXc,1.0\n")
        with pytest.raises(InputError):
            read_variances_csv(path)

    @pytest.mark.parametrize("change", [
        lambda rows: rows.__setitem__(1, "Xc,loud,0.1"),            # non-numeric db
        lambda rows: rows.__setitem__(2, "Yc,x"),                   # non-numeric stderr
        lambda rows: rows.__setitem__(1, "Xc,1.0"),                 # short row
        lambda rows: rows.__setitem__(1, "Xc,1.0,0.1,9"),           # long row
        lambda rows: rows.insert(3, rows[1].replace("Xc,", "Xc,0")),  # repeated setting
        lambda rows: rows.append("Zz,1.0,0.1"),                     # unknown setting
        lambda rows: rows.__delitem__(4),                           # missing setting
        lambda rows: rows.__setitem__(3, "Xp,1.0,"),                # stderr not all or none
    ])
    def test_malformed_variance_csv_raises_input_error(self, change, tmp_path):
        path = tmp_path / "variances.csv"
        write_variances_csv(variances_from_batches(simulate_measurements(REF_CM, 100, 8)), path)
        rows = path.read_text().splitlines()
        change(rows)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError):
            read_variances_csv(path)

    def test_batch_export(self, tmp_path):
        batch = simulate_measurements(REF_CM, 50, seed=9)[2]
        path = tmp_path / "xp.csv"
        write_batch_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "Xp"
        assert len(lines) == 51
        assert np.allclose([float(x) for x in lines[1:]], batch.samples, rtol=0, atol=0)


class TestVarianceSet:
    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            VarianceSet(float("inf"), 0, 0, 0, 0, 0)

    def test_rejects_bad_stderr(self):
        with pytest.raises(InputError):
            VarianceSet(0, 0, 0, 0, 0, 0, stderr_db=(1.0, 2.0))

    @pytest.mark.parametrize("name", ["bogus", "stderr", "xc", "XC", "xc_db", "", None, 0])
    def test_every_setting_lookup_rejects_inexact_names(self, name):
        vs = VarianceSet(0, 0, 0, 0, 0, 0, stderr_db=(0.1,) * 6)
        text = f"unknown setting {name!r}, expected one of {SETTINGS}"
        lookups = (vs.db, vs.stderr, vs.absolute_variance,
                   VarianceSet(0, 0, 0, 0, 0, 0).stderr,
                   lambda s: setting_variance(REF_CM, s),
                   lambda s: SampleBatch(s, [0.1, -0.1], 0))
        for lookup in lookups:
            with pytest.raises(InputError) as exc:
                lookup(name)
            assert str(exc.value) == text

    def test_setting_lookups_follow_settings_order(self):
        # guard: exact names still find their values
        vs = VarianceSet(1, 2, 3, 4, 5, 6, stderr_db=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
        assert [vs.db(s) for s in SETTINGS] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [vs.stderr(s) for s in SETTINGS] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert VarianceSet(0, 0, 0, 0, 0, 0).stderr("Ysum") is None

    @pytest.mark.parametrize("entry_point", [
        lambda vs: vs.absolute_variance("Xc"), reconstruct_cm],
        ids=["absolute_variance", "reconstruct_cm"])
    def test_overflowing_db_value_is_numerical_error(self, entry_point):
        # the scalar 10.0 ** of a dB value past ~3,082.5 dB raises a bare OverflowError
        with pytest.raises(NumericalError) as exc:
            entry_point(VarianceSet(4000.0, 0, 0, 0, 0, 0))
        assert type(exc.value) is NumericalError
        assert str(exc.value) == "dB value 4000.0 overflows its linear ratio"

    def test_absolute_variance_uses_snl(self):
        vs = VarianceSet(0, 0, 0, 0, 0, 0)
        assert vs.absolute_variance("Xc") == 1.0
        assert vs.absolute_variance("Xdiff") == 2.0
        assert SNL_REFERENCE["Ysum"] == 2.0
