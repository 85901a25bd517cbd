"""Core state constructors, unit conversions, and validity checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oamcv import (ChannelParams, CovarianceMatrix, Decibel, InputError, MultiplexedState,
                   NumericalError, SqueezingSpec, UnphysicalStateError, apply_channel,
                   apply_channel_grid, db_to_linear, entanglement_death_eta, linear_to_db,
                   make_multiplexed, make_tmss, steering_death_eta, symplectic_eigenvalues,
                   validate)
from oamcv.cli import SweepConfig
from oamcv.gaussian import _well_formed, checked_delta, checked_eta
from conftest import INDEFINITE, V_REF, VP_REF, source_specs


class TestSqueezingSpec:
    def test_orders_variances(self):
        spec = SqueezingSpec(4.11, 0.47)
        assert (spec.v, spec.vp) == (0.47, 4.11)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            SqueezingSpec(-0.5, 2.0)
        with pytest.raises(InputError):
            SqueezingSpec(0.5, 0.0)
        with pytest.raises(InputError):
            SqueezingSpec(float("nan"), 2.0)

    def test_rejects_unphysical_product(self):
        with pytest.raises(UnphysicalStateError):
            SqueezingSpec(0.3, 0.5)

    def test_from_r(self):
        spec = SqueezingSpec.from_r(0.5)
        assert spec.v == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert spec.vp == pytest.approx(math.exp(1.0), abs=1e-15)
        with pytest.raises(InputError):
            SqueezingSpec.from_r(-0.1)

    def test_json_round_trip(self):
        spec = SqueezingSpec(0.47, 4.11)
        assert SqueezingSpec.from_json_dict(spec.to_json_dict()) == spec
        assert SqueezingSpec.from_json_dict({"r": 0.25}) == SqueezingSpec.from_r(0.25)
        with pytest.raises(InputError):
            SqueezingSpec.from_json_dict({"v": 0.5, "vp": 2.5, "r": 0.1})

    @pytest.mark.parametrize("r", [None, "x", [0.1], -0.1, float("nan"), float("inf"), 400,
                                   10 ** 400])
    def test_from_r_rejects_non_numbers_and_overflow(self, r):
        # e^(2r) overflows a float from r ~ 355 on
        with pytest.raises(InputError, match="squeezing parameter must be >= 0"):
            SqueezingSpec.from_r(r)

    @pytest.mark.parametrize("d", [None, 5, [0.5, 2.5], "r", {"v": 0.5}, {"r": 0.1, "vp": 2.0},
                                   {"v": 0.5, "vp": 2.5, "x": 1}, {}])
    def test_from_json_dict_needs_v_and_vp_or_r(self, d):
        with pytest.raises(InputError, match="spec needs keys v and vp, or r alone"):
            SqueezingSpec.from_json_dict(d)


class TestMakeTmss:
    def test_reference_source(self):
        cm = make_tmss(SqueezingSpec(V_REF, VP_REF)).entries
        assert np.allclose(np.diag(cm), 2.29, atol=1e-12)
        assert cm[0, 2] == pytest.approx(1.82, abs=1e-12)
        assert cm[1, 3] == pytest.approx(-1.82, abs=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        assert np.array_equal(make_tmss(SqueezingSpec.from_r(0.0)).entries, np.eye(4))

    def test_r_ln_sqrt3(self):
        # v = 1/3, vp = 3: diagonal 5/3, off-diagonal 4/3
        cm = make_tmss(SqueezingSpec.from_r(math.log(math.sqrt(3.0)))).entries
        assert np.allclose(np.diag(cm), 5.0 / 3.0, atol=1e-12)
        assert cm[0, 2] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert cm[1, 3] == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_accepts_pair(self):
        assert np.array_equal(make_tmss((0.47, 4.11)).entries,
                              make_tmss(SqueezingSpec(0.47, 4.11)).entries)

    def test_rejects_corrupted_spec(self):
        spec = SqueezingSpec(0.47, 4.11)
        object.__setattr__(spec, "vp", 0.5)  # bypass construction checks
        with pytest.raises(UnphysicalStateError):
            make_tmss(spec)

    @given(source_specs(r_max=15.0, max_impurity=1e3))
    def test_equals_the_checked_block_matrix(self, spec):
        # the literal matrix is the np.block form the CovarianceMatrix checks used to see
        a, c = (spec.v + spec.vp) / 2.0, (spec.vp - spec.v) / 2.0
        i2, z2 = np.eye(2), np.diag([1.0, -1.0])
        checked = CovarianceMatrix(np.block([[a * i2, c * z2], [c * z2, a * i2]]))
        assert make_tmss(spec).entries.tobytes() == checked.entries.tobytes()

    def test_matrix_is_frozen_without_the_checks(self, monkeypatch):
        calls = []
        real = CovarianceMatrix.__post_init__
        monkeypatch.setattr(CovarianceMatrix, "__post_init__",
                            lambda self: calls.append(self) or real(self))
        cm = make_tmss((V_REF, VP_REF))
        assert calls == [] and not cm.entries.flags.writeable
        CovarianceMatrix(cm.entries)
        assert len(calls) == 1

    def test_widest_source_is_finite(self):
        # each half is taken before the sum: v + vp would overflow
        assert np.all(np.isfinite(make_tmss((1.7e308, 1.7e308)).entries))

    @given(source_specs())
    def test_symmetric_state(self, spec):
        cm = make_tmss(spec)
        assert np.array_equal(cm.conj_block, cm.pr_block)

    @given(source_specs())
    def test_determinant_is_product_squared(self, spec):
        det = np.linalg.det(make_tmss(spec).entries)
        expected = (spec.v * spec.vp) ** 2
        assert det == pytest.approx(expected, rel=1e-9)

    @given(st.floats(0.0, 3.0))
    def test_pure_states_have_unit_symplectic_spectrum(self, r):
        nus = symplectic_eigenvalues(make_tmss(SqueezingSpec.from_r(r)))
        assert np.allclose(nus, 1.0, atol=1e-9)

    @given(source_specs())
    def test_diagonal_never_below_vacuum(self, spec):
        assert np.diag(make_tmss(spec).entries).min() >= 1.0 - 1e-6


class TestCovarianceMatrix:
    def test_symmetrizes_exactly(self):
        m = np.eye(4)
        m[0, 2] = 0.5 + 1e-8
        m[2, 0] = 0.5 - 1e-8
        cm = CovarianceMatrix(m)
        assert np.array_equal(cm.entries, cm.entries.T)

    def test_rejects_gross_asymmetry(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(InputError):
            CovarianceMatrix(m)

    def test_rejects_bad_shape_and_nonfinite(self):
        with pytest.raises(InputError):
            CovarianceMatrix(np.eye(3))
        bad = np.eye(4)
        bad[0, 0] = float("inf")
        with pytest.raises(InputError):
            CovarianceMatrix(bad)

    @pytest.mark.parametrize("d", [
        None, [], {"order": ["Xc", "Yc", "Xp", "Yp"]}, {"order": 5, "matrix": np.eye(4).tolist()},
        {"order": ["Xc", "Yc", "Xp", "Yp"], "matrix": "ab"},
        {"order": ["Xc", "Yc", "Xp", "Yp"], "matrix": [[1.0, 2.0], [3.0]]},
        {"order": ["Xc", "Yc", "Xp", "Yp"], "matrix": {"a": 1}},
        {"order": ["Xc", "Yc", "Xp", "Yp"], "matrix": [[10 ** 400] * 4] * 4}])
    def test_from_json_dict_raises_input_error(self, d):
        with pytest.raises(InputError):
            CovarianceMatrix.from_json_dict(d)

    def test_entries_are_frozen(self):
        cm = make_tmss(SqueezingSpec(V_REF, VP_REF))
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 5.0

    def test_json_schema_and_round_trip(self):
        cm = make_tmss(SqueezingSpec(V_REF, VP_REF))
        d = cm.to_json_dict()
        assert set(d) == {"order", "matrix"}
        assert d["order"] == ["Xc", "Yc", "Xp", "Yp"]
        assert len(d["matrix"]) == 4 and all(len(row) == 4 for row in d["matrix"])
        back = CovarianceMatrix.from_json_dict(json.loads(json.dumps(d)))
        assert np.array_equal(back.entries, cm.entries)
        with pytest.raises(InputError):
            CovarianceMatrix.from_json_dict({"order": ["Xp", "Yp", "Xc", "Yc"],
                                             "matrix": d["matrix"]})


class TestValidate:
    def test_identity_passes(self):
        report = validate(np.eye(4))
        assert report.ok and report.symmetric and report.physical
        assert report.min_symplectic == pytest.approx(1.0, abs=1e-9)
        assert report.symmetry_defect == 0.0

    def test_reference_source_min_symplectic(self):
        report = validate(make_tmss(SqueezingSpec(V_REF, VP_REF)))
        assert report.ok
        # symplectic eigenvalues of the symmetric state are sqrt(v*vp)
        assert report.min_symplectic == pytest.approx(math.sqrt(V_REF * VP_REF), abs=1e-9)

    def test_below_vacuum_fails_physicality(self):
        report = validate(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert not report.physical and not report.ok
        assert report.min_symplectic == pytest.approx(0.5, abs=1e-9)

    def test_asymmetry_reported_without_raising(self):
        m = np.eye(4)
        m[0, 2] = 1e-7  # above the 1e-9 tolerance, below the constructor bound
        report = validate(m)
        assert not report.symmetric
        assert report.symmetry_defect == pytest.approx(1e-7)

    def test_entries_above_half_the_float_max(self):
        # symmetrising as (m + m^T)/2 overflowed these to inf
        report = validate(np.diag([1e308] * 4))
        assert report.ok and report.symmetry_defect == 0.0
        assert report.min_symplectic == pytest.approx(1e308, rel=1e-12)

    def test_opposite_off_diagonals_near_the_float_max(self):
        # m - m^T overflows to inf here, silently as in _well_formed
        m = np.eye(4)
        m[0, 1], m[1, 0] = 1e308, -1e308
        report = validate(m)
        assert report.symmetry_defect == math.inf and report.symmetric is False

    @pytest.mark.parametrize("m", [
        np.diag([1e308] * 4),
        np.eye(4) + np.array([[0.0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0] * 4, [0] * 4])],
        ids=["above-half-max", "opposite-off-diagonals"])
    def test_agrees_with_the_constructor_rule(self, m):
        # validate and _well_formed read one rule: same verdict, same symmetrized matrix
        sigma, (malformed, _) = _well_formed(m[None])
        report = validate(m)
        assert report.symmetric is not bool(malformed[0])
        if report.symmetric:
            assert np.array_equal(sigma[0], m) and report.ok
            assert np.array_equal(CovarianceMatrix(m).entries, sigma[0])

    def test_nonfinite_flagged(self):
        m = np.eye(4)
        m[3, 3] = float("nan")
        report = validate(m)
        assert not report.ok

    @pytest.mark.parametrize("m", INDEFINITE)
    def test_indefinite_is_unphysical(self, m):
        report = validate(m)
        assert report.symmetric and not report.physical and not report.ok
        assert math.isnan(report.min_symplectic)


class TestSymplecticEigenvalues:
    def test_not_pd_gives_nan_pair(self):
        for m in INDEFINITE + (np.zeros((4, 4)),):
            assert np.isnan(symplectic_eigenvalues(m)).all()

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_mixed_stack_is_nan_only_at_its_indefinite_entry(self, at):
        good = [make_tmss(SqueezingSpec.from_r(r)).entries + 0.1 * r * np.eye(4)
                for r in (0.0, 0.3, 0.7, 1.5)]
        stack = np.array(good[:at] + [INDEFINITE[1]] + good[at:])
        nus = symplectic_eigenvalues(stack)
        assert nus.shape == (5, 2)
        assert np.isnan(nus[at]).all()
        others = np.delete(nus, at, axis=0)
        assert not np.isnan(others).any()
        for entries, pair in zip(good, others):
            assert np.array_equal(pair, symplectic_eigenvalues(entries))

    def test_stack_equals_scalar_calls_bit_for_bit(self):
        # guard: the all-PD stack takes the batched route, one Cholesky call
        stack = np.array([make_tmss(SqueezingSpec(0.1 * k + 0.3, 5.0)).entries
                          for k in range(7)])
        nus = symplectic_eigenvalues(stack.reshape(7, 1, 4, 4))
        assert nus.shape == (7, 1, 2)
        for entries, pair in zip(stack, nus[:, 0]):
            assert np.array_equal(pair, symplectic_eigenvalues(entries))

    def test_nested_mixed_stack_keeps_its_shape(self):
        stack = np.array([[np.eye(4), -np.eye(4)], [2.0 * np.eye(4), np.eye(4)]])
        nus = symplectic_eigenvalues(stack)
        assert nus.shape == (2, 2, 2)
        assert np.isnan(nus[0, 1]).all()
        assert np.allclose(nus[[0, 1, 1], [0, 0, 1]], [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]],
                           rtol=1e-14, atol=0.0)

    def test_halving_retry_equals_one_matrix_calls(self, monkeypatch):
        # a failing stack is split in halves, so three matrices that are not PD
        # among 101 cost O(k log N) factorisations instead of 101
        stack = apply_channel_grid(make_tmss(SqueezingSpec(V_REF, VP_REF)),
                                   np.linspace(0.0, 1.0, 101), 0.1)
        bad = [0, 50, 100]
        stack[bad] = INDEFINITE[1]
        real = np.linalg.cholesky
        sizes = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: sizes.append(m.size // 16) or real(m))
        nus = symplectic_eigenvalues(stack)
        monkeypatch.undo()
        assert sizes[0] == 101
        assert len(sizes) <= 1 + 2 * len(bad) * math.ceil(math.log2(len(stack)))
        assert np.flatnonzero(np.isnan(nus).any(axis=1)).tolist() == bad
        assert np.isnan(nus[bad]).all()
        singles = np.array([symplectic_eigenvalues(m) for m in stack])
        assert np.array_equal(nus, singles, equal_nan=True)


class TestCheckedDelta:
    GRID_SOURCE = make_tmss(SqueezingSpec(V_REF, VP_REF))

    # -0.1, nan and inf are guards (every owner already gave this text); the
    # non-numbers raised TypeError or ValueError, or were accepted
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, None, "x", [0.5], "0.5"])
    def test_every_owner_raises_the_same_input_error(self, bad):
        entry_points = (checked_delta, lambda d: ChannelParams(0.5, d),
                        lambda d: apply_channel_grid(self.GRID_SOURCE, [0.5], d),
                        lambda d: entanglement_death_eta((V_REF, VP_REF), d),
                        lambda d: steering_death_eta((V_REF, VP_REF), d, "AB"))
        texts = set()
        for entry_point in entry_points:
            with pytest.raises(InputError) as exc:
                entry_point(bad)
            texts.add(str(exc.value))
        assert texts == {f"delta must be >= 0, got {bad!r}"}

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_sweep_config_uses_the_same_rule(self, bad):
        with pytest.raises(InputError, match=r"^delta must be >= 0, got "):
            SweepConfig(deltas=(0.0, bad))

    def test_accepts_numbers_as_floats(self):
        # guard: what converts to a finite float >= 0 is still accepted
        for good, value in ((0, 0.0), (0.15, 0.15), (np.float64(1.0), 1.0)):
            result = checked_delta(good)
            assert type(result) is float and result == value
            assert ChannelParams(0.5, good).delta == value


class TestCheckedEta:
    GRID_SOURCE = make_tmss(SqueezingSpec(V_REF, VP_REF))

    # -0.1, 1.5, nan and inf are guards; None and "x" raised TypeError or
    # ValueError from ChannelParams, and the grid read None as nan
    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf, None, "x", "0.5"])
    def test_every_owner_raises_the_same_input_error(self, bad):
        entry_points = (checked_eta, ChannelParams,
                        lambda e: apply_channel(self.GRID_SOURCE, (e, 0.0)),
                        lambda e: apply_channel_grid(self.GRID_SOURCE, [0.5, e]))
        texts = set()
        for entry_point in entry_points:
            with pytest.raises(InputError) as exc:
                entry_point(bad)
            texts.add(str(exc.value))
        assert texts == {f"eta must lie in [0, 1], got {bad!r}"}

    def test_accepts_numbers_as_floats(self):
        # guard: what converts to a float in [0, 1] is still accepted
        for good, value in ((0, 0.0), (1, 1.0), (0.25, 0.25), (np.float64(0.5), 0.5)):
            result = checked_eta(good)
            assert type(result) is float and result == value
            assert ChannelParams(good).eta == value
        grid = apply_channel_grid(self.GRID_SOURCE, np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(grid[2], self.GRID_SOURCE.entries)


class TestDecibel:
    def test_examples(self):
        assert db_to_linear(Decibel(3.6)) == pytest.approx(2.291, abs=5e-4)
        assert db_to_linear(Decibel(0.0)) == 1.0
        # -3.3 dB lands within 0.01 of the quoted squeezed variance 0.47
        assert db_to_linear(-3.3) == pytest.approx(0.4677351412871982, abs=1e-15)
        assert abs(db_to_linear(-3.3) - 0.47) < 0.01

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(InputError):
            linear_to_db(0.0)
        with pytest.raises(InputError):
            linear_to_db(-2.0)

    def test_decibel_linear_property(self):
        assert Decibel(10.0).linear == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("entry_point", [lambda db: Decibel(db).linear, db_to_linear],
                             ids=["Decibel.linear", "db_to_linear"])
    def test_overflowing_linear_ratio_is_numerical_error(self, entry_point):
        # Python's float power raises a bare OverflowError past ~3,082.5 dB
        with pytest.raises(NumericalError) as exc:
            entry_point(4000.0)
        assert type(exc.value) is NumericalError
        assert str(exc.value) == "dB value 4000.0 overflows its linear ratio"
        assert math.isfinite(entry_point(3080.0)) and entry_point(-4000.0) == 0.0

    @given(st.floats(1e-6, 1e6))
    def test_round_trip_linear(self, v):
        assert db_to_linear(linear_to_db(v)) == pytest.approx(v, rel=1e-12)

    @given(st.floats(-60.0, 60.0))
    def test_round_trip_db(self, x):
        assert linear_to_db(db_to_linear(Decibel(x))).value == pytest.approx(x, abs=1e-12)


class TestMultiplexed:
    def test_identical_specs_identical_cms(self):
        spec = SqueezingSpec(V_REF, VP_REF)
        ms = make_multiplexed({0: spec, 1: spec, 2: spec})
        assert ms.charges == (0, 1, 2)
        reference = make_tmss(spec).entries
        for l in (0, 1, 2):
            assert np.array_equal(ms[l].cm.entries, reference)

    def test_empty(self):
        ms = make_multiplexed({})
        assert len(ms) == 0 and ms.charges == ()

    def test_per_charge_r_specs(self):
        ms = make_multiplexed({1: SqueezingSpec.from_r(0.5), 2: SqueezingSpec.from_r(0.2)})
        assert ms[1].spec.v == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert ms[2].spec.v == pytest.approx(math.exp(-0.4), abs=1e-15)

    def test_bit_identical_to_make_tmss(self):
        spec = SqueezingSpec.from_r(0.7)
        ms = make_multiplexed([(5, spec)])
        assert np.array_equal(ms[5].cm.entries, make_tmss(spec).entries)

    def test_duplicate_charge_rejected(self):
        spec = SqueezingSpec(V_REF, VP_REF)
        with pytest.raises(InputError):
            make_multiplexed([(1, spec), (1, spec)])

    def test_non_integer_charge_rejected(self):
        with pytest.raises(InputError):
            make_multiplexed([(1.5, SqueezingSpec(V_REF, VP_REF))])

    def test_insertion_order_kept(self):
        spec = SqueezingSpec(V_REF, VP_REF)
        ms = make_multiplexed([(2, spec), (-2, spec), (0, spec)])
        assert ms.charges == (2, -2, 0)

    def test_pairs_read_only(self):
        ms = make_multiplexed({0: SqueezingSpec(V_REF, VP_REF)})
        with pytest.raises(TypeError):
            ms.pairs[3] = None

    def test_charges_checked(self):
        with pytest.raises(InputError, match="charges must be integers, got True"):
            MultiplexedState({True: None})
        with pytest.raises(InputError, match="charges must be distinct"):
            MultiplexedState([(1, None), (np.int64(1), None)])

    @pytest.mark.parametrize("d", [
        None, {}, {"pairs": []}, {"pairs": {"0": 5}}, {"pairs": {"0": {"spec": {"r": 0.1}}}},
        {"pairs": {"0": {"spec": {"r": 0.1}, "cm": None}}}, {"pairs": {}, "extra": 1},
        {"pairs": {"0": {"spec": {"r": 0.1}, "cm": {"order": ["Xc", "Yc", "Xp", "Yp"],
                                                     "matrix": "ab"}}}},
        {"pairs": {"x": {"spec": {"r": 0.1}, "cm": make_tmss(SqueezingSpec.from_r(0.1))
                                                     .to_json_dict()}}}])
    def test_from_json_dict_raises_input_error(self, d):
        with pytest.raises(InputError):
            MultiplexedState.from_json_dict(d)

    def test_json_round_trip(self):
        ms = make_multiplexed({-1: SqueezingSpec(V_REF, VP_REF), 1: SqueezingSpec.from_r(0.3)})
        d = ms.to_json_dict()
        assert set(d) == {"pairs"}
        assert set(d["pairs"]) == {"-1", "1"}
        back = MultiplexedState.from_json_dict(json.loads(json.dumps(d)))
        for l in (-1, 1):
            assert back[l].spec == ms[l].spec
            assert np.array_equal(back[l].cm.entries, ms[l].cm.entries)
