"""Core state constructors, unit conversions, and validity checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oamcv import (ChannelParams, CovarianceMatrix, Decibel, InputError, MultiplexedState,
                   SqueezingSpec, UnphysicalStateError, apply_channel_grid, db_to_linear,
                   entanglement_death_eta, linear_to_db, make_multiplexed, make_tmss,
                   steering_death_eta, symplectic_eigenvalues, validate)
from oamcv.cli import SweepConfig
from oamcv.gaussian import checked_delta
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


class TestCheckedDelta:
    GRID_SOURCE = make_tmss(SqueezingSpec(V_REF, VP_REF))

    # -0.1, nan and inf are guards (every owner already gave this text); the
    # non-numbers raised TypeError or ValueError, or were accepted
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, None, "x", [0.5]])
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
        for good, value in ((0, 0.0), (0.15, 0.15), (np.float64(1.0), 1.0), ("0.5", 0.5)):
            result = checked_delta(good)
            assert type(result) is float and result == value
            assert ChannelParams(0.5, good).delta == value


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

    def test_json_round_trip(self):
        ms = make_multiplexed({-1: SqueezingSpec(V_REF, VP_REF), 1: SqueezingSpec.from_r(0.3)})
        d = ms.to_json_dict()
        assert set(d) == {"pairs"}
        assert set(d["pairs"]) == {"-1", "1"}
        back = MultiplexedState.from_json_dict(json.loads(json.dumps(d)))
        for l in (-1, 1):
            assert back[l].spec == ms[l].spec
            assert np.array_equal(back[l].cm.entries, ms[l].cm.entries)
