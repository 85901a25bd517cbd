"""The number rule: one decision of what a real number is, read by every scalar owner."""

import math

import numpy as np
import pytest

from oamcv import (ChannelParams, Decibel, InputError, IntensityGrid, LGModeSpec, SampleBatch,
                   SqueezingSpec, VarianceSet, apply_channel, apply_channel_grid,
                   entanglement_death_eta, lg_field, linear_to_db, make_tmss, tilted_lens_pattern)
from oamcv.cli import SweepConfig, run_modes
from oamcv.gaussian import checked_delta, checked_eta, real_or_nan
from oamcv.modes import checked_bit_depth
from oamcv.tomography import checked_sampling
from conftest import V_REF, VP_REF

SOURCE = make_tmss(SqueezingSpec(V_REF, VP_REF))
FIELD = lg_field(LGModeSpec(1), 64, 64, 3.0)

# text, a bool, null, a container, and an int beyond float range
NOT_REAL = ["0.5", True, None, [0.5], 10 ** 400]

ETA = "eta must lie in [0, 1], got {!r}"
DELTA = "delta must be >= 0, got {!r}"
SEED = "seed must be a non-negative integer, got {!r}"

# every owner of a caller's real number, and its error text for a value x
REAL_OWNERS = {
    "checked_eta": (checked_eta, ETA),
    "ChannelParams.eta": (ChannelParams, ETA),
    "apply_channel": (lambda x: apply_channel(SOURCE, (x, 0.0)), ETA),
    "apply_channel_grid": (lambda x: apply_channel_grid(SOURCE, [0.0, x]), ETA),
    "SweepConfig.eta_start": (lambda x: SweepConfig(eta_start=x), ETA),
    "SweepConfig.eta_stop": (lambda x: SweepConfig(eta_stop=x), ETA),
    "SweepConfig.eta_step": (lambda x: SweepConfig(eta_step=x),
                             "eta step must be positive, got {!r}"),
    "checked_delta": (checked_delta, DELTA),
    "ChannelParams.delta": (lambda x: ChannelParams(0.5, x), DELTA),
    "SweepConfig.deltas": (lambda x: SweepConfig(deltas=[0.0, x]), DELTA),
    "entanglement_death_eta": (lambda x: entanglement_death_eta((V_REF, VP_REF), x), DELTA),
    "Decibel": (Decibel, "dB value must be finite, got {!r}"),
    "linear_to_db": (linear_to_db, "linear value must be positive and finite, got {!r}"),
    "SqueezingSpec": (lambda x: SqueezingSpec(x, 4.0),
                      "variances must be positive and finite, got ({!r}, 4.0)"),
    "SqueezingSpec.from_r": (SqueezingSpec.from_r,
                             "squeezing parameter must be >= 0 with finite e^(2r), got {!r}"),
    "VarianceSet": (lambda x: VarianceSet(0, 0, x, 0, 0, 0),
                    "variances must be finite dB values, got [0, 0, {!r}, 0, 0, 0]"),
    "VarianceSet.stderr_db": (lambda x: VarianceSet(0, 0, 0, 0, 0, 0, stderr_db=[0.1] * 5 + [x]),
                              "stderr_db must be a list of six finite nonnegative dB values"),
    "lg_field.extent": (lambda x: lg_field(1, 64, 64, x),
                        "bad grid geometry (64 x 64, extent {!r})"),
    "IntensityGrid.extent": (lambda x: IntensityGrid(8, 8, x, np.ones((8, 8))),
                             "bad grid geometry (8 x 8, extent {!r})"),
    "tilted_lens_pattern": (lambda x: tilted_lens_pattern(FIELD, x),
                            "astigmatism strength must be positive, got {!r}"),
}

# owners of integers, where a real number that happens to be whole is no integer
INTEGER_OWNERS = {
    "n_per_setting": (lambda x: checked_sampling(x, 0),
                      "n_per_setting must be an integer >= 2, got {!r}"),
    "seed": (lambda x: checked_sampling(2, x), SEED),
    "SampleBatch.seed": (lambda x: SampleBatch("Xc", [0.1, -0.1], x), SEED),
    "FieldGrid.width": (lambda x: lg_field(1, x, 64, 3.0),
                        "bad grid geometry ({!r} x 64, extent 3.0)"),
    "IntensityGrid.height": (lambda x: IntensityGrid(8, x, 1.0, np.ones((8, 8))),
                             "bad grid geometry (8 x {!r}, extent 1.0)"),
    "LGModeSpec": (LGModeSpec, "charges must be integers, got {!r}"),
    "checked_bit_depth": (checked_bit_depth, "bit_depth must be 8 or 16, got {!r}"),
}


class TestRealOrNan:
    @pytest.mark.parametrize("x, value", [
        (0, 0.0), (-3, -3.0), (0.25, 0.25), (math.inf, math.inf), (np.float32(0.5), 0.5),
        (np.int64(7), 7.0), (np.uint8(2), 2.0), (10 ** 400, math.inf), (-10 ** 400, -math.inf)])
    def test_numbers_are_floats(self, x, value):
        result = real_or_nan(x)
        assert type(result) is float and result == value

    @pytest.mark.parametrize("x", ["0.5", "05", b"1", True, False, np.bool_(True), None, [0.5],
                                   (0.5,), {"x": 1}, np.array(0.5), np.array([0.5]), 1j])
    def test_everything_else_is_nan(self, x):
        assert math.isnan(real_or_nan(x))


@pytest.mark.parametrize("bad", NOT_REAL, ids=["text", "bool", "none", "list", "huge-int"])
@pytest.mark.parametrize("owner", sorted(REAL_OWNERS))
def test_every_real_owner_rejects_non_numbers_with_its_own_text(owner, bad):
    entry_point, text = REAL_OWNERS[owner]
    with pytest.raises(InputError) as exc:
        entry_point(bad)
    assert str(exc.value) == text.format(bad)


@pytest.mark.parametrize("bad", ["2", True, None, [2], 2.0])
@pytest.mark.parametrize("owner", sorted(INTEGER_OWNERS))
def test_every_integer_owner_rejects_non_integers_with_its_own_text(owner, bad):
    entry_point, text = INTEGER_OWNERS[owner]
    with pytest.raises(InputError) as exc:
        entry_point(bad)
    assert str(exc.value) == text.format(bad)


class TestLists:
    @pytest.mark.parametrize("deltas", ["05", "0", 0.5, None, (), {"0": 0.5}])
    def test_deltas_must_be_a_non_empty_list(self, deltas):
        with pytest.raises(InputError) as exc:
            SweepConfig(deltas=deltas)
        assert str(exc.value) == f"deltas must be a non-empty list of numbers, got {deltas!r}"

    @pytest.mark.parametrize("charges", ["12", "0", b"\x01"])
    def test_text_is_not_a_list_of_charges(self, charges):
        with pytest.raises(InputError) as exc:
            SweepConfig(charges=charges)
        assert str(exc.value) == f"charges must be a list of integers, got {charges!r}"

    @pytest.mark.parametrize("stderr_db", ["123456", 5, np.full(6, 0.1), (0.1,) * 5])
    def test_stderr_must_be_a_list_of_six(self, stderr_db):
        with pytest.raises(InputError, match="^stderr_db must be a list of six finite"):
            VarianceSet(0, 0, 0, 0, 0, 0, stderr_db=stderr_db)

    @pytest.mark.parametrize("pair", [5, "ab", (0.5,), (0.5, 3.0, 1.0), {0.5: 3.0}])
    def test_specs_and_channels_are_the_type_or_a_pair(self, pair):
        with pytest.raises(InputError) as spec:
            SweepConfig(specs={0: pair}, charges=(0,))
        assert str(spec.value) == \
            f"a source spec must be a SqueezingSpec or a (v, vp) pair, got {pair!r}"
        with pytest.raises(InputError) as channel:
            apply_channel(SOURCE, pair)
        assert str(channel.value) == \
            f"a channel must be a ChannelParams or an (eta, delta) pair, got {pair!r}"

    @pytest.mark.parametrize("specs", [[0, 1], None, "01", ((0, (0.5, 3.0)),)])
    def test_specs_must_map_charges_to_specs(self, specs):
        # one owner of the rule for both the constructor and the JSON parser
        for build in (lambda: SweepConfig(specs=specs, charges=(0,)),
                      lambda: SweepConfig.from_json_dict({"specs": specs, "charges": [0]})):
            with pytest.raises(InputError) as exc:
                build()
            assert str(exc.value) == f"specs must map charges to specs, got {specs!r}"

    def test_pairs_and_numpy_reals_are_accepted(self):
        # guard: lists, tuples and numpy numbers are still read as before
        config = SweepConfig(specs={0: [0.5, np.float32(3.0)]}, charges=(0,),
                             deltas=[np.float64(0.1)], eta_start=np.float32(0.25),
                             eta_step=np.int64(1))
        assert config.specs[0] == SqueezingSpec(0.5, 3.0)
        assert config.deltas == (0.1,) and config.eta_start == 0.25 and config.eta_step == 1.0
        assert all(type(x) is float for x in (*config.deltas, config.eta_start, config.eta_step))
        assert np.array_equal(apply_channel(SOURCE, [0.5, 0.1]).entries,
                              apply_channel(SOURCE, ChannelParams(0.5, 0.1)).entries)

    def test_bad_astigmatism_leaves_no_output(self, tmp_path):
        with pytest.raises(InputError, match="^astigmatism strength must be positive, got '2'$"):
            run_modes([1], astigmatism="2", out_dir=tmp_path / "images")
        assert not (tmp_path / "images").exists()
