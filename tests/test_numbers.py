"""The number rule: one decision of what a real number is, read by every scalar and array owner."""

import math

import numpy as np
import pytest

from oamcv import (ChannelParams, CovarianceMatrix, Decibel, FieldGrid, InputError, IntensityGrid,
                   LGModeSpec, MultiplexedState, SampleBatch, SqueezingSpec, VarianceSet,
                   apply_channel, apply_channel_grid, classify, classify_many, count_dark_stripes,
                   entanglement_death_eta, lg_field, linear_to_db, make_tmss, sampled_variances,
                   source_criteria, symplectic_eigenvalues, tilted_lens_pattern, validate,
                   write_pgm)
from oamcv import gaussian
from oamcv.cli import SweepConfig, run_modes
from oamcv.gaussian import checked_delta, checked_eta, real_array, real_or_nan
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

# a physical covariance matrix with integer entries, exact as float32 too
CM_INT = np.array([[3, 0, 2, 0], [0, 3, 0, -2], [2, 0, 3, 0], [0, -2, 0, 3]])


def cm_json(matrix) -> dict:
    return {"order": ["Xc", "Yc", "Xp", "Yp"], "matrix": matrix}


# every owner of a caller's array: a call on (array, tmp_path) giving a comparable
# result, and a valid integer array for it
ARRAY_OWNERS = {
    "CovarianceMatrix": (lambda a, _: CovarianceMatrix(a).entries.tolist(), CM_INT),
    "CovarianceMatrix.from_json_dict": (
        lambda a, _: CovarianceMatrix.from_json_dict(cm_json(a)).entries.tolist(), CM_INT),
    "MultiplexedState.from_json_dict": (
        lambda a, _: MultiplexedState.from_json_dict({"pairs": {"1": {
            "spec": {"v": 1.0, "vp": 5.0}, "cm": cm_json(a)}}})[1].cm.entries.tolist(), CM_INT),
    "validate": (lambda a, _: validate(a), CM_INT),
    "symplectic_eigenvalues": (lambda a, _: symplectic_eigenvalues(a).tolist(), CM_INT),
    "classify": (lambda a, _: classify(a), CM_INT),
    "classify_many": (lambda a, _: [classify_many(a).report(i) for i in range(2)],
                      np.array([CM_INT, 2 * CM_INT])),
    "sampled_variances": (lambda a, _: sampled_variances(a, 10, [0, 1]),
                          np.array([CM_INT, 2 * CM_INT])),
    "SampleBatch": (lambda a, _: SampleBatch("Xc", a, 0).samples.tolist(), np.array([1, -2, 3])),
    "FieldGrid": (lambda a, _: FieldGrid(4, 4, 1.0, a).values.tolist(),
                  np.arange(16).reshape(4, 4) - 8),
    "IntensityGrid": (lambda a, _: IntensityGrid(8, 8, 1.0, a).values.tolist(),
                      np.arange(64).reshape(8, 8)),
    "count_dark_stripes": (lambda a, _: count_dark_stripes(a), np.arange(64).reshape(8, 8)),
    "write_pgm": (lambda a, path: write_pgm(path / "x.pgm", a) or (path / "x.pgm").read_bytes(),
                  np.arange(64).reshape(8, 8)),
}
# the owners of real arrays; FieldGrid reads complex values
REAL_ARRAY_OWNERS = sorted(set(ARRAY_OWNERS) - {"FieldGrid"})


def with_first_entry(good, value):
    """good as nested lists, its first entry replaced by value."""
    rows = inner = good.tolist()
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = value
    return rows


def ragged(good):
    """good as nested lists whose last row is one entry short (in 1-D: a list)."""
    rows = good.tolist()
    rows[-1] = rows[-1][:-1] if isinstance(rows[-1], list) else [rows[-1]]
    return rows


# numeric text, a bool, null, a ragged list and a grid object in place of an array
NOT_ARRAYS = {
    "text": lambda good: with_first_entry(good, str(good.flat[0])),
    "bool": lambda good: with_first_entry(good, True),
    "none": lambda good: with_first_entry(good, None),
    "ragged": ragged,
    "FieldGrid": lambda good: FIELD,
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

    @pytest.mark.parametrize("etas", [0.5, "05", np.array(0.5), [np.eye(2), [1, 2]]])
    def test_eta_grid_is_a_list_of_etas(self, etas):
        with pytest.raises(InputError, match=r"^eta (grid must be a list of numbers|must lie in)"):
            apply_channel_grid(SOURCE, etas)

    @pytest.mark.parametrize("etas, text", [
        ([0.5, "x"], "eta must lie in [0, 1], got 'x'"),
        ([0.0, [0.5]], "eta must lie in [0, 1], got [0.5]"),
        ((0.5, 2), "eta must lie in [0, 1], got 2"),
        (np.array([0.5, 2.0]), "eta must lie in [0, 1], got 2.0"),
        (np.array([0, 2]), "eta must lie in [0, 1], got 2"),
        ([0.5, True], "eta must lie in [0, 1], got True"),
        ([[0.5]], "eta grid must be a list of numbers, got [[0.5]]"),
        (np.array([[0.5]]), "eta grid must be a list of numbers, got array([[0.5]])"),
        (0.5, "eta grid must be a list of numbers, got 0.5"),
    ])
    def test_both_grid_entry_points_read_a_grid_alike(self, etas, text):
        # apply_channel_grid and source_criteria share one grid rule, and so its text
        for entry_point in (lambda: apply_channel_grid(SOURCE, etas),
                            lambda: source_criteria(SqueezingSpec(V_REF, VP_REF), etas, 0.0)):
            with pytest.raises(InputError) as exc:
                entry_point()
            assert str(exc.value) == text

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


class TestRealArray:
    def test_numeric_arrays_convert_whole(self):
        values = np.array([[0.1, -2.5], [1e-300, 7.0]])
        assert real_array(values) is values
        assert real_array(values.astype(np.float32)).dtype == float
        assert real_array(np.array([1 + 2j]), complex).tolist() == [1 + 2j]

    def test_a_sample_batch_copies_the_caller_array(self):
        # the grids' copies are checked in test_modes
        samples = np.array([0.5, -0.5])
        batch = SampleBatch("Xc", samples, 0)
        samples[0] = 5.0
        assert samples.flags.writeable and batch.samples[0] == 0.5

    @pytest.mark.parametrize("obj, values", [
        ([[1, 2.5], (np.int64(3), np.float32(0.5))], [[1.0, 2.5], [3.0, 0.5]]),
        ([10 ** 400, -10 ** 400], [math.inf, -math.inf]), ([], []), (2, 2.0)])
    def test_lists_are_read_entry_by_entry(self, obj, values):
        out = real_array(obj)
        assert out.dtype == float and out.tolist() == values

    def test_complex_entries_are_numbers_only_for_a_complex_array(self):
        assert real_array([1, 2j, np.complex64(3)], complex).tolist() == [1, 2j, 3]
        with pytest.raises(InputError, match=r"^array entries must be numbers, got 2j$"):
            real_array([1, 2j])

    @pytest.mark.parametrize("obj, named", [
        ([[1.0, "x"], [None, 2.0]], "'x'"), (np.array([0.5, False], dtype=object), "False"),
        ([[1.0, 2.0], [3.0]], "[[1.0, 2.0], [3.0]]"), (np.array(["1"]), "'1'"),
        ({"a": 1}, "{'a': 1}")])
    def test_the_first_bad_entry_is_named(self, obj, named):
        with pytest.raises(InputError) as exc:
            real_array(obj)
        assert str(exc.value) == f"array entries must be numbers, got {named}"


@pytest.mark.parametrize("bad", sorted(NOT_ARRAYS))
@pytest.mark.parametrize("owner", sorted(ARRAY_OWNERS))
def test_every_array_owner_rejects_non_numbers(owner, bad, tmp_path):
    call, good = ARRAY_OWNERS[owner]
    with pytest.raises(InputError, match="must be numbers"):
        call(NOT_ARRAYS[bad](good), tmp_path)


@pytest.mark.parametrize("owner", REAL_ARRAY_OWNERS)
def test_every_real_array_owner_rejects_complex_entries(owner, tmp_path):
    call, good = ARRAY_OWNERS[owner]
    for bad in (with_first_entry(good, complex(good.flat[0])), good + 0j):
        with pytest.raises(InputError, match="must be numbers"):
            call(bad, tmp_path)


@pytest.mark.parametrize("owner", sorted(ARRAY_OWNERS))
def test_int_lists_and_numpy_arrays_read_as_float64(owner, tmp_path):
    call, good = ARRAY_OWNERS[owner]
    expected = call(good.astype(np.float64), tmp_path)
    for same in (good.tolist(), good.astype(np.int32), good, good.astype(np.float32)):
        assert call(same, tmp_path) == expected


def test_field_grid_reads_complex_values():
    values = np.arange(16).reshape(4, 4) + 1j
    assert np.array_equal(FieldGrid(4, 4, 1.0, values.tolist()).values, values)


def test_float64_arrays_skip_the_entry_reader(monkeypatch):
    # guard: the whole-array path reads no entry one at a time
    def refuse(*args):
        raise AssertionError("read entry by entry")

    monkeypatch.setattr(gaussian, "_entries", refuse)
    stack = np.array([CM_INT, 2 * CM_INT], dtype=float)
    assert classify_many(stack).nu.shape == (2,)
    assert len(sampled_variances(stack, 10, [0, 1])) == 2
    assert np.array_equal(CovarianceMatrix(stack[0]).entries, stack[0])
    with pytest.raises(AssertionError, match="read entry by entry"):
        CovarianceMatrix(stack[0].tolist())
