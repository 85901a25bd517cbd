"""Command-line front end: config handling, runners, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oamcv
from oamcv import (ChannelParams, InputError, LGModeSpec, MultiplexedState, NumericalError,
                   ReconstructionWarning, SqueezingSpec, ToolkitError, apply_channel, classify,
                   entanglement_death_eta, expected_variances, make_multiplexed, make_tmss,
                   reconstruct_cm, sampled_variances, source_criteria, validate)
from oamcv.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, MAX_ETA_POINTS, PRESETS,
                       SWEEP_HEADER, SweepConfig, _config_from_args, _stripes_text,
                       _thresholds_text, _tomo_text, build_parser, eta_grid, main, run_modes,
                       run_sweep, run_thresholds, run_tomo)
from oamcv.tomography import SETTINGS, _six_numbers
from conftest import (V_REF, VP_REF, block_errors, deltas, exact_joint, exact_nu_min,
                      exact_pd, source_specs)
from test_golden import TOMO_ARGS, TOMO_ERRORS_ARGS


SPEC = SqueezingSpec(V_REF, VP_REF)
SPEC_JSON = SPEC.to_json_dict()
PAIR_JSON = {"spec": SPEC_JSON, "cm": make_tmss(SPEC).to_json_dict()}

# kind of bad charges: (Python values, JSON object keys, error text)
BAD_CHARGES = {
    "bool": ([0, True], ["0", "true"], "charges must be integers"),
    "float": ([0, 1.5], ["0", "1.5"], "charges must be integers"),
    "text": ([0, "1"], ["0", "x"], "charges must be integers"),
    "repeated": ([1, 1], ["1", "01"], "charges must be distinct"),
}


def _charge_entry_points(tmp_path):
    """Every entry point that takes charges, fed a list of Python charges."""
    return {
        "SweepConfig": lambda ls: SweepConfig(charges=ls),
        "SweepConfig.specs": lambda ls: SweepConfig(specs=dict.fromkeys(ls, SPEC), charges=(0,)),
        "SweepConfig.from_json_dict": lambda ls: SweepConfig.from_json_dict({"charges": ls}),
        "run_modes": lambda ls: run_modes(ls, out_dir=tmp_path / "images"),
        "LGModeSpec": lambda ls: [LGModeSpec(l) for l in ls],
        "make_multiplexed": lambda ls: make_multiplexed([(l, SPEC) for l in ls]),
    }


# fed JSON object keys, which are text
KEY_ENTRY_POINTS = {
    "SweepConfig.from_json_dict": lambda keys: SweepConfig.from_json_dict(
        {"specs": dict.fromkeys(keys, SPEC_JSON)}),
    "MultiplexedState.from_json_dict": lambda keys: MultiplexedState.from_json_dict(
        {"pairs": dict.fromkeys(keys, PAIR_JSON)}),
}


class TestChargeRule:
    """gaussian.checked_charges is the one charge rule behind every entry point."""

    @pytest.mark.parametrize("kind", sorted(BAD_CHARGES))
    def test_python_entry_points(self, kind, tmp_path):
        charges, _, text = BAD_CHARGES[kind]
        errors = {}
        for name, entry_point in _charge_entry_points(tmp_path).items():
            # a mapping key or a single charge cannot hold a repeat
            if kind == "repeated" and name in ("SweepConfig.specs", "LGModeSpec"):
                continue
            with pytest.raises(InputError, match=text) as error:
                entry_point(charges)
            errors[name] = str(error.value)
        assert len(set(errors.values())) == 1, errors
        assert not (tmp_path / "images").exists()

    @pytest.mark.parametrize("kind", sorted(BAD_CHARGES))
    @pytest.mark.parametrize("entry_point", sorted(KEY_ENTRY_POINTS))
    def test_json_keys(self, entry_point, kind):
        _, keys, text = BAD_CHARGES[kind]
        with pytest.raises(InputError, match=text):
            KEY_ENTRY_POINTS[entry_point](keys)

    @pytest.mark.parametrize("key", ["+1", " 2", "2 ", "1_0", "1e0", "", "-", "--1", "0x1"])
    @pytest.mark.parametrize("entry_point", sorted(KEY_ENTRY_POINTS))
    def test_key_must_be_decimal_text(self, entry_point, key):
        with pytest.raises(InputError, match="charges must be integers"):
            KEY_ENTRY_POINTS[entry_point]([key])

    @pytest.mark.parametrize("entry_point", sorted(KEY_ENTRY_POINTS))
    def test_long_digit_keys_are_not_charges(self, entry_point):
        # int() refuses text beyond 4300 digits with a plain ValueError
        for digits in (19, 5000):
            with pytest.raises(InputError, match="charges must be integers"):
                KEY_ENTRY_POINTS[entry_point](["1" * digits])

    @pytest.mark.parametrize("entry_point", sorted(KEY_ENTRY_POINTS))
    def test_keys_read_as_integers(self, entry_point):
        result = KEY_ENTRY_POINTS[entry_point](["-3", "0", "12"])
        assert sorted(result.specs if entry_point.startswith("Sweep") else result.charges) \
            == [-3, 0, 12]

    def test_one_spec_per_charge_key(self):
        # a float key equal to no integer used to become charge 1 and replace its spec
        with pytest.raises(InputError, match="charges must be integers, got 1.7"):
            SweepConfig(specs={1: SPEC, 1.7: SqueezingSpec(0.9, 2.0)}, charges=(1,))

    def test_numpy_integers_accepted(self):
        config = SweepConfig(charges=np.array([2, -1]), specs={np.int64(2): SPEC, -1: SPEC})
        assert config.charges == (2, -1) and set(config.specs) == {2, -1}
        assert all(type(l) is int for l in (*config.charges, *config.specs))


# values of every JSON type and the awkward numbers
ODD_VALUES = st.one_of(
    # digit text, also in place of a list, and bools inside lists: none of them numbers
    st.sampled_from(["0.5", "05"]), st.text("0123456789", min_size=1, max_size=3),
    st.lists(st.booleans(), min_size=1, max_size=3),
    st.none(), st.booleans(), st.text(max_size=4), st.just(float("nan")), st.just(float("inf")),
    st.floats(-10.0, -1e-3), st.floats(1e-3, 0.999), st.integers(-3, 3),
    st.integers(10 ** 300, 10 ** 400), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))
SPEC_PAYLOADS = st.one_of(ODD_VALUES, st.dictionaries(
    st.sampled_from(["v", "vp", "r"]), st.one_of(ODD_VALUES, st.floats(0.2, 5.0)), max_size=3))
CONFIG_VALUES = {
    "specs": st.one_of(ODD_VALUES, st.dictionaries(
        st.sampled_from(["0", "1", "01", "-1", "x", "1.5", "true"]), SPEC_PAYLOADS, max_size=3)),
    "charges": st.one_of(ODD_VALUES, st.lists(st.one_of(st.integers(-3, 3), ODD_VALUES),
                                              max_size=3)),
    "deltas": st.one_of(ODD_VALUES, st.lists(ODD_VALUES, max_size=3)),
}


@st.composite
def config_payloads(draw):
    """JSON-style configs whose values are drawn from ODD_VALUES, key by key."""
    keys = draw(st.sets(st.sampled_from(["specs", "deltas", "eta_start", "eta_stop", "eta_step",
                                         "charges", "out", "seed", "n_per_setting",
                                         "v", "vp", "r"]), max_size=5))
    return {key: draw(CONFIG_VALUES.get(key, ODD_VALUES)) for key in sorted(keys)}


def run_fresh(args):
    """python args in a fresh interpreter that imports this checkout's oamcv, so a numpy
    RuntimeWarning or a traceback reaches the captured stderr."""
    src = str(Path(oamcv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@st.composite
def eta_grid_args(draw):
    """(start, stop, step) of an eta grid of up to about 4,000 points, some spans below 1e-9."""
    start = draw(st.floats(0.0, 1.0))
    span = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-9)))
    step = (span or 0.1) / draw(st.integers(1, 2000)) * draw(st.floats(0.5, 2.0))
    return start, min(1.0, start + span), step


def small_config(**overrides):
    base = dict(deltas=(0.0,), eta_start=0.0, eta_stop=1.0, eta_step=0.25,
                charges=(0, 1), seed=7, n_per_setting=5000)
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_defaults_use_reference_source(self):
        config = SweepConfig()
        assert config.specs[0] == SqueezingSpec(V_REF, VP_REF)
        assert config.charges == (0, 1, 2)
        assert config.eta_step == 0.01

    def test_json_round_trip(self):
        config = small_config(out="sweep.csv",
                              specs={0: SqueezingSpec(0.5, 2.5), 1: SqueezingSpec.from_r(0.3)})
        back = SweepConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
        assert back == config

    def test_shorthand_spec(self):
        config = SweepConfig.from_json_dict({"v": 0.5, "vp": 2.5, "charges": [0, 2]})
        assert config.specs == {0: SqueezingSpec(0.5, 2.5), 2: SqueezingSpec(0.5, 2.5)}

    def test_specs_imply_charges(self):
        config = SweepConfig.from_json_dict(
            {"specs": {"1": {"v": 0.5, "vp": 2.5}, "-1": {"r": 0.2}}})
        assert config.charges == (-1, 1)

    def test_rejects_unknown_keys(self):
        with pytest.raises(InputError):
            SweepConfig.from_json_dict({"etaStart": 0.0})

    def test_rejects_empty_charges(self):
        with pytest.raises(InputError):
            small_config(charges=())

    def test_rejects_bad_eta_grid(self):
        with pytest.raises(InputError):
            small_config(eta_stop=1.5)
        with pytest.raises(InputError):
            small_config(eta_step=0.0)
        with pytest.raises(InputError):
            small_config(eta_start=0.8, eta_stop=0.2)

    def test_rejects_missing_spec(self):
        with pytest.raises(InputError):
            small_config(specs={0: SqueezingSpec(V_REF, VP_REF)}, charges=(0, 5))

    def test_out_may_be_a_path_object(self, tmp_path):
        assert small_config(out=tmp_path / "rows.csv").out == str(tmp_path / "rows.csv")

    @settings(max_examples=400, deadline=None)
    @given(config_payloads())
    def test_from_json_dict_raises_only_input_error(self, payload):
        # guards the CLI, which turns no other exception of config parsing into exit 2
        try:
            config = SweepConfig.from_json_dict(payload)
        except InputError:
            return
        assert isinstance(config, SweepConfig)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["deltas", "eta_start", "eta_stop", "eta_step", "charges", "seed",
                            "n_per_setting", "v", "r"]),
           st.one_of(st.sampled_from(["0.5", "05", "1"]), st.text("0123456789.", max_size=4),
                     st.booleans(), st.lists(st.booleans(), min_size=1, max_size=3)))
    def test_text_and_bools_are_never_numbers(self, key, value):
        # digit text, a bool or a list of bools in any numeric field, or text for a list
        payload = {key: value, "vp": 4.0} if key == "v" else {key: value}
        with pytest.raises(InputError):
            SweepConfig.from_json_dict(payload)

    @pytest.mark.parametrize("payload", [{"r": None}, {"r": "x"}, {"r": 400}, {"r": -0.1},
                                         {"specs": {"x": {"r": 0.2}}}, {"specs": {"0": 5}},
                                         {"specs": {"0": {"r": "a"}}}, {"v": 0.5},
                                         {"r": 0.3, "vp": 2.0}, {"specs": {"0": SPEC_JSON}, "r": 1}])
    def test_wrongly_typed_payloads_are_input_errors(self, payload):
        with pytest.raises(InputError):
            SweepConfig.from_json_dict(payload)

    def test_shorthand_is_one_spec_json(self):
        for shorthand in ({"r": 0.3}, {"v": 0.5, "vp": 2.5}):
            config = SweepConfig.from_json_dict({**shorthand, "charges": [0, 4]})
            assert config.specs == dict.fromkeys((0, 4), SqueezingSpec.from_json_dict(shorthand))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", True), ("seed", 1.0), ("seed", "3"), ("seed", None),
        ("n_per_setting", 2.7), ("n_per_setting", True), ("n_per_setting", 1),
        ("n_per_setting", "100"), ("n_per_setting", 1e5),
        ("n_per_setting", 10 ** 400)])  # n - 1 has no float value
    def test_seed_and_sample_count_rules(self, field, value):
        text = "seed must be a non-negative integer" if field == "seed" else \
            "n_per_setting must be an integer >= 2"
        with pytest.raises(InputError, match=text):
            small_config(**{field: value})
        with pytest.raises(InputError, match=text):
            SweepConfig.from_json_dict({field: value})

    def test_numpy_seed_and_sample_count(self):
        config = small_config(seed=np.uint64(5), n_per_setting=np.int32(2))
        assert (config.seed, config.n_per_setting) == (5, 2)
        assert type(config.seed) is int and type(config.n_per_setting) is int

    def test_eta_grid_values(self):
        assert eta_grid(small_config(eta_step=0.3)) == [0.0, 0.3, 0.6, 0.9]
        assert eta_grid(SweepConfig()) == pytest.approx(np.arange(101) / 100)
        assert eta_grid(small_config())[-1] == 1.0

    @pytest.mark.parametrize("stop, step", [(1.0, 1.0000000005), (0.5, 0.5000000002)])
    def test_last_eta_point_is_capped_at_stop(self, stop, step, capsys):
        # the rounding allowance admits a last point just past stop: it is stop itself
        assert eta_grid(small_config(eta_stop=stop, eta_step=step)) == [0.0, stop]
        argv = ["sweep", "--charges", "0", "--eta-stop", repr(stop)]
        assert main([*argv, "--eta-step", repr(step)]) == EXIT_OK
        capped = capsys.readouterr()
        assert main([*argv, "--eta-step", repr(stop)]) == EXIT_OK
        assert capped == capsys.readouterr() and capped.err == ""

    @pytest.mark.parametrize("step", [5e-324, 1e-12])
    def test_eta_point_bound_fails_before_the_grid_is_built(self, step, monkeypatch, capsys):
        # a subnormal step made the count inf (OverflowError); 1e-12 asks for 1e12 points
        def refuse(config):
            raise AssertionError("the eta grid must not be built")

        monkeypatch.setattr(oamcv.cli, "eta_grid", refuse)
        assert main(["sweep", "--charges", "0", "--eta-step", repr(step)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: eta step {step!r} from 0.0 to 1.0 "
                                           f"gives more than {MAX_ETA_POINTS} grid points\n")

    def test_eta_point_bound_is_inclusive(self):
        # guard: a step of 1e-5 over [0, 1] is the largest grid allowed
        assert len(eta_grid(SweepConfig(charges=(0,), eta_step=1e-5))) == MAX_ETA_POINTS
        with pytest.raises(InputError, match="grid points$"):
            SweepConfig(charges=(0,), eta_step=0.99999e-5)

    @pytest.mark.parametrize("start, stop, step", [
        # every point start + i*step lies within rounding of a tie at the 10th decimal
        (5e-11, 5e-6, 1e-10), (0.25 + 5e-11, 0.25 + 5e-6, 1e-10),
        (0.5, 0.50000000009, 3e-11), (0.0, 1.0, 1e-5)])
    def test_eta_grid_near_ties_are_the_capped_comprehension(self, start, stop, step):
        config = small_config(eta_start=start, eta_stop=stop, eta_step=step)
        count = math.floor((stop - start) / step + 1e-9) + 1
        expected = [min(round(start + i * step, 10), stop) for i in range(count)]
        assert [eta.hex() for eta in eta_grid(config)] == [eta.hex() for eta in expected]

    @settings(max_examples=300, deadline=None)
    @given(eta_grid_args())
    # a step below the rounding: 0.50000000006 rounds to 0.5000000001, so the grid
    # is [0.5, 0.5, 0.50000000009, 0.50000000009], two points capped, not one
    @example((0.5, 0.50000000009, 3e-11))
    def test_eta_grid_is_the_capped_comprehension(self, args):
        # each point rounded to 10 decimals and capped at stop, as the grid was once built
        start, stop, step = args
        assume(step > 0.0)
        try:
            config = small_config(eta_start=start, eta_stop=stop, eta_step=step)
        except InputError:
            assume(False)
        count = math.floor((stop - start) / step + 1e-9) + 1
        expected = [min(round(start + i * step, 10), stop) for i in range(count)]
        assert [eta.hex() for eta in eta_grid(config)] == [eta.hex() for eta in expected]


class TestRunSweep:
    def test_layout_and_endpoint(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = small_config(out=str(out), charges=(0,), eta_step=0.1)
        rows = run_sweep(config)
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 11
        last = rows[-1].split(",")
        assert last[:3] == ["0", "1", "0"]
        assert float(last[3]) == pytest.approx(0.470, abs=1e-9)
        assert last[4] == "true" and last[7] == "two-way"
        assert out.read_text().splitlines() == rows

    def test_rows_sorted_and_charge_independent(self):
        rows = run_sweep(small_config(charges=(2, 0), deltas=(0.5, 0.0), eta_step=0.5))
        body = [r.split(",") for r in rows[1:]]
        keys = [(int(r[0]), float(r[2]), float(r[1])) for r in body]
        assert keys == sorted(keys)
        # identical specs: rows differ only in the charge column
        for_l0 = [r[1:] for r in body if r[0] == "0"]
        for_l2 = [r[1:] for r in body if r[0] == "2"]
        assert for_l0 == for_l2

    def test_one_block_per_distinct_source(self, monkeypatch):
        # charges sharing a source share its blocks: criteria (sweep), or the
        # criteria and the true states (tomo)
        other = SqueezingSpec(0.3, 5.0)
        specs = {0: SPEC, 1: other, 2: SPEC}
        config = small_config(specs=specs, charges=(0, 1, 2), deltas=(0.5, 0.0), eta_step=0.25,
                              n_per_setting=20)
        alone = {l: run_sweep(small_config(specs={l: spec}, charges=(l,), deltas=(0.5, 0.0),
                                           eta_step=0.25))[1:] for l, spec in specs.items()}
        calls = []
        for name in ("source_criteria", "_true_state"):
            real = getattr(oamcv.cli, name)
            monkeypatch.setattr(oamcv.cli, name,
                                lambda *args, real=real, name=name: calls.append(name) or real(*args))
        rows = run_sweep(config)
        # one criteria pass per distinct source over both deltas
        assert calls == ["source_criteria"] * 2
        assert rows[1:] == alone[0] + alone[1] + alone[2]
        calls.clear()
        run_tomo(config)
        assert calls == ["source_criteria", "_true_state"] * 2

    def test_no_eta_checked_again(self, monkeypatch):
        # the config owns the grid and the deltas
        specs = {0: SPEC, 1: SqueezingSpec(0.3, 5.0), 2: SPEC}
        config = small_config(specs=specs, charges=(0, 1, 2), deltas=(0.5, 0.0, 1.0),
                              n_per_setting=20)

        def refuse(*args):
            raise AssertionError(f"called with {args!r}")

        for module in (oamcv.gaussian, oamcv.channels, oamcv.cli):
            monkeypatch.setattr(module, "checked_eta", refuse)
        run_sweep(config)
        run_tomo(config)

    def test_sweep_and_tomo_build_no_matrix(self, monkeypatch):
        # both read the spec's standard form, and tomo classifies each reconstruction
        # from its six numbers: no source matrix, channel map, eigen route or matrix
        # criteria, on reconstructions of every kind (three samples per setting)
        config = small_config(specs={0: SPEC, 1: SqueezingSpec(0.3, 5.0)}, charges=(0, 1),
                              deltas=(0.0, 1.0), eta_step=0.1, seed=3, n_per_setting=3)
        expected = run_sweep(config), json.dumps(run_tomo(config))
        kinds = {(entry["reconstructed"]["criteria"] is None, entry["reconstructed"]["physical"])
                 for entry in json.loads(expected[1])["results"]}
        assert kinds == {(True, False), (False, False), (False, True)}

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep or tomo builds or classifies a matrix")

        modules = [module for name, module in sys.modules.items()
                   if name == "oamcv" or name.startswith("oamcv.")]
        for name in ("make_tmss", "_check_source", "_channel_map", "symplectic_eigenvalues",
                     "_criteria"):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert (run_sweep(config), json.dumps(run_tomo(config))) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 354.0), st.floats(1.0, 4.0))
    @example(170.0, 4.0)
    @example(354.0, 4.0)
    def test_any_accepted_source_sweeps_or_overflows(self, r, m):
        # the sweep and tomo read the spec alone: a result per point, or invariants past
        # the float range, and both alike
        spec = SqueezingSpec(m * math.exp(-2.0 * r), m * math.exp(2.0 * r))
        config = SweepConfig(specs={0: spec}, charges=(0,), deltas=(0.0, 1.0), n_per_setting=2)
        counts = []
        for run, count in ((run_sweep, lambda rows: len(rows) - 1),
                           (run_tomo, lambda report: len(report["results"]))):
            try:
                counts.append(count(run(config)))
            except NumericalError as exc:
                assert str(exc).startswith("state invariants are not finite (")
                assert r > 170.0
                counts.append(None)
        assert counts in ([2 * len(eta_grid(config))] * 2, [None, None])

    def test_tomo_draws_from_its_true_variances_without_a_second_check(self, monkeypatch):
        # the true variances are sampled as they are: no public sampling path, no
        # _simulable, no VarianceSet and no _variances, one _true_state per source
        def refuse(*args, **kwargs):
            raise AssertionError("run_tomo checks or wraps its true variances again")

        for name in ("sampled_variances", "_simulable", "VarianceSet", "_variances"):
            monkeypatch.setattr(oamcv.tomography, name, refuse)
            monkeypatch.setattr(oamcv.cli, name, refuse, raising=False)
        blocks = []
        real = oamcv.cli._true_state
        monkeypatch.setattr(oamcv.cli, "_true_state",
                            lambda *args: blocks.append(real(*args)[0].shape) or real(*args))
        config = small_config(charges=(0, 1), deltas=(0.0, 0.5), n_per_setting=20)
        report = run_tomo(config)
        points = len(eta_grid(config))
        assert blocks == [(2, points, 6)] and len(report["results"]) == 4 * points

    def test_noisy_sweep_flags_sudden_death(self):
        config = SweepConfig(deltas=(1.0,), charges=(0,), eta_step=0.01)
        rows = run_sweep(config)
        flags = {}
        for row in rows[1:]:
            parts = row.split(",")
            flags[parts[1]] = parts[4]
        assert flags["0.43"] == "false"
        assert flags["0.44"] == "true"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = small_config(out=str(out))
        run_sweep(config)
        first = out.read_bytes()
        run_sweep(config)
        assert out.read_bytes() == first

    def test_unwritable_out_raises_oserror(self, tmp_path):
        config = small_config(out=str(tmp_path / "missing" / "sweep.csv"))
        with pytest.raises(OSError):
            run_sweep(config)


class TestRunThresholds:
    def test_matches_criteria_module(self, tmp_path):
        out = tmp_path / "thresholds.json"
        config = small_config(out=str(out), charges=(0,), deltas=(0.0, 0.15, 0.5, 1.0))
        report = run_thresholds(config)
        by_delta = {entry["delta"]: entry for entry in report["results"]}
        assert by_delta[0.0]["entanglement"] is None
        for delta in (0.15, 0.5, 1.0):
            assert by_delta[delta]["entanglement"] == \
                entanglement_death_eta(SqueezingSpec(V_REF, VP_REF), delta)
        assert by_delta[0.15]["steering_AB"] == pytest.approx(0.4895, abs=1e-3)
        assert by_delta[0.15]["steering_BA"] == pytest.approx(0.8055, abs=1e-3)
        saved = json.loads(out.read_text())
        assert saved == json.loads(json.dumps(report))
        assert '"entanglement": null' in out.read_text()

    def test_charges_of_one_source_share_its_solves(self, monkeypatch):
        real, solves = oamcv.cli._death_etas, []

        def counted(spec, delta):
            solves.append((spec, delta))
            return real(spec, delta)

        other = SqueezingSpec(0.3, 5.0)
        config = SweepConfig(specs={0: SPEC, 1: other, 2: SPEC}, charges=(2, 1, 0),
                             deltas=(0.5, 0.0))
        monkeypatch.setattr(oamcv.cli, "_death_etas", counted)
        report = run_thresholds(config)
        assert solves == [(SPEC, 0.0), (SPEC, 0.5), (other, 0.0), (other, 0.5)]
        assert [(entry["l"], entry["delta"]) for entry in report["results"]] == \
            [(l, delta) for l in (0, 1, 2) for delta in (0.0, 0.5)]
        for entry in report["results"]:
            spec = other if entry["l"] == 1 else SPEC
            assert [entry[key] for key in ("entanglement", "steering_AB", "steering_BA")] == \
                list(real(spec, entry["delta"]))


class TestRunTomo:
    def test_reference_point_round_trip(self):
        config = small_config(charges=(0,), eta_start=1.0, eta_stop=1.0,
                              n_per_setting=100_000)
        report = run_tomo(config)
        entry = report["results"][0]
        assert entry["true"]["criteria"]["nu"] == pytest.approx(0.470, abs=1e-9)
        assert entry["reconstructed"]["criteria"]["nu"] == pytest.approx(0.470, abs=0.02)
        assert entry["reconstructed"]["max_abs_entry_error"] < 0.1
        for setting in ("Xc", "Yc", "Xp", "Yp"):
            assert entry["reconstructed"]["variances_db"][setting] == pytest.approx(3.6, abs=0.1)
        for setting in ("Xdiff", "Ysum"):
            assert entry["reconstructed"]["variances_db"][setting] == pytest.approx(-3.3, abs=0.1)

    def test_vacuum_reconstructs_to_no_correlations(self):
        config = small_config(charges=(0,), specs={0: SqueezingSpec(1.0, 1.0)},
                              eta_start=1.0, eta_stop=1.0, n_per_setting=50_000)
        entry = run_tomo(config)["results"][0]
        # the vacuum sits exactly on every decision boundary, so the sampled
        # class is seed-dependent; the analytic side must say none, and the
        # reconstruction must land on the identity within sampling error
        assert entry["true"]["criteria"]["class"] == "none"
        assert not entry["true"]["criteria"]["entangled"]
        assert entry["reconstructed"]["max_abs_entry_error"] < 0.05
        rec = np.array(entry["reconstructed"]["entry_errors"]) + np.eye(4)
        assert np.allclose(rec, np.eye(4), atol=0.05)

    def test_every_entry_equals_the_scalar_chain(self):
        # three samples per setting: many reconstructions are unphysical, most of those
        # not PD; the scalar chain through the matrices per point is the reference.
        # The chain's true joint variance is b + a - 2c of its matrix, rounded: the
        # fields it reaches (the joint columns, c_x and c_y, nu, g, physical) are held
        # to exact arithmetic and the chain's decisions, every other field to its bits
        config = small_config(deltas=(0.0, 1.0), eta_step=0.1, seed=3, n_per_setting=3)
        kinds = set()
        for entry in run_tomo(config)["results"]:
            spec = config.specs[entry["l"]]
            true_cm = apply_channel(make_tmss(spec), ChannelParams(entry["eta"], entry["delta"]))
            measured = sampled_variances(true_cm.entries[None], config.n_per_setting,
                                         [entry["seed"]])[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReconstructionWarning)
                rec_cm = reconstruct_cm(measured)
            try:
                criteria, error = classify(rec_cm).to_json_dict(), None
            except ToolkitError as exc:
                criteria, error = None, str(exc)
            truth = expected_variances(true_cm)
            true_criteria = source_criteria(spec, [entry["eta"]],
                                            entry["delta"]).report(0).to_json_dict()
            assert entry["true"]["criteria"] == true_criteria
            # the matrix criteria of the true state agree with its closed form
            matrix = classify(true_cm).to_json_dict()
            for key in ("nu", "gAB", "gBA"):
                assert matrix[key] == pytest.approx(true_criteria[key], rel=1e-9, abs=1e-9)
            for key in ("entangled", "class"):
                assert matrix[key] == true_criteria[key]
            # the single settings are the chain's bits; the true joint variance is exact
            # to 4 eps, and each draw of a joint setting its chain draw's ratio to its truth
            exact = exact_joint(spec.v, spec.vp, entry["eta"], entry["delta"])
            rec = entry["reconstructed"]
            for s in SETTINGS:
                true_db, rec_db = entry["true"]["variances_db"][s], rec["variances_db"][s]
                if s in ("Xdiff", "Ysum"):
                    joint = 2.0 * 10.0 ** (true_db / 10.0)
                    assert joint == pytest.approx(float(exact), rel=1e-14)
                    assert rec_db - true_db == pytest.approx(
                        measured.db(s) - truth.db(s), rel=0, abs=1e-13)
                else:
                    assert (true_db, rec_db) == (truth.db(s), measured.db(s))
            assert rec["stderr_db"] == {s: measured.stderr(s) for s in SETTINGS}
            # entry errors: the chain's bits, its covariances to the joint dB's rounding
            errors, got = rec_cm.entries - true_cm.entries, np.array(rec["entry_errors"])
            covariances = np.zeros((4, 4), dtype=bool)
            covariances[[0, 2, 1, 3], [2, 0, 3, 1]] = True
            assert got[~covariances].tobytes() == errors[~covariances].tobytes()
            assert got[covariances] == pytest.approx(errors[covariances], rel=0,
                                                      abs=1e-12 * np.abs(rec_cm.entries).max())
            assert rec["max_abs_entry_error"] == float(np.max(np.abs(got)))
            # the criteria: the chain's decisions and error texts, values within their
            # bounds of exact arithmetic on the reported six numbers
            numbers = _six_numbers([[rec["variances_db"][s] for s in SETTINGS]])[0].tolist()
            assert rec.get("criteria_error") == error
            assert rec["physical"] == validate(rec_cm).ok
            assert set(rec) == {"variances_db", "stderr_db", "criteria", "physical",
                                "entry_errors", "max_abs_entry_error",
                                *(["criteria_error"] if error else [])}
            if error is None:
                ours = rec["criteria"]
                assert (ours["entangled"], ours["class"]) == (criteria["entangled"],
                                                              criteria["class"])
                assert max(block_errors(numbers, ours["nu"], ours["gAB"], ours["gBA"])) <= 2.0
                assert rec["physical"] == (exact_nu_min(numbers) >= 1 - Decimal("1e-6"))
            else:
                assert rec["criteria"] is None and not exact_pd(numbers)
            kinds.add((error is None, rec["physical"]))
        assert kinds == {(False, False), (True, False), (True, True)}

    def test_builds_no_samples(self, monkeypatch):
        # guard: tomo draws each sample variance, never a sample batch
        config = small_config(deltas=(0.0, 1.0), n_per_setting=100_000)
        expected = run_tomo(config)

        def refuse(*args, **kwargs):
            raise AssertionError("run_tomo must not build samples")

        for module in (oamcv, oamcv.tomography, oamcv.cli):
            for name in ("SampleBatch", "simulate_measurements", "variances_from_batches"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert json.dumps(run_tomo(config)) == json.dumps(expected)

    def test_deterministic(self):
        config = small_config(charges=(0,), eta_start=0.5, eta_stop=0.5, n_per_setting=2000)
        assert json.dumps(run_tomo(config)) == json.dumps(run_tomo(config))

    def test_noisy_point_classification_matches_truth(self):
        # eta = 0.3 with delta = 0.5 sits just below the sudden-death boundary
        matches = 0
        for seed in range(100):
            config = SweepConfig(deltas=(0.5,), eta_start=0.3, eta_stop=0.3,
                                 charges=(0,), seed=seed, n_per_setting=20_000)
            entry = run_tomo(config)["results"][0]
            truth = entry["true"]["criteria"]["entangled"]
            if entry["reconstructed"]["criteria"]["entangled"] == truth:
                matches += 1
        assert matches >= 95

    def test_truth_is_the_sweep_row(self, tmp_path, capsys):
        # charges 0 and 1 share a source, charge 2 has its own; two deltas
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"specs": {"0": SPEC_JSON, "1": SPEC_JSON,
                                              "2": {"v": 0.3, "vp": 5.0}},
                                    "deltas": [0.15, 1.0], "eta_step": 0.05}))
        csv, tomo = tmp_path / "sweep.csv", tmp_path / "tomo.json"
        assert main(["sweep", "--config", str(path), "--out", str(csv)]) == EXIT_OK
        assert main(["tomo", "--config", str(path), "--n", "10", "--out", str(tomo)]) == EXIT_OK
        capsys.readouterr()
        rows = {tuple(row[:3]): row[3:] for row in
                (line.split(",") for line in csv.read_text().splitlines()[1:])}
        entries = json.loads(tomo.read_text())["results"]
        assert len(entries) == len(rows) == 3 * 2 * 21
        for entry in entries:
            truth = entry["true"]["criteria"]
            key = (str(entry["l"]), f"{entry['eta']:.9g}", f"{entry['delta']:.9g}")
            assert rows[key] == [f"{truth['nu']:.9g}", "true" if truth["entangled"] else "false",
                                 f"{truth['gAB']:.9g}", f"{truth['gBA']:.9g}", truth["class"]]
        # the rows hold both verdicts, and l = 2 differs from l = 0
        assert {row[1] for row in rows.values()} == {"true", "false"}
        assert rows["2", "0.5", "1"] != rows["0", "0.5", "1"]


class TestRunModes:
    def test_images_and_counts(self, tmp_path):
        report = run_modes((-1, 0, 2), astigmatism=2.0, out_dir=tmp_path)
        by_l = {entry["l"]: entry for entry in report["results"]}
        assert by_l[-1]["stripes"] == 1 and by_l[0]["stripes"] == 0 and by_l[2]["stripes"] == 2
        assert by_l[-1]["axis_sign"] == -1 and by_l[2]["axis_sign"] == 1
        for l in (-1, 0, 2):
            assert (tmp_path / f"mode_l{l}_beam.pgm").exists()
            assert (tmp_path / f"mode_l{l}_tilted.pgm").exists()
        saved = json.loads((tmp_path / "stripes.json").read_text())
        assert saved == json.loads(json.dumps(report))

    def test_empty_charges_rejected(self, tmp_path):
        with pytest.raises(InputError):
            run_modes((), out_dir=tmp_path)

    def test_duplicate_charges_rejected(self, tmp_path):
        with pytest.raises(InputError, match="distinct"):
            run_modes((1, 1), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bit_depth", [16.0, 12, True, "16", None])
    def test_bit_depth_checked_before_out_dir(self, bit_depth, tmp_path):
        out = tmp_path / "images"
        with pytest.raises(InputError) as exc:
            run_modes((0, 1), out_dir=out, bit_depth=bit_depth)
        assert str(exc.value) == f"bit_depth must be 8 or 16, got {bit_depth!r}"
        assert not out.exists()

    def test_numpy_bit_depth_is_an_integer(self, tmp_path):
        run_modes((1,), out_dir=tmp_path, bit_depth=np.int64(8))
        assert (tmp_path / "mode_l1_tilted.pgm").read_bytes().split(b"\n")[2] == b"255"

    def test_miscounted_charge_leaves_no_files(self, monkeypatch, tmp_path):
        # the second charge miscounts after the first is written: that one is removed again
        real, calls = oamcv.cli.count_dark_stripes, []

        def miscount(pattern):
            stripes = real(pattern)
            calls.append(stripes)
            return replace(stripes, count=stripes.count + 1) if len(calls) == 2 else stripes

        monkeypatch.setattr(oamcv.cli, "count_dark_stripes", miscount)
        (tmp_path / "keep.txt").write_text("not this call's")
        with pytest.raises(NumericalError, match=r"^stripe count 3 does not match \|l\| = 2 "):
            run_modes((1, 2, 0), out_dir=tmp_path)
        assert len(calls) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("failing", [1, 3, 5])
    def test_failed_write_leaves_no_files(self, failing, monkeypatch, tmp_path):
        # a write that fails part way, an image's or stripes.json's: every file of the call goes
        real_pgm, real_text, writes = oamcv.cli.write_pgm, oamcv.cli._write_text, []

        def write_then_fail(real):
            def write(path, *args, **kwargs):
                real(path, *args, **kwargs)
                writes.append(path)
                if len(writes) == failing:
                    raise OSError(f"cannot finish {path}")
            return write

        monkeypatch.setattr(oamcv.cli, "write_pgm", write_then_fail(real_pgm))
        monkeypatch.setattr(oamcv.cli, "_write_text", write_then_fail(real_text))
        with pytest.raises(OSError, match="^cannot finish "):
            run_modes((0, 1), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("charges", [5, (0, True), (0, 1.0), (0, "1")])
    def test_charges_checked_as_in_sweep_config(self, charges, tmp_path):
        with pytest.raises(InputError) as config_error:
            SweepConfig(charges=charges)
        out = tmp_path / "images"
        with pytest.raises(InputError) as modes_error:
            run_modes(charges, out_dir=out)
        assert str(modes_error.value) == str(config_error.value)
        assert not out.exists()


# text and floats that json escapes or spells specially, for fields a run does
# not fill with them itself
JSON_STRINGS = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "%", "%s", "nan", "inf", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", ""])
JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])


def is_json_dumps(text_of, report) -> bool:
    return text_of(report) == json.dumps(report, indent=2) + "\n"


def small_tomo_report():
    return run_tomo(small_config(charges=(0, 1), deltas=(0.0, 1.0), eta_step=0.5, n_per_setting=3,
                                 seed=3))


def stripes_report():
    return {"astigmatism": 2.0, "results": [
        {"l": l, "stripes": abs(l), "axis_sign": 1, "beam_image": f"mode_l{l}_beam.pgm",
         "tilted_image": f"mode_l{l}_tilted.pgm"} for l in (-1, 0, 2)]}


class TestReportText:
    """Each JSON report's text function is json.dumps(report, indent=2) + newline."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(source_specs(), min_size=1, max_size=2), st.lists(deltas, max_size=2),
           st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True), st.data())
    def test_thresholds(self, specs, more_deltas, charges, data):
        sources = {l: data.draw(st.sampled_from(specs)) for l in charges}
        # a lossy channel never kills entanglement: delta = 0 gives None thresholds
        report = run_thresholds(SweepConfig(specs=sources, charges=charges,
                                            deltas=tuple({0.0, *more_deltas})))
        assert any(entry["entanglement"] is None for entry in report["results"])
        assert is_json_dumps(_thresholds_text, report)
        entry = data.draw(st.sampled_from(report["results"]))
        entry[data.draw(st.sampled_from(["delta", "entanglement", "steering_BA"]))] = \
            data.draw(JSON_FLOATS)
        assert is_json_dumps(_thresholds_text, report)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.sampled_from([3, 4, 1000]),
           st.floats(0.0, 1.0), st.sampled_from([0.3, 0.5, 1.0]),
           st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True), st.data())
    def test_tomo(self, seed, n, start, step, charges, data):
        # n = 3 leaves most reconstructions with a criteria_error, as in TOMO_ERRORS
        report = run_tomo(small_config(charges=charges, deltas=(0.0, 1.0), eta_start=start,
                                       eta_step=step, seed=seed, n_per_setting=n))
        assert is_json_dumps(_tomo_text, report)
        for entry in data.draw(st.lists(st.sampled_from(report["results"]), max_size=3)):
            rec = entry["reconstructed"]
            row = data.draw(st.sampled_from(rec["entry_errors"]))
            row[data.draw(st.integers(0, 3))] = data.draw(JSON_FLOATS)
            rec["max_abs_entry_error"] = data.draw(JSON_FLOATS)
            # a block of its own, and each shape: criteria or not, criteria_error or not
            rec["stderr_db"] = dict.fromkeys(SETTINGS, data.draw(JSON_FLOATS))
            if data.draw(st.booleans()):
                rec["criteria_error"] = data.draw(JSON_STRINGS)
            if data.draw(st.booleans()):
                rec["criteria"] = None
        assert is_json_dumps(_tomo_text, report)

    @pytest.mark.parametrize("argv", [TOMO_ARGS, TOMO_ERRORS_ARGS], ids=["TOMO", "TOMO_ERRORS"])
    def test_golden_tomo_reports(self, argv):
        report = run_tomo(_config_from_args(build_parser().parse_args(argv)))
        assert is_json_dumps(_tomo_text, report)
        if argv is TOMO_ERRORS_ARGS:
            assert any("criteria_error" in e["reconstructed"] for e in report["results"])

    def test_stripes_file(self, tmp_path):
        report = run_modes(range(-5, 6), out_dir=tmp_path)
        assert (tmp_path / "stripes.json").read_bytes() == \
            (json.dumps(report, indent=2) + "\n").encode()
        assert is_json_dumps(_stripes_text, report)

    @settings(max_examples=100, deadline=None)
    @given(JSON_FLOATS, st.lists(st.tuples(st.integers(), st.integers(), st.integers(-1, 1),
                                           JSON_STRINGS, JSON_STRINGS), max_size=3))
    def test_stripes_fields(self, astigmatism, rows):
        keys = ("l", "stripes", "axis_sign", "beam_image", "tilted_image")
        report = {"astigmatism": astigmatism, "results": [dict(zip(keys, row)) for row in rows]}
        assert is_json_dumps(_stripes_text, report)

    @pytest.mark.parametrize("text_of, report_of, change", [
        (_thresholds_text, lambda: run_thresholds(small_config(deltas=(0.0, 0.5))),
         lambda r: r["results"][1].update(delta=np.float64(0.5))),
        (_thresholds_text, lambda: run_thresholds(small_config(deltas=(0.0, 0.5))),
         lambda r: r["results"][0].update(l=True)),
        (_thresholds_text, lambda: run_thresholds(small_config(deltas=(0.0, 0.5))),
         lambda r: r.update(results=tuple(r["results"]))),
        (_tomo_text, small_tomo_report, lambda r: r["results"][2].update(eta=np.float64(0.5))),
        (_tomo_text, small_tomo_report, lambda r: r["results"][0].update(seed=np.uint64(7))),
        (_tomo_text, small_tomo_report,
         lambda r: r["results"][0]["reconstructed"].update(physical=np.True_)),
        (_tomo_text, small_tomo_report,
         lambda r: r["results"][0]["reconstructed"]["entry_errors"].__setitem__(1, (0.0,) * 4)),
        (_tomo_text, small_tomo_report,
         lambda r: r["results"][3]["true"]["criteria"].update(nu=np.float64(1.0))),
        (_tomo_text, small_tomo_report, lambda r: r.update(n_per_setting=3.0)),
        (_stripes_text, stripes_report, lambda r: r["results"][2].update(stripes=np.int64(2))),
        (_stripes_text, stripes_report, lambda r: r["results"][0].update(beam_image=Path("b"))),
        (_stripes_text, stripes_report, lambda r: r.update(astigmatism=np.float64(2.0))),
    ], ids=["thresholds-np.float64", "thresholds-bool-charge", "thresholds-tuple",
            "tomo-np.float64", "tomo-np.uint64", "tomo-np.bool", "tomo-tuple-row",
            "tomo-true-np.float64", "tomo-float-n", "stripes-np.int64", "stripes-path",
            "stripes-np.float64"])
    def test_other_types_raise_type_error(self, text_of, report_of, change):
        report = report_of()
        assert is_json_dumps(text_of, report)
        change(report)
        with pytest.raises(TypeError):
            text_of(report)


class TestMain:
    def test_import_leaves_scipy_unloaded(self):
        # numpy is the only runtime dependency; a fresh interpreter shows
        # whether importing the package pulls in scipy
        script = ("import sys, oamcv, oamcv.cli; print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))")
        result = run_fresh(["-c", script])
        assert (result.returncode, result.stdout.strip()) == (0, "[]")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "oamcv" in capsys.readouterr().out

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--v", "--vp", "--delta", "--eta-start",
                     "--eta-stop", "--eta-step", "--charges", "--seed", "--n",
                     "--out", "--preset"):
            assert flag in out

    @pytest.mark.parametrize("argv, noun", [
        (["sweep", "--preset", "fig3", "--charges", "0,1"], "rows"),
        (["thresholds", "--preset", "fig4"], "threshold entries"),
        (["tomo", "--charges", "0", "--eta-step", "0.5", "--n", "200"], "tomography entries"),
    ])
    def test_stdout_is_the_out_file(self, argv, noun, tmp_path, capsys):
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert printed.encode() == out.read_bytes()
        count = len(printed.splitlines()) - 1 if argv[0] == "sweep" else \
            len(json.loads(printed)["results"])
        assert capsys.readouterr().out == f"wrote {count} {noun} to {out}\n"

    def test_sweep_to_stdout(self, capsys):
        code = main(["sweep", "--charges", "0", "--eta-start", "1",
                     "--eta-stop", "1", "--eta-step", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == SWEEP_HEADER
        assert ",two-way" in out

    def test_preset_fig3(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["thresholds", "--preset", "fig3", "--charges", "0", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [e["delta"] for e in report["results"]] == [0.15, 0.5, 1.0]
        assert PRESETS["fig3"]["deltas"] == (0.15, 0.5, 1.0)

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"v": 0.5, "vp": 2.5, "eta_step": 0.5, "seed": 3}))
        args = build_parser().parse_args(
            ["sweep", "--config", str(path), "--eta-step", "0.25", "--charges", "0,1"])
        from oamcv.cli import _config_from_args
        config = _config_from_args(args)
        assert config.eta_step == 0.25          # flag wins
        assert config.seed == 3                 # file value kept
        assert config.charges == (0, 1)
        assert config.specs[1] == SqueezingSpec(0.5, 2.5)

    def test_config_error_exit_code(self, capsys):
        assert main(["sweep", "--eta-step", "-1"]) == EXIT_CONFIG
        assert main(["sweep", "--charges", ""]) == EXIT_CONFIG
        assert main(["sweep", "--v", "0.3", "--vp", "0.5"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "thresholds", "tomo", "modes"])
    def test_io_error_exit_code(self, command, tmp_path, capsys):
        if command == "modes":
            # the output directory would be made under a regular file
            blocker = tmp_path / "file"
            blocker.write_text("")
            argv = ["modes", "--charges", "0", "--out", str(blocker / "images")]
        else:
            argv = [command, "--charges", "0", "--eta-step", "0.5", "--n", "10",
                    "--out", str(tmp_path / "nope" / "out")]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "thresholds", "tomo", "modes"])
    def test_directory_as_output_file_exits_4(self, command, tmp_path, capsys):
        if command == "modes":
            # an image's file name is taken by a directory
            (tmp_path / "mode_l0_beam.pgm").mkdir()
            argv = ["modes", "--charges", "0", "--out", str(tmp_path)]
        else:
            argv = [command, "--charges", "0", "--eta-step", "0.5", "--n", "10",
                    "--out", str(tmp_path)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a vanishing astigmatic phase leaves the l=2 ring intact: one central
        # dark dip instead of two stripes, which the modes runner must reject
        code = main(["modes", "--charges", "2", "--astigmatism", "1e-9",
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "numerical error" in capsys.readouterr().err

    def test_modes_duplicate_charges_is_config_error(self, tmp_path, capsys):
        code = main(["modes", "--charges=1,1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "distinct" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_modes_bad_charge_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "images"
        assert main(["modes", "--charges=0,17", "--out", str(out)]) == EXIT_CONFIG
        assert "exceeds the grid-resolution guard" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_source_is_numerical_error(self, capsys):
        # every determinant of the source overflows to inf
        code = main(["sweep", "--v", "1e-200", "--vp", "1e200", "--charges", "0"])
        assert code == EXIT_NUMERICAL
        assert "invariants are not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "tomo"])
    def test_overflow_at_a_later_delta_is_numerical_error(self, command, capsys):
        # the states at delta = 1e300 overflow; delta = 0 comes first and passes
        code = main([command, "--charges", "0", "--delta", "0,1e300", "--eta-step", "0.5"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", "numerical error: state invariants are not finite "
                                           "(Dt = inf, det sigma = inf)\n")

    @pytest.mark.parametrize("command, v, vp, code, err", [
        # the states' invariants overflow: the sweep's finiteness check, exit 3
        ("sweep", "1e-200", "1e200", EXIT_NUMERICAL,
         "numerical error: state invariants are not finite (Dt = inf, det sigma = inf)\n"),
        # finite invariants: the sweep reads them from the spec, exit 0
        ("sweep", "1e-100", "1e100", EXIT_OK, ""),
        # tomo takes its truth from the spec as the sweep does: the same error, exit 3
        ("tomo", "1e-200", "1e200", EXIT_NUMERICAL,
         "numerical error: state invariants are not finite (Dt = inf, det sigma = inf)\n"),
        # and the same exit 0 (its reconstructions fail their own checks, in the JSON)
        ("tomo", "1e-100", "1e100", EXIT_OK, ""),
    ])
    def test_degenerate_source_stderr_is_one_line(self, command, v, vp, code, err):
        result = run_fresh(["-m", "oamcv.cli", command, "--v", v, "--vp", vp, "--charges", "0"])
        assert (result.returncode, result.stderr) == (code, err)
        assert (result.stdout == "") == (code != EXIT_OK)

    @pytest.mark.parametrize("r", [6.5, 6.8, 7, 8, 10, 15])
    def test_source_beyond_float_resolution_runs_tomo(self, r, tmp_path, capsys):
        # pure sources whose matrix rounding leaves unphysical: tomo builds none, and
        # its truth at eta = 1 is the nu the sweep prints
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"r": r, "charges": [0], "eta_start": 1}))
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert main(["tomo", "--config", str(path), "--n", "1000"]) == EXIT_OK
        truth = json.loads(capsys.readouterr().out)["results"][0]["true"]["criteria"]
        assert f"{truth['nu']:.9g}" == row[3]
        assert truth["nu"] == source_criteria(SqueezingSpec.from_r(r), [1.0], 0.0).nu[0]

    @pytest.mark.parametrize("r, nu", [(4, "0.000335462628"), (5, "4.53999298e-05"),
                                       (5.3, "2.49160097e-05"), (6.5, "2.26032941e-06"),
                                       (6.8, "1.24049508e-06"), (7, "8.31528719e-07"),
                                       (8, "1.12535175e-07"), (10, "2.06115362e-09"),
                                       (15, "9.35762297e-14")])
    def test_squeezed_source_prints_every_digit(self, r, nu, tmp_path, capsys):
        # the sweep reads nu = e^{-2r} at eta = 1 in closed form, not from a matrix
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"r": r, "charges": [0], "eta_start": 1}))
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[:4] == ["0", "1", "0", nu]

    def test_source_the_matrix_routes_cannot_resolve_sweeps_exactly(self, capsys):
        # the two matrix PPT routes disagree on this source, which made the sweep exit 3;
        # its closed form prints nu = v at eta = 1
        assert main(["sweep", "--v", "0.3", "--vp", "1e8", "--charges", "0",
                     "--eta-step", "0.5"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == \
            "0,1,0,0.3,true,0.510825627,0.510825627,two-way"
        with pytest.raises(NumericalError, match="^PPT computation paths disagree"):
            classify(make_tmss(SqueezingSpec(0.3, 1e8)))

    def test_source_the_matrix_routes_cannot_resolve_runs_tomo(self, capsys):
        # the matrix routes disagree on this source's true state (exit 3 if
        # classified); tomo's truth is the closed form the sweep prints
        source = ["--v", "0.3", "--vp", "1e8", "--charges", "0", "--eta-start", "1"]
        assert main(["sweep", *source]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert main(["tomo", *source, "--n", "1000"]) == EXIT_OK
        truth = json.loads(capsys.readouterr().out)["results"][0]["true"]["criteria"]
        assert truth["nu"] == float(row[3]) == 0.3

    @pytest.mark.parametrize("argv, config, code, err", [
        # entries above half the float max: symmetrising must not overflow
        (["sweep", "--delta", "1e308", "--charges", "0", "--eta-step", "0.5"], None,
         EXIT_NUMERICAL, "numerical error: state invariants are not finite (Dt = inf, "),
        (["sweep", "--v", "0.5", "--vp", "1.7e308", "--charges", "0", "--eta-step", "0.5"],
         None, EXIT_NUMERICAL, "numerical error: state invariants are not finite (Dt = inf, "),
        # the source's entries are finite, each half taken before the sum
        (["sweep", "--v", "1.7e308", "--vp", "1.7e308", "--charges", "0", "--eta-step", "0.5"],
         None, EXIT_NUMERICAL, "numerical error: state invariants are not finite (Dt = inf, "),
        (["tomo", "--delta", "1e308", "--charges", "0", "--eta-start", "0", "--eta-stop", "0"],
         None, EXIT_NUMERICAL, "numerical error: state invariants are not finite (Dt = inf, "),
        # n - 1 has no float value
        (["tomo", "--n", "1" + "0" * 400, "--charges", "0", "--eta-start", "1"], None,
         EXIT_CONFIG, "config error: n_per_setting must be an integer >= 2, got 1000"),
        # config files that are not UTF-8, hold an over-long integer, or nest too deep
        (["sweep"], b'{"v": \xff}', EXIT_CONFIG, "config error: config file {config} is not "),
        (["sweep"], b'{"seed": ' + b"1" * 5000 + b"}", EXIT_CONFIG,
         "config error: config file {config} is not "),
        (["sweep"], b"[" * 100_000 + b"]" * 100_000, EXIT_CONFIG,
         "config error: config file {config} is not "),
        # the astigmatic phase overflows the far-field window
        (["modes", "--astigmatism", "1e308", "--charges", "1"], None, EXIT_NUMERICAL,
         "numerical error: astigmatism 1e+308 overflows the far-field window"),
    ], ids=["sweep-delta", "sweep-vp", "sweep-v-vp", "tomo-delta", "tomo-n", "config-utf8",
            "config-int", "config-depth", "modes-astigmatism"])
    def test_bad_input_ends_in_one_error_line(self, argv, config, code, err, tmp_path):
        path = tmp_path / "config.json"
        if config is not None:
            path.write_bytes(config)
            argv = [*argv, "--config", str(path)]
        if argv[0] == "modes":
            argv = [*argv, "--out", str(tmp_path / "images")]
        result = run_fresh(["-m", "oamcv.cli", *argv])
        assert result.returncode == code
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(err.format(config=path))

    @pytest.mark.parametrize("astigmatism", ["1e6", "1e100", "1e200", "1e306"])
    def test_modes_at_huge_astigmatism_is_never_a_config_error(self, astigmatism, tmp_path):
        # the window is accepted; a wrong stripe count is the runner's numerical error
        result = run_fresh(["-m", "oamcv.cli", "modes", "--charges=0,1,-2",
                            "--astigmatism", astigmatism, "--out", str(tmp_path)])
        assert result.returncode in (EXIT_OK, EXIT_NUMERICAL)
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    def test_negative_delta_is_config_error(self, capsys):
        assert main(["sweep", "--delta", "0.1,-0.5", "--charges", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: delta must be >= 0, got -0.5\n"

    @pytest.mark.parametrize("deltas", ["0,0", "0,-0"])
    def test_repeated_delta_is_config_error(self, deltas, capsys):
        assert main(["sweep", f"--delta={deltas}", "--charges", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: deltas must be distinct, got (0.0, 0.0)\n"

    @pytest.mark.parametrize("command", ["sweep", "thresholds"])
    def test_negative_zero_delta_prints_as_zero(self, command, capsys):
        printed = []
        for delta in ("0", "-0"):
            assert main([command, f"--delta={delta}", "--charges", "0,1"]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("out", [5, True, ["a"], ""])
    def test_out_must_be_a_path(self, out, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out": out, "charges": [0], "eta_step": 0.5}))
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out must be a non-empty path, got {out!r}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_v_alone_is_config_error(self, capsys):
        # a source given by flags replaces the file's as a whole, so --v needs --vp
        assert main(["sweep", "--v", "0.3"]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: spec needs keys v and vp, or r alone, "
                                           "got {'v': 0.3}\n")

    def test_modes_main(self, tmp_path, capsys):
        code = main(["modes", "--charges", "0,1", "--out", str(tmp_path), "--depth", "8"])
        assert code == EXIT_OK
        assert (tmp_path / "mode_l1_tilted.pgm").exists()
        assert "1 dark stripes" in capsys.readouterr().out

    def test_bad_config_file_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG

    def test_wrongly_typed_config_values(self, tmp_path):
        for payload in ({"eta_start": "zero"}, {"charges": 5}, {"deltas": [None]},
                        {"v": "x", "vp": 2.0}, {"v": None, "vp": None}, {"r": None},
                        {"r": 0.3, "v": None}):
            path = tmp_path / "typed.json"
            path.write_text(json.dumps(payload))
            assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG

    def test_malformed_specs_is_config_error(self, tmp_path):
        for payload in ({"specs": [1, 2]}, {"specs": {"x": {"r": 0.2}}}, {"specs": {"0": 5}}):
            path = tmp_path / "specs.json"
            path.write_text(json.dumps(payload))
            assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG

    def test_flag_source_replaces_file_source(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"r": 0.3}))
        args = build_parser().parse_args(
            ["sweep", "--config", str(path), "--v", "0.5", "--vp", "2.5", "--charges", "0"])
        from oamcv.cli import _config_from_args
        assert _config_from_args(args).specs == {0: SqueezingSpec(0.5, 2.5)}

    @pytest.mark.parametrize("command, name", [("sweep", "source_criteria"),
                                               ("tomo", "source_criteria"),
                                               ("tomo", "_block_criteria")])
    def test_internal_fault_is_not_a_config_error(self, command, name, monkeypatch):
        def broken(*args):
            raise ValueError("injected fault")

        monkeypatch.setattr(f"oamcv.cli.{name}", broken)
        with pytest.raises(ValueError, match="injected fault"):
            main([command, "--charges", "0", "--eta-step", "0.5", "--n", "10"])

    def test_injected_parse_fault_is_not_a_config_error(self, monkeypatch):
        # a plain ValueError inside config parsing is a program fault, not bad input
        def broken(charges):
            raise ValueError("injected fault")

        monkeypatch.setattr("oamcv.cli.checked_charges", broken)
        with pytest.raises(ValueError, match="injected fault") as error:
            main(["sweep", "--charges", "0", "--eta-step", "0.5"])
        assert not isinstance(error.value, InputError)

    @pytest.mark.parametrize("payload, err", [
        ({"specs": {"1": {"r": 0.2}, "01": {"v": 0.9, "vp": 2.0}}},
         "config error: charges must be distinct, got (1, 1)\n"),
        ({"r": 400}, "config error: squeezing parameter must be >= 0 with finite e^(2r), "
                     "got 400\n"),
        ({"n_per_setting": 2.7}, "config error: n_per_setting must be an integer >= 2, got 2.7\n"),
        ({"deltas": "05"}, "config error: deltas must be a non-empty list of numbers, got '05'\n"),
        ({"eta_step": True}, "config error: eta step must be positive, got True\n"),
        ({"v": "0.5", "vp": 4},
         "config error: variances must be positive and finite, got ('0.5', 4)\n"),
    ])
    def test_bad_config_exits_2(self, payload, err, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_negative_seed_exits_2(self, capsys):
        code = main(["tomo", "--seed", "-1", "--charges", "0", "--eta-step", "0.5", "--n", "10"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed must be a non-negative integer, got -1\n"

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == EXIT_IO
