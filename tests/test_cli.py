"""Command-line front end: config handling, runners, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamcv
from oamcv import InputError, SqueezingSpec, entanglement_death_eta
from oamcv.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, PRESETS,
                       SWEEP_HEADER, SweepConfig, build_parser, eta_grid, main,
                       run_modes, run_sweep, run_thresholds, run_tomo)
from conftest import V_REF, VP_REF


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

    def test_eta_grid_values(self):
        assert eta_grid(small_config(eta_step=0.3)) == [0.0, 0.3, 0.6, 0.9]
        assert eta_grid(SweepConfig()) == pytest.approx(np.arange(101) / 100)
        assert eta_grid(small_config())[-1] == 1.0


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

    @pytest.mark.parametrize("charges", [5, (0, True), (0, 1.0), (0, "1")])
    def test_charges_checked_as_in_sweep_config(self, charges, tmp_path):
        with pytest.raises(InputError) as config_error:
            SweepConfig(charges=charges)
        out = tmp_path / "images"
        with pytest.raises(InputError) as modes_error:
            run_modes(charges, out_dir=out)
        assert str(modes_error.value) == str(config_error.value)
        assert not out.exists()


class TestMain:
    def test_import_leaves_scipy_unloaded(self):
        # numpy is the only runtime dependency; a fresh interpreter shows
        # whether importing the package pulls in scipy
        src = str(Path(oamcv.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = ("import sys, oamcv, oamcv.cli; print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

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

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nope" / "sweep.csv"
        code = main(["sweep", "--charges", "0", "--eta-step", "0.5", "--out", str(out)])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("v, vp, code, err", [
        # the source's determinants overflow: the finiteness check, exit 3
        ("1e-200", "1e200", EXIT_NUMERICAL,
         "numerical error: state invariants are not finite (Dt = inf, det sigma = 0.0)\n"),
        # finite invariants, but singular in floating point: not PD, exit 2
        ("1e-100", "1e100", EXIT_CONFIG,
         "config error: input state is unphysical (min symplectic eigenvalue nan)\n"),
    ])
    def test_degenerate_source_stderr_is_one_line(self, v, vp, code, err):
        # a fresh interpreter, so a numpy RuntimeWarning would reach stderr
        src = str(Path(oamcv.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "oamcv.cli", "sweep", "--v", v,
                                 "--vp", vp, "--charges", "0"], env=env,
                                capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (code, "", err)

    def test_negative_delta_is_config_error(self, capsys):
        assert main(["sweep", "--delta", "0.1,-0.5", "--charges", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: delta must be >= 0, got -0.5\n"

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

    def test_internal_fault_is_not_a_config_error(self, monkeypatch):
        def broken(sigmas):
            raise ValueError("injected fault")

        monkeypatch.setattr("oamcv.cli.classify_many", broken)
        with pytest.raises(ValueError, match="injected fault"):
            main(["sweep", "--charges", "0", "--eta-step", "0.5"])

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == EXIT_IO
