"""Tests of the benchmark itself: run them with `python -m pytest bench`."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import oracles
import probes
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expected_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_smoke(workload):
    result = run.run_workload(workload, seed=1, seconds=0.05, trace=False, rounds=1)
    assert result["failed"] == 0 and result["correct"]
    # every op once untimed, at least once timed, and the command run
    assert result["attempted"] >= 2 * run.OPS_PER_PASS[workload] + 1
    assert run.END_TO_END_UNITS == expected_units("end_to_end")
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS) | set(run.PRINTED_ONLY_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_repeats_and_accounts_for_op_time(workload):
    first = run.run_workload(workload, seed=7, seconds=0.2, trace=True, import_probes=1)
    second = run.run_workload(workload, seed=7, seconds=0.2, trace=True, import_probes=1)
    assert first["correct"] and second["correct"]
    assert first["digest"] == second["digest"]
    metrics = first["metrics"]
    assert {name: run.layer_unit(name) for name in metrics} == expected_units("per_layer")
    for name, value in metrics.items():
        if name.endswith(".calls") or name.endswith("evals_per_solve"):
            assert second["metrics"][name] == value, name
    n_ops = sum(metrics[f"cli.run_{kind}.calls"] for kind in workloads.WORKLOADS[workload])
    assert n_ops == len([s for s in first["tracer"].spans if s[spans.NAME] == spans.OP])
    wrapped_us = sum(metrics[f"{name}.calls"] * metrics[f"{name}.self_us"]
                     for name in spans.TRACED_NAMES)
    total_us = wrapped_us + n_ops * metrics["trace.uncovered_us"]
    assert math.isclose(total_us, n_ops * metrics["trace.op_us"], rel_tol=1e-9)


def test_wrong_nu_counts_as_failed_op_and_run_goes_on(monkeypatch):
    cli = run.load_cli()
    classify = cli.classify

    def perturbed(cm):
        report = classify(cm)
        return dataclasses.replace(report, nu=report.nu + 1e-6)

    monkeypatch.setattr(cli, "classify", perturbed)
    result = run.run_workload("sweep", seed=1, seconds=0.05, trace=False, rounds=1)
    assert not result["correct"]
    # only the command-line run, a separate process, is left unpatched
    assert result["failed"] == result["attempted"] - 1
    assert result["metrics"]["units_per_s.best"] == 0.0
    assert result["metrics"]["units_per_s"] == 0.0


def program_output(op, tmp_path):
    cli = run.load_cli()
    workloads.prepare(cli, op, tmp_path)()
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def _edit_json(files, name, edit):
    data = json.loads(files[name])
    edit(data)
    return {**files, name: json.dumps(data).encode()}


TAMPERINGS = {
    "thresholds": lambda files: _edit_json(
        files, "thresholds.json",
        lambda d: d["results"][1].update(steering_BA=(d["results"][1]["steering_BA"] or 0.5) + 1e-5)),
    "tomo": lambda files: _edit_json(
        files, "tomo.json",
        lambda d: d["results"][0]["reconstructed"]["variances_db"].update(
            Xc=d["results"][0]["reconstructed"]["variances_db"]["Xc"] + 1.0)),
    "modes": lambda files: {name: data[:-1] if name.endswith("tilted.pgm") else data
                            for name, data in files.items()},
}


@pytest.mark.parametrize("kind", sorted(TAMPERINGS))
def test_oracles_reject_a_changed_output(kind, tmp_path):
    op = workloads.make_op(kind, workloads.Draws(3))
    files = program_output(op, tmp_path)
    assert workloads.check(op, files) == []
    assert workloads.check(op, TAMPERINGS[kind](files))


def test_threshold_closed_forms_accept_either_answer_only_at_the_bracket_ends():
    # pure loss: entanglement never dies inside the bracket, B->A steering does
    v, vp = 0.47, 4.11
    lines = oracles.death_lines(v, vp, 0.0)
    p, q = lines["steering_BA"]
    lossy = (v + vp - 2.0) / (2.0 * (1.0 - v) * (vp - 1.0))
    assert math.isclose(-p / q, lossy, rel_tol=1e-12)
    config = {"specs": {"0": {"v": v, "vp": vp}}, "deltas": [0.0]}
    entry = {"l": 0, "delta": 0.0, "entanglement": None, "steering_AB": None,
             "steering_BA": lossy + 1e-6}
    assert oracles.check_thresholds(config, json.dumps({"results": [entry]})) == []
    entry["entanglement"] = 0.5
    assert oracles.check_thresholds(config, json.dumps({"results": [entry]}))


def test_import_time_is_charged_to_the_first_layer_that_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |         numpy.core",
        "import time:       200 |        250 |       numpy",
        "import time:        30 |         30 |         oamcv.errors",
        "import time:        10 |         40 |       oamcv.gaussian",
        "import time:        20 |        310 |     oamcv.channels",
        "import time:       700 |        700 |       scipy.signal",
        "import time:         5 |        705 |     oamcv.modes",
        "import time:         1 |       1016 |   oamcv",
        "import time:         4 |       1020 | oamcv.cli",
    ])
    assert probes.attribute_imports(report) == pytest.approx({
        "numpy": 250e-6, "other": 31e-6, "gaussian": 10e-6, "channels": 20e-6,
        "modes": 705e-6, "cli": 4e-6})


def test_exits_nonzero_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
