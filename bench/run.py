"""Benchmark of the oamcv commands on three closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is one process with one caller: the next op starts when the
previous one has returned.  An op calls one of the cli module's ``run_*``
entry points on a config generated from --seed (see workloads.py), and
every output is checked against the independent oracles in oracles.py.
BLAS/OpenMP thread pools are capped at the CPUs the process may use.

--trace 0 measures what a user sees: set-up (fresh interpreter to
``import oamcv.cli``), one full ``python -m oamcv.cli`` command, the
latency of in-process ops, work units per second and peak memory.  Its
ops are a fixed, seed-determined set, each timed over and over through the
run; the gated rate counts each op at its fastest repeat.
--trace 1 runs a fixed, seed-determined op list twice, untraced and then
with every public function of the six layers wrapped (spans.py), and
reports per-layer calls, self times, counters and import times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An op that raises or whose output
fails its oracle counts as failed; the run goes on.  The exit code is 2,
with nothing printed on standard output, when the program's sources are
not found next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import probes
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# set-up time is the median over this many fresh interpreters; the median
# also drops the one slow run that compiles the program's bytecode in a
# fresh checkout.  The command time, printed but not gated, is one run of
# each kind of command, so that most of a run's wall time goes to the
# timed ops.
PROBE_ROUNDS = 3
IMPORT_PROBES = 3
# distinct ops of an end-to-end run, each timed over and over; a multiple
# of the source strata (workloads.STRATA), and one pass takes about a
# second on a 2-CPU machine
OPS_PER_PASS = {"sweep": 16, "thresholds": 40, "tomo_modes": 16}
# traced runs use a fixed number of ops per second of --seconds, so that
# for one seed every call count repeats exactly; each rate fills about
# half of --seconds per pass on a 2-CPU machine
TRACE_OPS_PER_SECOND = {"sweep": 12, "thresholds": 25, "tomo_modes": 7}
MAX_REPORTED_ERRORS = 5

# units_per_s.best is the work of one pass over the run's ops divided by
# the sum of each op's fastest time.  On a shared 2-CPU host whose speed
# switches between a fast and a ~1.5x slower level every few to tens of
# seconds, the plain rate over the timed phase (units_per_s) moved by a
# sixth to a quarter of its median between runs of the same code, because
# it reports how much of a run fell in slow spells; the fastest of 15-30
# repeats of each op, spread over half a minute or more, moved by about a
# twentieth.
END_TO_END_UNITS = {"setup_s": "s", "units_per_s.best": "1/s", "peak_rss_mb": "MB"}
# printed beside them but left out of the result line, because they follow
# the host's speed level: the rate and latency percentiles over all timed
# repeats, and one command run, which is mostly interpreter start and
# imports, as setup_s is
PRINTED_ONLY_UNITS = {"units_per_s": "1/s", "cli_s": "s", "op_ms.p50": "ms",
                      "op_ms.p90": "ms"}
UNIT_NAMES = {"sweep": "grid points", "thresholds": "threshold solves",
              "tomo_modes": "command calls"}


class Ledger:
    """Attempted and failed ops, plus a digest of every output in order."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def record(self, label: str, errors: list, files: dict) -> None:
        self.attempted += 1
        self.digest.update(_digest(files).encode())
        if errors:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                shown = "; ".join(errors[:3]) + (" ..." if len(errors) > 3 else "")
                print(f"{self.workload} {label} failed: {shown}", file=sys.stderr)


def outputs(out_dir: Path) -> dict:
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.is_dir() else {}
    shutil.rmtree(out_dir, ignore_errors=True)
    return files


def oracle_errors(op, files: dict) -> list:
    try:
        return workloads.check(op, files)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_op(cli, op, out_dir: Path, call=None) -> tuple:
    """(seconds inside the run_* call, output files, oracle errors) of one op."""
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        entry = workloads.prepare(cli, op, out_dir)
        start = time.perf_counter()
        entry() if call is None else call(entry)
    except Exception as exc:  # a failed op is counted, and the run goes on
        seconds = time.perf_counter() - start
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds, {}, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    files = outputs(out_dir)
    return seconds, files, oracle_errors(op, files)


def cli_probe(op, env: dict, work: Path) -> tuple:
    """(wall seconds, output files, oracle errors) of one full command."""
    out_dir = work / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ["-m", "oamcv.cli", *workloads.command_line(op, work / "config.json", out_dir)]
    seconds, proc = probes.timed_run(args, env, work)
    files = outputs(out_dir)
    if proc.returncode != 0:
        return seconds, files, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return seconds, files, oracle_errors(op, files)


def measure_end_to_end(workload, seed, seconds, ledger, work, env,
                       rounds=PROBE_ROUNDS) -> dict:
    """End-to-end metrics of one workload.

    The run's ops are OPS_PER_PASS[workload] seed-generated ops.  Each is
    run once untimed, as warm-up and to check its output with the oracles;
    then the timed phase runs them over and over in the same order, and
    every repeat must give the same output bytes as the checked first run.
    The timed phase is cut into `rounds` slices with one set-up run, and
    the command runs in turn, before each.  This spreads the set-up samples
    over the whole run rather than over one stretch of the machine's varying
    speed, and lengthens the stretch over which each op is repeated.
    """
    cli = load_cli()
    ops = list(islice(workloads.op_stream(workload, seed), OPS_PER_PASS[workload]))
    expected = []
    for i, op in enumerate(ops):
        _, files, errors = run_op(cli, op, work / "op")
        ledger.record(f"op {i}", errors, files)
        expected.append(None if errors else _digest(files))

    representatives = workloads.representative_ops(workload, seed)
    command_s = 0.0
    setup, latencies = [], []
    fastest = [float("inf")] * len(ops)
    failed = set(i for i, digest in enumerate(expected) if digest is None)

    def timed_op():
        i = len(latencies) % len(ops)
        elapsed, files, errors = run_op(cli, ops[i], work / "op")
        if not errors and _digest(files) != expected[i]:
            errors = ["output differs from the first run of the same op"]
        ledger.record(f"op {i}, repeat {len(latencies) // len(ops) + 1}", errors, files)
        latencies.append(elapsed)
        fastest[i] = min(fastest[i], elapsed)
        if errors:
            failed.add(i)

    for r in range(rounds):
        setup.append(probes.setup_seconds(env, ROOT))
        for op in representatives[r::rounds]:
            wall, files, errors = cli_probe(op, env, work)
            ledger.record(f"{op.kind} command run", errors, files)
            command_s += wall
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / rounds:
            timed_op()
    while len(latencies) < len(ops) or len(latencies) % len(ops):
        timed_op()

    passes = len(latencies) // len(ops)
    good_units = sum(op.units for i, op in enumerate(ops) if i not in failed)
    print(f"{workload}: {len(ops)} ops timed {passes} times each, {good_units} "
          f"{UNIT_NAMES[workload]} per pass, {len(setup)} set-up runs",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "units_per_s.best": good_units / sum(fastest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units_per_s": passes * good_units / sum(latencies),
        "cli_s": command_s,
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def measure_layers(workload, seed, seconds, ledger, work, env,
                   import_probes=IMPORT_PROBES) -> tuple:
    """Per-layer metrics and the tracer that recorded them."""
    imports = [probes.import_seconds(env, ROOT) for _ in range(import_probes)]
    cli = load_cli()
    count = max(2, round(seconds * TRACE_OPS_PER_SECOND[workload]))
    ops = list(islice(workloads.op_stream(workload, seed), count))
    _, files, errors = run_op(cli, ops[0], work / "op")
    ledger.record("warm-up op", errors, files)

    digests, plain_busy, plain_units = [], 0.0, 0
    for i, op in enumerate(ops):
        elapsed, files, errors = run_op(cli, op, work / "op")
        ledger.record(f"op {i}", errors, files)
        digests.append(_digest(files))
        plain_busy += elapsed
        plain_units += 0 if errors else op.units

    tracer = spans.Tracer()
    traced_busy, traced_units, written = 0.0, 0, 0
    tracer.install()
    try:
        for i, op in enumerate(ops):
            elapsed, files, errors = run_op(cli, op, work / "op",
                                            call=lambda entry, i=i: tracer.run_op(i, entry))
            if _digest(files) != digests[i]:
                errors = errors + ["traced output differs from the untraced run"]
            ledger.record(f"traced op {i}", errors, files)
            traced_busy += elapsed
            traced_units += 0 if errors else op.units
            written += sum(len(data) for data in files.values())
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload}.csv")

    print(f"{workload}: {len(ops)} ops, untraced then traced", file=sys.stderr)
    calls, self_ns = tracer.self_times()
    metrics = {}
    for name in spans.TRACED_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_us"] = self_ns[name] / calls[name] / 1e3 if calls[name] else 0.0
    counts = tracer.counts
    solves = sum(calls[name] for name in spans.SOLVERS)
    simulate_s = self_ns["tomography.simulate_measurements"] / 1e9
    pattern_s = self_ns["modes.tilted_lens_pattern"] / 1e9
    op_ns = sum(s[spans.END] - s[spans.START] for s in tracer.spans if s[spans.NAME] == spans.OP)
    metrics.update({
        "criteria.threshold.evals_per_solve": _ratio(tracer.solver_evals(), solves),
        "criteria.ppt.max_route_gap": tracer.max_route_gap,
        "tomography.samples_per_s": _ratio(counts["samples"], simulate_s),
        "tomography.unphysical_ratio": _ratio(counts["unphysical"], counts["reconstructions"]),
        "modes.pixels_per_s": _ratio(counts["pixels"], pattern_s),
        "modes.stripe_ok_ratio": _ratio(counts["stripe_ok"], counts["stripe_charges"]),
        "cli.bytes_written": written / len(ops),
    })
    for owner in (*probes.LAYERS, "numpy"):
        metrics[f"{owner}.import_s"] = statistics.median(run.get(owner, 0.0) for run in imports)
    metrics["import.other_s"] = statistics.median(run.get("other", 0.0) for run in imports)
    metrics.update({
        "trace.op_us": op_ns / len(ops) / 1e3,
        "trace.uncovered_us": self_ns[spans.OP] / len(ops) / 1e3,
        "trace.overhead": _ratio(_ratio(traced_units, traced_busy),
                                 _ratio(plain_units, plain_busy)),
    })
    return metrics, tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oamcv.cli
    return oamcv.cli


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **probe_options) -> dict:
    """Measure one workload in this process; returns the result and its details."""
    ledger = Ledger(workload)
    work = OUT_DIR / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = probes.program_env(SRC)
    try:
        if trace:
            metrics, tracer = measure_layers(workload, seed, seconds, ledger, work, env,
                                             **probe_options)
        else:
            metrics, tracer = measure_end_to_end(workload, seed, seconds, ledger, work, env,
                                                 **probe_options), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics,
            "digest": ledger.digest.hexdigest(), "tracer": tracer}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    for suffix, unit in ((".calls", "count"), ("_per_solve", "count"),
                         ("_us", "us"), ("per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
                         ("overhead", "ratio"), ("route_gap", "snu"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name!r}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a process of its own, then one table of what they printed."""
    table, results = {}, {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        results[workload] = json.loads(last)
        for line in lines:
            _, name, _, value, unit = line.split()[:5]
            table.setdefault((name, unit), {})[workload] = value
    print(f"{'metric':<44}{'unit':>8}" + "".join(f"{w:>14}" for w in results))
    for (name, unit), values in table.items():
        print(f"{name:<44}{unit:>8}" + "".join(f"{values.get(w, '-'):>14}" for w in results))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oamcv" / "cli.py").is_file():
        print(f"program sources not found: {SRC / 'oamcv'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update({var: threads for var in THREAD_VARS})
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {name: layer_unit(name) for name in result["metrics"]} if args.trace \
        else END_TO_END_UNITS
    for name, value in result["metrics"].items():
        unit = units.get(name) or PRINTED_ONLY_UNITS[name]
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
