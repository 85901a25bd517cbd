"""Generated inputs of the three benchmark workloads and how to run one op.

An op is one command call on a freshly generated config, of one of the
four kinds of command (sweep, thresholds, tomo, modes).  The config is a
plain JSON-able dict, drawn from a seeded stream, and it is all the
program sees: in-process it becomes the argument of the cli module's
``run_*`` entry point, and for the command-line probe it is written to a
``--config`` file (or, for ``modes``, turned into flags).

Why these three (the reasons are also recorded in BENCHMARK.json):

- sweep: apply_channel -> classify per grid point is ~95% of the time, and
  the threshold solvers, tomography and modes never run.
- thresholds: the bisection solvers do nearly all the work, and
  ppt_nu/classify never run.  Folded into sweep, the solves would be under
  5% of it, so a solver change would not show.
- tomo_modes: tomo and modes calls in turn, the only workload touching the
  tomography and modes layers and PGM output.  In tomo calls random
  sampling is ~83% of the time, and validate and classify run on
  reconstructed, sometimes unphysical matrices.  The two share a workload
  so that each run can be long enough to be steady on a shared host.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import oracles

# the kinds of command each workload's ops cycle through
WORKLOADS = {"sweep": ("sweep",), "thresholds": ("thresholds",),
             "tomo_modes": ("tomo", "modes")}

# delta sets of the program's presets, copied so that the benchmark does
# not read its inputs out of the program under test
PRESET_DELTAS = {"fig2c": (0.0,), "fig3": (0.15, 0.5, 1.0), "fig4": (0.0, 0.15)}
THRESHOLD_DELTAS = (0.0, 0.15, 0.5, 1.0)
TOMO_N = 100_000
TOMO_POINTS = 3
MAX_CHARGE = 5
STRATA = 8


@dataclass(frozen=True)
class Op:
    """One command call: its kind, generated config, and work units."""

    kind: str
    config: dict
    units: int


class Draws(random.Random):
    """A seeded random stream that also draws stratified sources.

    A source is v = m e^{-2r}, vp = m e^{2r} with r in [0, 2] and impurity m
    in [1, 4], the same family as the test suite's source strategy: it
    includes unsqueezed (v >= 1) and weakly squeezed sources, so the
    threshold solvers' early exits occur at their natural share.  Sources
    come in blocks of STRATA with one r in each of STRATA equal slices of its
    range and one m in each slice of its own, paired at random, so every
    stretch of ops has nearly the same mix of cheap and costly sources and
    the time of a run does not hinge on the luck of its seed's draw.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self._block = []

    def source(self) -> dict:
        if not self._block:
            self._block = list(zip(self.sample(range(STRATA), STRATA),
                                   self.sample(range(STRATA), STRATA)))
        i, j = self._block.pop()
        r = 2.0 * (i + self.random()) / STRATA
        m = 1.0 + 3.0 * (j + self.random()) / STRATA
        return {"v": m * math.exp(-2.0 * r), "vp": m * math.exp(2.0 * r)}


def _single_charge(rng: Draws, **fields) -> dict:
    l = rng.randint(-MAX_CHARGE, MAX_CHARGE)
    return {"specs": {str(l): rng.source()}, "charges": [l], **fields}


def make_op(kind: str, rng: Draws, representative: bool = False) -> Op:
    """Draw one op.  A representative op is one the command-line probe runs.

    It has a fixed size on every seed (the largest sweep preset, three
    charges for modes) so that its time does not depend on the draw.
    """
    if kind == "sweep":
        preset = "fig3" if representative else rng.choice(sorted(PRESET_DELTAS))
        deltas = list(PRESET_DELTAS[preset])
        config = _single_charge(rng, deltas=deltas, eta_start=0.0, eta_stop=1.0, eta_step=0.01)
        return Op(kind, config, 101 * len(deltas))
    if kind == "thresholds":
        config = _single_charge(rng, deltas=list(THRESHOLD_DELTAS))
        return Op(kind, config, 3 * len(THRESHOLD_DELTAS))
    if kind == "tomo":
        start = round(rng.uniform(0.1, 0.55), 2)
        # stop sits half a step past the last point so the grid size never
        # hinges on rounding
        config = _single_charge(rng, deltas=[rng.choice(THRESHOLD_DELTAS)],
                                eta_start=start, eta_stop=round(start + 0.45, 10),
                                eta_step=0.2, seed=rng.randrange(2 ** 31),
                                n_per_setting=TOMO_N)
        return Op(kind, config, TOMO_POINTS)
    if kind == "modes":
        count = 3 if representative else 1
        charges = rng.sample(range(-MAX_CHARGE, MAX_CHARGE + 1), count)
        config = {"charges": charges, "astigmatism": round(rng.uniform(1.0, 3.0), 3)}
        return Op(kind, config, count)
    raise ValueError(f"unknown kind of op {kind!r}")


def op_stream(workload: str, seed: int):
    """The endless, seed-determined sequence of ops of one workload.

    A workload of several kinds takes them in turn and counts one work unit
    per command call, since their own units differ.
    """
    rng = Draws(f"{workload}:{seed}:ops")
    kinds = WORKLOADS[workload]
    while True:
        for kind in kinds:
            op = make_op(kind, rng)
            yield op if len(kinds) == 1 else replace(op, units=1)


def representative_ops(workload: str, seed: int) -> list:
    """One representative op of each kind of the workload."""
    return [make_op(kind, Draws(f"{workload}:{seed}:cli:{kind}"), representative=True)
            for kind in WORKLOADS[workload]]


OUTPUT_FILE = {"sweep": "sweep.csv", "thresholds": "thresholds.json", "tomo": "tomo.json"}


def prepare(cli, op: Op, out_dir: Path):
    """A zero-argument call of the op's run_* entry point, writing into out_dir.

    Config parsing happens here, outside the timed call.
    """
    if op.kind == "modes":
        charges, astigmatism = op.config["charges"], op.config["astigmatism"]
        return lambda: cli.run_modes(charges, astigmatism=astigmatism, out_dir=out_dir)
    config = cli.SweepConfig.from_json_dict(
        {**op.config, "out": str(out_dir / OUTPUT_FILE[op.kind])})
    entry = f"run_{op.kind}"
    # looked up at call time, so that a traced entry point is the one called
    return lambda: getattr(cli, entry)(config)


def command_line(op: Op, config_file: Path, out_dir: Path) -> list:
    """Arguments of `python -m oamcv.cli` for the op; writes its config file."""
    if op.kind == "modes":
        charges = ",".join(str(l) for l in op.config["charges"])
        return ["modes", f"--charges={charges}", "--astigmatism", repr(op.config["astigmatism"]),
                "--out", str(out_dir)]
    config_file.write_text(json.dumps(op.config))
    return [op.kind, "--config", str(config_file),
            "--out", str(out_dir / OUTPUT_FILE[op.kind])]


def check(op: Op, files: dict) -> list:
    """Oracle errors of an op's output files (name -> bytes)."""
    if op.kind == "modes":
        return oracles.check_modes(op.config, files)
    name = OUTPUT_FILE[op.kind]
    if name not in files:
        return [f"missing output {name}"]
    checker = {"sweep": oracles.check_sweep, "thresholds": oracles.check_thresholds,
               "tomo": oracles.check_tomo}[op.kind]
    return checker(op.config, files[name].decode("utf-8"))
