"""Command-line front end: channel sweeps, death thresholds, tomography, beam images.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O error.
All outputs are deterministic for identical configuration and seed: sweep
rows come out sorted by (l, delta, eta) and JSON key order is fixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import __version__
from .channels import apply_channel_grid
from .criteria import (classify, classify_many, entanglement_death_eta,
                       steering_death_eta)
from .errors import InputError, NumericalError, ToolkitError
from .gaussian import CovarianceMatrix, SqueezingSpec, checked_delta, make_tmss, validate
from .modes import (LGModeSpec, count_dark_stripes, lg_field, mode_image_filename,
                    tilted_lens_pattern, write_pgm)
from .tomography import (SETTINGS, ReconstructionWarning, expected_variances,
                         reconstruct_cm, simulate_measurements, variances_from_batches)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_V = 0.47
DEFAULT_VP = 4.11
DEFAULT_CHARGES = (0, 1, 2)
DEFAULT_SEED = 12345
DEFAULT_N_PER_SETTING = 100_000
DEFAULT_ASTIGMATISM = 2.0

SWEEP_HEADER = "l,eta,delta,nu,entangled,gAB,gBA,class"

# parameter bundles of the decoherence experiments: loss only, the three
# noise levels of the sudden-death scan, and the steering comparison
PRESETS = {
    "fig2c": {"deltas": (0.0,)},
    "fig3": {"deltas": (0.15, 0.5, 1.0)},
    "fig4": {"deltas": (0.0, 0.15)},
}

_CONFIG_KEYS = ("specs", "deltas", "eta_start", "eta_stop", "eta_step",
                "charges", "out", "seed", "n_per_setting")
# one source spec for every charge, as an alternative to per-charge specs
_GLOBAL_SPEC_KEYS = ("v", "vp", "r")


def _checked_charges(charges) -> tuple:
    """Charges as a tuple of ints: iterable, non-empty, integers but not bool, distinct."""
    try:
        charges = tuple(charges)
    except TypeError as exc:
        raise InputError(f"charges must be a list of integers, got {charges!r}") from exc
    if not charges:
        raise InputError("charges list must not be empty")
    for l in charges:
        if isinstance(l, bool) or not isinstance(l, (int, np.integer)):
            raise InputError(f"charges must be integers, got {l!r}")
    charges = tuple(int(l) for l in charges)
    if len(set(charges)) != len(charges):
        raise InputError(f"charges must be distinct, got {charges}")
    return charges


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep, threshold, or tomography run."""

    specs: Mapping[int, SqueezingSpec] = field(default_factory=dict)
    deltas: tuple = (0.0,)
    eta_start: float = 0.0
    eta_stop: float = 1.0
    eta_step: float = 0.01
    charges: tuple = DEFAULT_CHARGES
    out: Optional[str] = None
    seed: int = DEFAULT_SEED
    n_per_setting: int = DEFAULT_N_PER_SETTING

    def __post_init__(self):
        charges = _checked_charges(self.charges)
        specs = dict(self.specs) if self.specs else \
            {l: SqueezingSpec(DEFAULT_V, DEFAULT_VP) for l in charges}
        specs = {int(l): (s if isinstance(s, SqueezingSpec) else SqueezingSpec(*s))
                 for l, s in specs.items()}
        missing = set(charges) - set(specs)
        if missing:
            raise InputError(f"no squeezing spec for charges {sorted(missing)}")
        try:
            deltas = tuple(float(d) for d in self.deltas)
            start, stop = float(self.eta_start), float(self.eta_stop)
            step = float(self.eta_step)
            n = int(self.n_per_setting)
        except (TypeError, ValueError) as exc:
            raise InputError(f"non-numeric sweep parameter: {exc}") from exc
        if not deltas:
            raise InputError("deltas list must not be empty")
        deltas = tuple(checked_delta(d) for d in deltas)
        if not (0.0 <= start <= stop <= 1.0):
            raise InputError(f"eta grid [{start}, {stop}] must lie within [0, 1]")
        if not math.isfinite(step) or step <= 0.0:
            raise InputError(f"eta step must be positive, got {step!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise InputError(f"seed must be an integer, got {self.seed!r}")
        if n < 2:
            raise InputError(f"n_per_setting must be >= 2, got {self.n_per_setting!r}")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "eta_start", start)
        object.__setattr__(self, "eta_stop", stop)
        object.__setattr__(self, "eta_step", step)
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "out", None if self.out is None else str(self.out))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_per_setting", n)

    def to_json_dict(self) -> dict:
        return {
            "specs": {str(l): self.specs[l].to_json_dict() for l in sorted(self.specs)},
            "deltas": list(self.deltas),
            "eta_start": self.eta_start,
            "eta_stop": self.eta_stop,
            "eta_step": self.eta_step,
            "charges": list(self.charges),
            "out": self.out,
            "seed": self.seed,
            "n_per_setting": self.n_per_setting,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SweepConfig":
        """Config from JSON-style fields: per-charge specs, or one global v/vp or r."""
        unknown = set(d) - set(_CONFIG_KEYS) - set(_GLOBAL_SPEC_KEYS)
        if unknown:
            raise InputError(f"unknown config keys {sorted(unknown)}")
        kwargs = {k: d[k] for k in _CONFIG_KEYS if k in d}
        if "specs" in kwargs:
            if any(k in d for k in _GLOBAL_SPEC_KEYS):
                raise InputError("give either per-charge specs or a global v/vp (or r), not both")
            if not isinstance(kwargs["specs"], Mapping):
                raise InputError(f"specs must map charges to specs, got {kwargs['specs']!r}")
            kwargs["specs"] = {int(l): SqueezingSpec.from_json_dict(s)
                               for l, s in kwargs["specs"].items()}
            if "charges" not in kwargs:
                kwargs["charges"] = tuple(sorted(kwargs["specs"]))
        elif any(k in d for k in _GLOBAL_SPEC_KEYS):
            # resolved from the keys present: a null value goes to the spec, which rejects it
            if "r" in d:
                if "v" in d or "vp" in d:
                    raise InputError("give either r or the (v, vp) pair, not both")
                spec = SqueezingSpec.from_r(d["r"])
            elif "v" not in d or "vp" not in d:
                raise InputError("v and vp must be given together")
            else:
                spec = SqueezingSpec(d["v"], d["vp"])
            charges = _checked_charges(kwargs.get("charges", DEFAULT_CHARGES))
            kwargs["specs"] = {l: spec for l in charges}
        return cls(**kwargs)


def eta_grid(config: SweepConfig) -> list:
    """Transmission grid start, start+step, ... capped at stop."""
    count = int(math.floor((config.eta_stop - config.eta_start) / config.eta_step + 1e-9)) + 1
    return [round(config.eta_start + i * config.eta_step, 10) for i in range(count)]


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _render(result) -> str:
    """The output text of a result, for its file and for stdout: CSV rows or JSON."""
    if isinstance(result, list):
        return "\n".join(result) + "\n"
    return json.dumps(result, indent=2) + "\n"


def _truth_blocks(config: SweepConfig, etas: list):
    """(l, delta, channel outputs over etas, their classify_many) per block, sorted."""
    for l in sorted(config.charges):
        source = make_tmss(config.specs[l])
        for delta in sorted(config.deltas):
            sigmas = apply_channel_grid(source, etas, delta)
            yield l, delta, sigmas, classify_many(sigmas)


def run_sweep(config: SweepConfig) -> list:
    """CSV rows of the criteria sweep, one per (l, delta, eta), sorted.

    Each (l, delta) block is one stacked channel map and one classify_many
    pass over the eta grid.  Returns the rows (header included) and writes
    them to config.out when set.
    """
    rows = [SWEEP_HEADER]
    etas = eta_grid(config)
    eta_text = [_fmt(eta) for eta in etas]
    for l, delta, _, batched in _truth_blocks(config, etas):
        delta_text = _fmt(delta)
        for eta_s, nu, entangled, g_ab, g_ba, cls in zip(
                eta_text, batched.nu.tolist(), batched.entangled.tolist(),
                batched.g_ab.tolist(), batched.g_ba.tolist(),
                batched.steering_class.tolist()):
            # the same .9g text as _fmt, written inline on this hot loop
            rows.append(f"{l},{eta_s},{delta_text},{nu:.9g},"
                        f"{'true' if entangled else 'false'},{g_ab:.9g},{g_ba:.9g},{cls}")
    if config.out is not None:
        Path(config.out).write_text(_render(rows))
    return rows


def run_thresholds(config: SweepConfig) -> dict:
    """Sudden-death transmission thresholds per charge and noise level.

    Entries hold eta* for entanglement and for each steering direction,
    with None where no transition occurs inside (0, 1].
    """
    results = []
    for l in sorted(config.charges):
        spec = config.specs[l]
        for delta in sorted(config.deltas):
            results.append({
                "l": l,
                "delta": delta,
                "entanglement": entanglement_death_eta(spec, delta),
                "steering_AB": steering_death_eta(spec, delta, "AB"),
                "steering_BA": steering_death_eta(spec, delta, "BA"),
            })
    report = {"results": results}
    if config.out is not None:
        Path(config.out).write_text(_render(report))
    return report


def _criteria_or_error(cm) -> tuple:
    try:
        return classify(cm).to_json_dict(), None
    except ToolkitError as exc:
        return None, str(exc)


def run_tomo(config: SweepConfig) -> dict:
    """Simulate-measure-reconstruct-classify at every (l, delta, eta) point.

    The true states and their criteria of each (l, delta) block come from
    one stacked channel map and one classify_many pass, as in run_sweep.
    Each entry reports the analytic variances and criteria next to the
    reconstructed ones, the per-entry reconstruction errors, and the
    sub-seed that makes the point individually reproducible.
    """
    results = []
    point = 0
    etas = eta_grid(config)
    for l, delta, true_sigmas, true_criteria in _truth_blocks(config, etas):
        for i, eta in enumerate(etas):
            true_cm = CovarianceMatrix(true_sigmas[i])
            run_seed = int(np.random.SeedSequence([config.seed, point])
                           .generate_state(1, np.uint64)[0])
            point += 1
            batches = simulate_measurements(true_cm, config.n_per_setting, run_seed)
            measured = variances_from_batches(batches)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReconstructionWarning)
                rec_cm = reconstruct_cm(measured)
            truth = expected_variances(true_cm)
            rec_criteria, rec_error = _criteria_or_error(rec_cm)
            entry_errors = rec_cm.entries - true_cm.entries
            entry = {
                "l": l,
                "eta": eta,
                "delta": delta,
                "seed": run_seed,
                "true": {
                    "variances_db": {s: truth.db(s) for s in SETTINGS},
                    "criteria": true_criteria.report(i).to_json_dict(),
                },
                "reconstructed": {
                    "variances_db": {s: measured.db(s) for s in SETTINGS},
                    "stderr_db": {s: measured.stderr(s) for s in SETTINGS},
                    "criteria": rec_criteria,
                    "physical": validate(rec_cm).ok,
                    "entry_errors": entry_errors.tolist(),
                    "max_abs_entry_error": float(np.max(np.abs(entry_errors))),
                },
            }
            if rec_error is not None:
                entry["reconstructed"]["criteria_error"] = rec_error
            results.append(entry)
    report = {"n_per_setting": config.n_per_setting, "results": results}
    if config.out is not None:
        Path(config.out).write_text(_render(report))
    return report


def run_modes(charges, astigmatism: float = DEFAULT_ASTIGMATISM, out_dir=".",
              bit_depth: int = 16) -> dict:
    """Render beam and tilted-lens images per charge and verify stripe counts.

    Writes mode_l{l}_beam.pgm and mode_l{l}_tilted.pgm plus a stripes.json
    summary into out_dir.  A stripe count that does not equal |l| for these
    synthesized inputs indicates a numerical fault and raises.  Every charge
    is checked before the first file is written.
    """
    specs = [LGModeSpec(l) for l in _checked_charges(charges)]
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    results = []
    for spec in specs:
        field_grid = lg_field(spec)
        pattern = tilted_lens_pattern(field_grid, astigmatism)
        beam_file = out_path / mode_image_filename(spec.l, "beam")
        tilted_file = out_path / mode_image_filename(spec.l, "tilted")
        write_pgm(beam_file, field_grid.intensity(), bit_depth=bit_depth)
        write_pgm(tilted_file, pattern, bit_depth=bit_depth)
        stripes = count_dark_stripes(pattern)
        if stripes.indeterminate or stripes.count != abs(spec.l):
            raise NumericalError(
                f"stripe count {stripes.count} does not match |l| = {abs(spec.l)} "
                f"at astigmatism {astigmatism}")
        results.append({
            "l": spec.l,
            "stripes": stripes.count,
            "axis_sign": stripes.axis_sign,
            "beam_image": beam_file.name,
            "tilted_image": tilted_file.name,
        })
    report = {"astigmatism": float(astigmatism), "results": results}
    (out_path / "stripes.json").write_text(_render(report))
    return report


def _parse_list(kind, noun: str, text: str) -> tuple:
    """The comma-separated values of a flag, each converted by kind; empty parts are skipped."""
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")


_parse_floats = functools.partial(_parse_list, float, "numbers")
_parse_ints = functools.partial(_parse_list, int, "integers")


def _add_sweep_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--preset", choices=sorted(PRESETS),
                    help="parameter bundle for one of the decoherence scans")
    sp.add_argument("--v", type=float, help=f"squeezed variance (default {DEFAULT_V})")
    sp.add_argument("--vp", type=float, help=f"anti-squeezed variance (default {DEFAULT_VP})")
    sp.add_argument("--delta", type=_parse_floats, dest="deltas", metavar="D[,D...]",
                    help="excess noise values in SNL units (default 0)")
    sp.add_argument("--eta-start", type=float, help="first transmission efficiency (default 0)")
    sp.add_argument("--eta-stop", type=float, help="last transmission efficiency (default 1)")
    sp.add_argument("--eta-step", type=float, help="transmission grid step (default 0.01)")
    sp.add_argument("--charges", type=_parse_ints, metavar="L[,L...]",
                    help="topological charges (default 0,1,2)")
    sp.add_argument("--seed", type=int, help=f"master RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--n", type=int, dest="n_per_setting",
                    help=f"samples per tomography setting (default {DEFAULT_N_PER_SETTING})")
    sp.add_argument("--out", help="output file (CSV for sweep, JSON otherwise)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamcv",
        description="OAM-multiplexed continuous-variable entanglement toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("sweep", "criteria vs transmission efficiency, CSV output"),
                       ("thresholds", "sudden-death transmission thresholds, JSON output"),
                       ("tomo", "tomography round trips over the grid, JSON output")):
        _add_sweep_options(sub.add_parser(name, help=text))
    sp = sub.add_parser("modes", help="beam and tilted-lens images with stripe counts")
    sp.add_argument("--charges", type=_parse_ints, default=DEFAULT_CHARGES,
                    metavar="L[,L...]", help="topological charges (default 0,1,2)")
    sp.add_argument("--astigmatism", type=float, default=DEFAULT_ASTIGMATISM,
                    help=f"astigmatic phase strength (default {DEFAULT_ASTIGMATISM})")
    sp.add_argument("--depth", type=int, choices=(8, 16), default=16,
                    help="PGM bit depth (default 16)")
    sp.add_argument("--out", default=".", help="output directory (default current)")
    return parser


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    """Defaults, then preset, then config file, then explicit flags.

    The three layers are merged into one JSON-style dict that is parsed
    once; a source given by flags replaces the file's global v/vp/r as a
    whole.  Any malformed value is reported as an InputError.
    """
    merged = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")
        merged.update(loaded)
    # every flag is stored under its config key; specs and r have no flag
    flags = {key: value for key in (*_CONFIG_KEYS, *_GLOBAL_SPEC_KEYS)
             if (value := getattr(args, key, None)) is not None}
    if "v" in flags or "vp" in flags:
        for key in _GLOBAL_SPEC_KEYS:
            merged.pop(key, None)
    merged.update(flags)
    try:
        return SweepConfig.from_json_dict(merged)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed config value: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "modes":
            report = run_modes(args.charges, astigmatism=args.astigmatism,
                               out_dir=args.out, bit_depth=args.depth)
            for entry in report["results"]:
                print(f"l={entry['l']}: {entry['stripes']} dark stripes "
                      f"(axis {entry['axis_sign']:+d}) -> {entry['tilted_image']}")
            return EXIT_OK
        config = _config_from_args(args)
        # looked up per call: the runners are module globals a tracer may rebind
        run, noun = {"sweep": (run_sweep, "rows"),
                     "thresholds": (run_thresholds, "threshold entries"),
                     "tomo": (run_tomo, "tomography entries")}[args.command]
        result = run(config)
        if config.out is None:
            print(_render(result), end="")
        else:
            count = len(result) - 1 if isinstance(result, list) else len(result["results"])
            print(f"wrote {count} {noun} to {config.out}")
        return EXIT_OK
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
