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
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import __version__
from .criteria import CriteriaArrays, _block_criteria, _death_etas, source_criteria
from .errors import InputError, NumericalError
from .gaussian import (SqueezingSpec, as_spec, charges_from_keys, checked_charges, checked_delta,
                       checked_eta, real_or_nan)
from .modes import (LGModeSpec, _write_file, checked_astigmatism, checked_bit_depth,
                    count_dark_stripes, lg_images, mode_image_filename, write_pgm)
from .tomography import (SETTINGS, _filled, _sampled_db, _six_numbers, _stderr_db, _to_db,
                         _true_state, checked_sampling)

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
# the most transmission points one sweep, threshold or tomography grid may hold
MAX_ETA_POINTS = 100_001

SWEEP_HEADER = "l,eta,delta,nu,entangled,gAB,gBA,class"
# the sweep's text of an entangled flag
_BOOL_TEXT = {True: "true", False: "false"}

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
    """The charges of a command: checked_charges, and at least one."""
    charges = checked_charges(charges)
    if not charges:
        raise InputError("charges list must not be empty")
    return charges


def _checked_out(out) -> Optional[str]:
    """The output file as text: None, or a non-empty str or os.PathLike naming one."""
    path = os.fspath(out) if isinstance(out, (str, os.PathLike)) else None
    if out is None or (isinstance(path, str) and path):
        return path
    raise InputError(f"out must be a non-empty path, got {out!r}")


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
        if not isinstance(self.specs, Mapping):
            raise InputError(f"specs must map charges to specs, got {self.specs!r}")
        specs = self.specs or {l: (DEFAULT_V, DEFAULT_VP) for l in charges}
        specs = dict(zip(checked_charges(specs), map(as_spec, specs.values())))
        if missing := set(charges) - set(specs):
            raise InputError(f"no squeezing spec for charges {sorted(missing)}")
        if not isinstance(self.deltas, (list, tuple)) or not self.deltas:
            raise InputError(f"deltas must be a non-empty list of numbers, got {self.deltas!r}")
        deltas = tuple(checked_delta(d) for d in self.deltas)
        if len(set(deltas)) != len(deltas):
            raise InputError(f"deltas must be distinct, got {deltas}")
        start, stop = checked_eta(self.eta_start), checked_eta(self.eta_stop)
        if start > stop:
            raise InputError(f"eta grid start {start} must not exceed its stop {stop}")
        if not math.isfinite(step := real_or_nan(self.eta_step)) or step <= 0.0:
            raise InputError(f"eta step must be positive, got {self.eta_step!r}")
        # compared as a float before any int is made of it: a subnormal step gives inf
        if _eta_steps(start, stop, step) >= MAX_ETA_POINTS:
            raise InputError(f"eta step {step!r} from {start!r} to {stop!r} gives more than "
                             f"{MAX_ETA_POINTS} grid points")
        n, seed = checked_sampling(self.n_per_setting, self.seed)
        checked = dict(specs=specs, deltas=deltas, eta_start=start, eta_stop=stop, eta_step=step,
                       charges=charges, out=_checked_out(self.out),
                       seed=seed, n_per_setting=n)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        # the fields in their order, with lists for tuples and text charge keys
        return {**asdict(self), "deltas": list(self.deltas), "charges": list(self.charges),
                "specs": {str(l): self.specs[l].to_json_dict() for l in sorted(self.specs)}}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SweepConfig":
        """Config from JSON-style fields: per-charge specs, or one global v/vp or r."""
        if unknown := set(d) - set(_CONFIG_KEYS) - set(_GLOBAL_SPEC_KEYS):
            raise InputError(f"unknown config keys {sorted(unknown)}")
        kwargs = {k: d[k] for k in _CONFIG_KEYS if k in d}
        # the global keys present are one spec's JSON: a null value goes to the spec
        if shorthand := {k: d[k] for k in _GLOBAL_SPEC_KEYS if k in d}:
            if "specs" in kwargs:
                raise InputError("give either per-charge specs or a global v/vp (or r), not both")
            spec = SqueezingSpec.from_json_dict(shorthand)
            charges = _checked_charges(kwargs.get("charges", DEFAULT_CHARGES))
            kwargs["specs"] = {l: spec for l in charges}
        elif isinstance(specs := kwargs.get("specs"), Mapping):
            kwargs["specs"] = dict(zip(charges_from_keys(specs),
                                       map(SqueezingSpec.from_json_dict, specs.values())))
            kwargs.setdefault("charges", tuple(sorted(kwargs["specs"])))
        return cls(**kwargs)


def _eta_steps(start: float, stop: float, step: float) -> float:
    """(stop - start)/step plus a 1e-9 rounding allowance; the grid holds its floor + 1 points."""
    return (stop - start) / step + 1e-9


# half an ulp of x * 1e10 for x <= 1 (below 2^34): the most its rounding moves it
_TIE_BOUND = 2.0 ** -20


def eta_grid(config: SweepConfig) -> list:
    """Transmission grid start, start+step, ... capped at stop.

    Each point is min(round(start + i*step, 10), stop), bit for bit, computed
    on arrays: start + i*step rounds as the scalar sum does, and rint(x*1e10)/1e10
    is round(x, 10) wherever x*1e10 lies farther than _TIE_BOUND from a
    half-integer, since then its rounding cannot have crossed one.  The
    points within it (near ties) take Python's round.  The config owns the
    check of the grid: every point lies in [start, stop], within [0, 1], so
    no point is checked again.  The rounding allowance of _eta_steps may admit
    a last point just past stop; it is stop itself, as is any point rounded
    past stop.
    """
    start, stop, step = config.eta_start, config.eta_stop, config.eta_step
    count = math.floor(_eta_steps(start, stop, step)) + 1
    raw = start + np.arange(count) * step
    scaled = raw * 1e10
    grid = np.rint(scaled) / 1e10
    near = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= _TIE_BOUND)
    grid[near] = [round(x, 10) for x in raw[near].tolist()]
    return np.minimum(grid, stop).tolist()


# json's spelling of the floats whose repr is not JSON
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = repr(value)
    return _FLOAT_WORDS.get(text, text)


_str_text = json.encoder.encode_basestring_ascii
# the text of each scalar type a report holds, keyed by its exact type, as json
# writes it: an exact int or float's repr is int.__repr__ or float.__repr__
_SCALAR_TEXT = {str: _str_text, int: repr, float: _float_text,
                bool: lambda value: "true" if value else "false", type(None): lambda _: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the types a report holds.

    Those are dicts with str keys, lists, and the scalars of _SCALAR_TEXT,
    each matched by its exact type: anything else (a tuple, a numpy scalar,
    an int key) raises TypeError rather than being written some other way.
    indent is the newline and indentation that precede value's closing bracket.
    """
    if text := _SCALAR_TEXT.get(type(value)):
        return text(value)
    inner = indent + "  "
    if type(value) is dict:
        if bad := [key for key in value if type(key) is not str]:
            raise TypeError(f"JSON object keys must be str, got {bad[0]!r}")
        items = [f"{_str_text(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        brackets = "{}"
    elif type(value) is list:
        items = [_json_text(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not a JSON report value")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _render(result) -> str:
    """The output text of a result, for its file and for stdout.

    CSV rows, or the JSON of a report as json.dumps(report, indent=2) writes
    it (_json_text).  Either is ASCII.
    """
    if isinstance(result, list):
        return "\n".join(result) + "\n"
    return _json_text(result) + "\n"


def _write_text(path, text: str) -> None:
    """Write the ASCII text of an output file as its bytes, in one call."""
    _write_file(path, text.encode())


def _source_blocks(config: SweepConfig, block):
    """(l, delta, value) per charge and delta, both sorted.

    The channel does not see the charge, so charges with the same source
    share its blocks: block(spec, deltas) runs once per distinct source, on the
    sorted deltas, and gives one value per delta in their order.  The config
    has checked the specs, the deltas and the grid; no matrix is built here.
    """
    deltas = sorted(config.deltas)
    by_source = {}
    for l in sorted(config.charges):
        if (spec := config.specs[l]) not in by_source:
            by_source[spec] = list(zip(deltas, block(spec, deltas)))
        for delta, value in by_source[spec]:
            yield l, delta, value


def _sweep_rows(eta_text: list, deltas: list, criteria: CriteriaArrays) -> list:
    """The CSV rows of each delta of one source's (K, N) criteria, without their charge column.

    One list per delta, in order; each row is filled into one template that
    holds its delta's text.
    """
    blocks = []
    for delta, nu, entangled, g_ab, g_ba, cls in zip(
            deltas, *(column.tolist() for column in criteria)):
        template = f"%s,{delta:.9g},%.9g,%s,%.9g,%.9g,%s"
        words = [_BOOL_TEXT[flag] for flag in entangled]
        blocks.append([template % row for row in zip(eta_text, nu, words, g_ab, g_ba, cls)])
    return blocks


def run_sweep(config: SweepConfig) -> list:
    """CSV rows of the criteria sweep, one per (l, delta, eta), sorted.

    Each distinct source's spec is one source_criteria pass over the eta grid and
    every delta, with no matrix; each (source, delta) block's rows are formatted
    once, through one template, and then given each charge's prefix.
    Returns the rows (header included) and writes them to config.out when set.
    """
    etas = eta_grid(config)
    grid = np.array(etas)
    eta_text = [f"{eta:.9g}" for eta in etas]
    rows = [SWEEP_HEADER]
    for l, _, block in _source_blocks(config, lambda spec, deltas: _sweep_rows(
            eta_text, deltas, source_criteria(spec, grid, deltas))):
        prefix = f"{l},"
        rows += [prefix + row for row in block]
    if config.out is not None:
        _write_text(config.out, _render(rows))
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
            entanglement, steering_ab, steering_ba = _death_etas(spec, delta)
            results.append({"l": l, "delta": delta, "entanglement": entanglement,
                            "steering_AB": steering_ab, "steering_BA": steering_ba})
    report = {"results": results}
    if config.out is not None:
        _write_text(config.out, _render(report))
    return report


def run_tomo(config: SweepConfig) -> dict:
    """Simulate-measure-reconstruct-classify at every (l, delta, eta) point.

    Only the draws run per point, each from a sub-seed that makes the point
    reproducible on its own; the rest of an (l, delta) block is one stacked pass
    on six numbers per state, with no matrix: the true criteria (source_criteria,
    which exits where a state's invariants overflow, as in the sweep) and states
    (_true_state), then each reconstruction's six numbers, their criteria,
    physicality or error text (_block_criteria) and entry errors.
    """
    results = []
    etas = eta_grid(config)
    grid = np.array(etas)

    def block(spec, deltas):
        criteria = map(CriteriaArrays._make, zip(*source_criteria(spec, grid, deltas)))
        return zip(criteria, *_true_state(spec, grid, deltas))

    for l, delta, (true_criteria, truths, true_numbers) in _source_blocks(config, block):
        # a point's sub-seed comes from its index in the whole run
        seeds = [int(np.random.SeedSequence([config.seed, len(results) + i])
                     .generate_state(1, np.uint64)[0]) for i in range(len(etas))]
        truths = truths.tolist()
        measured = list(_sampled_db(truths, config.n_per_setting, seeds))
        numbers = _six_numbers(measured)
        rec_criteria, physical, rec_errors = _block_criteria(numbers)
        entry_errors = _filled(numbers - true_numbers)
        max_errors = np.abs(entry_errors).max(axis=(1, 2)).tolist()
        physical = physical.tolist()
        for i, (eta, seed, row) in enumerate(zip(etas, seeds, measured)):
            error = rec_errors.get(i)
            results.append({
                "l": l, "eta": eta, "delta": delta, "seed": seed,
                "true": {"variances_db": dict(zip(SETTINGS, _to_db(truths[i]))),
                         "criteria": true_criteria.report(i).to_json_dict()},
                "reconstructed": {
                    "variances_db": dict(zip(SETTINGS, row)),
                    "stderr_db": dict.fromkeys(SETTINGS, _stderr_db(config.n_per_setting)),
                    "criteria": None if error else rec_criteria.report(i).to_json_dict(),
                    "physical": physical[i],
                    "entry_errors": entry_errors[i].tolist(),
                    "max_abs_entry_error": max_errors[i],
                    **({"criteria_error": str(error)} if error else {}),
                },
            })
    report = {"n_per_setting": config.n_per_setting, "results": results}
    if config.out is not None:
        _write_text(config.out, _render(report))
    return report


def run_modes(charges, astigmatism: float = DEFAULT_ASTIGMATISM, out_dir=".",
              bit_depth: int = 16) -> dict:
    """Render beam and tilted-lens images per charge and verify stripe counts.

    Writes mode_l{l}_beam.pgm and mode_l{l}_tilted.pgm plus a stripes.json
    summary into out_dir.  A stripe count that does not equal |l| for these
    synthesized inputs indicates a numerical fault and raises.  Every charge,
    the astigmatism and the bit depth are checked before out_dir is created.
    A charge is written only once it is counted, and a call that fails
    removes the files it wrote before it raises.
    """
    specs = [LGModeSpec(l) for l in _checked_charges(charges)]
    astigmatism = checked_astigmatism(astigmatism)
    bit_depth = checked_bit_depth(bit_depth)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        results = [_render_charge(spec, astigmatism, out_path, bit_depth, written)
                   for spec in specs]
        report = {"astigmatism": astigmatism, "results": results}
        written.append(out_path / "stripes.json")
        _write_text(written[-1], _render(report))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return report


def _render_charge(spec: LGModeSpec, astigmatism: float, out_path: Path, bit_depth: int,
                   written: list) -> dict:
    """Count one charge's stripes, then write its images into out_path, each path added to
    written before it is opened, and return its stripes.json entry.

    A helper of its own so that each charge's images are freed before the
    next charge is rendered.
    """
    beam, pattern = lg_images(spec, astigmatism)
    stripes = count_dark_stripes(pattern)
    if stripes.indeterminate or stripes.count != abs(spec.l):
        raise NumericalError(
            f"stripe count {stripes.count} does not match |l| = {abs(spec.l)} "
            f"at astigmatism {astigmatism}")
    beam_file = out_path / mode_image_filename(spec.l, "beam")
    tilted_file = out_path / mode_image_filename(spec.l, "tilted")
    for path, image in ((beam_file, beam), (tilted_file, pattern)):
        written.append(path)
        write_pgm(path, image, bit_depth=bit_depth)
    return {
        "l": spec.l,
        "stripes": stripes.count,
        "axis_sign": stripes.axis_sign,
        "beam_image": beam_file.name,
        "tilted_image": tilted_file.name,
    }


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
    sp.add_argument("--v", type=float,
                    help=f"squeezed variance, given together with --vp (default {DEFAULT_V})")
    sp.add_argument("--vp", type=float,
                    help=f"anti-squeezed variance, given together with --v (default {DEFAULT_VP})")
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
    """Defaults, then preset, then config file, then explicit flags, in one dict parsed once.

    A source given by flags replaces the file's global v/vp/r as a whole.
    The parsers report every malformed value as an InputError.
    """
    merged = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 and huge ints are ValueErrors
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
    return SweepConfig.from_json_dict(merged)


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
