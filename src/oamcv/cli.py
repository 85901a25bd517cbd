"""Command-line front end: channel sweeps, death thresholds, tomography, beam images.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O error.
All outputs are deterministic for identical configuration and seed: sweep
rows come out sorted by (l, delta, eta) and JSON key order is fixed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

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

# Each JSON report has one text function, which gives json.dumps(report,
# indent=2) + "\n" byte for byte for the report's shape.  A field is written by
# its exact type: a float by repr (json's words for the non-finite ones), an int
# by repr, a bool as true/false, None as null and a str by
# encode_basestring_ascii.  Any other type (a numpy scalar, a bool for an int, a
# tuple for a list) raises TypeError rather than being written some other way.


def _type_error(value, kind: str) -> TypeError:
    return TypeError(f"{type(value).__name__} is not a report {kind}")


def _float_text(value) -> str:
    if type(value) is not float:
        raise _type_error(value, "float")
    text = repr(value)
    return _FLOAT_WORDS.get(text, text)


def _optional_float_text(value) -> str:
    return "null" if value is None else _float_text(value)


def _int_text(value) -> str:
    if type(value) is not int:
        raise _type_error(value, "int")
    return repr(value)


def _bool_text(value) -> str:
    if type(value) is not bool:
        raise _type_error(value, "bool")
    return "true" if value else "false"


def _str_text(value) -> str:
    if type(value) is not str:
        raise _type_error(value, "str")
    return json.encoder.encode_basestring_ascii(value)


def _list(value) -> list:
    if type(value) is not list:
        raise _type_error(value, "list")
    return value


def _layout(skeleton, depth: int) -> tuple:
    """The % template of a report part laid out as json.dumps(skeleton, indent=2), nested depth
    levels deep, and the type of each of its slots.

    Each leaf of skeleton is the type of its slot: float and int slots take those
    numbers, str slots their text, already written.
    """
    types = []
    # json writes each leaf it cannot encode, a type, as the None that default returns
    text = json.dumps(skeleton, indent=2, default=types.append)
    return text.replace("null", "%s").replace("\n", "\n" + "  " * depth), tuple(types)


def _report_text(entries: list, head: str = "") -> str:
    """The text of a report: its head field, if it has one, then its results list of entries.

    The brackets join the first and last entries, so that the entries are
    copied once, by the one join.
    """
    start = "{\n" + (f"  {head},\n" if head else "") + '  "results": '
    if not entries:
        return start + "[]\n}\n"
    entries[0] = start + "[\n    " + entries[0]
    entries[-1] += "\n  ]\n}\n"
    return ",\n    ".join(entries)


_THRESHOLDS_ENTRY = _layout(dict.fromkeys(
    ("l", "delta", "entanglement", "steering_AB", "steering_BA"), str), 2)[0]


def _thresholds_text(report: dict) -> str:
    """The text of a run_thresholds report, one template per entry."""
    return _report_text([_THRESHOLDS_ENTRY % (
        _int_text(entry["l"]), _float_text(entry["delta"]),
        _optional_float_text(entry["entanglement"]), _optional_float_text(entry["steering_AB"]),
        _optional_float_text(entry["steering_BA"])) for entry in _list(report["results"])])


class _Shape(NamedTuple):
    """A report part's template, its slots' types, and the getter of its (two or more) floats."""

    template: str
    types: tuple
    floats: operator.itemgetter


def _shape(skeleton, depth: int) -> _Shape:
    template, types = _layout(skeleton, depth)
    return _Shape(template, types,
                  operator.itemgetter(*(i for i, kind in enumerate(types) if kind is float)))


def _fill(shape: _Shape, fields: tuple) -> str:
    """The shape's template filled with fields, each of its slot's exact type (a str slot
    takes text already written).

    A float fills its slot itself, since its %s is its repr, unless some float
    is not finite (then neither is their sum): then each goes through _float_text.
    """
    if tuple(map(type, fields)) != shape.types:
        for kind, value in zip(shape.types, fields):
            if type(value) is not kind:
                raise _type_error(value, kind.__name__)
        raise TypeError(f"{len(fields)} report fields for {len(shape.types)} slots")
    if not math.isfinite(sum(shape.floats(fields))):
        fields = tuple(_float_text(x) if type(x) is float else x for x in fields)
    return shape.template % fields


_settings_of = operator.itemgetter(*SETTINGS)
# a criteria dict's slots; its flag and class are filled as text
_CRITERIA = {"nu": float, "entangled": str, "gAB": float, "gBA": float, "class": str}
_TRUE_BLOCK = _shape({"variances_db": dict.fromkeys(SETTINGS, float), "criteria": _CRITERIA}, 3)
_STDERR_BLOCK = _shape(dict.fromkeys(SETTINGS, float), 4)
# a tomo entry's shape by whether it has reconstructed criteria and a criteria_error
_TOMO_ENTRY = {(criteria, error): _shape({
    "l": int, "eta": float, "delta": float, "seed": int, "true": str,
    "reconstructed": {"variances_db": dict.fromkeys(SETTINGS, float), "stderr_db": str,
                      "criteria": _CRITERIA if criteria else str, "physical": str,
                      "entry_errors": [[float] * 4] * 4, "max_abs_entry_error": float,
                      **({"criteria_error": str} if error else {})}}, 2)
    for criteria in (True, False) for error in (True, False)}


def _criteria_fields(criteria: dict) -> tuple:
    return (criteria["nu"], _bool_text(criteria["entangled"]), criteria["gAB"], criteria["gBA"],
            _str_text(criteria["class"]))


def _true_text(true: dict) -> str:
    return _fill(_TRUE_BLOCK, (*_settings_of(true["variances_db"]),
                               *_criteria_fields(true["criteria"])))


def _stderr_text(stderr: dict) -> str:
    return _fill(_STDERR_BLOCK, _settings_of(stderr))


def _tomo_text(report: dict) -> str:
    """The text of a run_tomo report, one template per entry.

    A true or stderr_db block is written once per dict: run_tomo's entries
    share one stderr_db, and the charges of one source share their true blocks.
    """
    shared = {}  # the text of each block by its id; the report keeps every block alive

    def block_text(block: dict, text) -> str:
        if (key := id(block)) not in shared:
            shared[key] = text(block)
        return shared[key]

    entries = []
    for entry in _list(report["results"]):
        rec = entry["reconstructed"]
        rows = _list(rec["entry_errors"])
        if tuple(map(type, rows)) != (list,) * 4 or tuple(map(len, rows)) != (4,) * 4:
            raise TypeError("entry_errors must be a list of four lists of four")
        criteria, error = rec["criteria"], "criteria_error" in rec
        fields = (entry["l"], entry["eta"], entry["delta"], entry["seed"],
                  block_text(entry["true"], _true_text), *_settings_of(rec["variances_db"]),
                  block_text(rec["stderr_db"], _stderr_text),
                  *(("null",) if criteria is None else _criteria_fields(criteria)),
                  _bool_text(rec["physical"]), *rows[0], *rows[1], *rows[2], *rows[3],
                  rec["max_abs_entry_error"],
                  *((_str_text(rec["criteria_error"]),) if error else ()))
        entries.append(_fill(_TOMO_ENTRY[criteria is not None, error], fields))
    return _report_text(entries, f'"n_per_setting": {_int_text(report["n_per_setting"])}')


_STRIPES_ENTRY = _layout(dict.fromkeys(
    ("l", "stripes", "axis_sign", "beam_image", "tilted_image"), str), 2)[0]


def _stripes_text(report: dict) -> str:
    """The text of a run_modes report, stripes.json."""
    entries = [_STRIPES_ENTRY % (
        _int_text(entry["l"]), _int_text(entry["stripes"]), _int_text(entry["axis_sign"]),
        _str_text(entry["beam_image"]), _str_text(entry["tilted_image"]))
        for entry in _list(report["results"])]
    return _report_text(entries, f'"astigmatism": {_float_text(report["astigmatism"])}')


def _csv_text(rows: list) -> str:
    """The text of the sweep's CSV rows."""
    return "\n".join(rows) + "\n"


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
        spec = config.specs[l]
        # keyed by the spec's fields: their tuple hashes in C, the dataclass in Python
        if (values := by_source.get(key := (spec.v, spec.vp))) is None:
            values = by_source[key] = list(zip(deltas, block(spec, deltas)))
        for delta, value in values:
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
        _write_text(config.out, _csv_text(rows))
    return rows


def run_thresholds(config: SweepConfig) -> dict:
    """Sudden-death transmission thresholds per charge and noise level.

    Entries hold eta* for entanglement and for each steering direction,
    with None where no transition occurs inside (0, 1].  The closed forms are
    read once per distinct source and delta (_source_blocks).
    """
    results = [{"l": l, "delta": delta, "entanglement": entanglement,
                "steering_AB": steering_ab, "steering_BA": steering_ba}
               for l, delta, (entanglement, steering_ab, steering_ba) in _source_blocks(
                   config, lambda spec, deltas: map(_death_etas, itertools.repeat(spec), deltas))]
    report = {"results": results}
    if config.out is not None:
        _write_text(config.out, _thresholds_text(report))
    return report


def run_tomo(config: SweepConfig) -> dict:
    """Simulate-measure-reconstruct-classify at every (l, delta, eta) point.

    Only the draws run per point, each from a sub-seed that makes the point
    reproducible on its own; the rest of an (l, delta) block is one stacked pass
    on six numbers per state, with no matrix: the true criteria (source_criteria,
    which exits where a state's invariants overflow, as in the sweep) and states
    (_true_state), then each reconstruction's six numbers, their criteria,
    physicality or error text (_block_criteria) and entry errors.  Every entry
    holds the same stderr_db dict, and the charges of one source the same
    "true" dicts, so _tomo_text writes each of them once.  A point's seed
    reproduces its draws through sampled_variances of its channel matrix: the
    single settings bit for bit, the joint ones to that matrix's rounding of
    b + a - 2c.  simulate_measurements draws the same law, but other values.
    """
    results = []
    etas = eta_grid(config)
    grid = np.array(etas)
    stderr = dict.fromkeys(SETTINGS, _stderr_db(config.n_per_setting))

    def block(spec, deltas):
        # each delta's true variances, six numbers and entry "true" blocks, which every
        # charge of the source shares
        criteria = map(CriteriaArrays._make, zip(*source_criteria(spec, grid, deltas)))
        for true_criteria, truths, true_numbers in zip(criteria, *_true_state(spec, grid, deltas)):
            truths = truths.tolist()
            yield truths, true_numbers, [
                {"variances_db": dict(zip(SETTINGS, _to_db(variances))),
                 "criteria": true_criteria.report(i).to_json_dict()}
                for i, variances in enumerate(truths)]

    for l, delta, (truths, true_numbers, trues) in _source_blocks(config, block):
        # a point's sub-seed comes from its index in the whole run
        seeds = [int(np.random.SeedSequence([config.seed, len(results) + i])
                     .generate_state(1, np.uint64)[0]) for i in range(len(etas))]
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
                "true": trues[i],
                "reconstructed": {
                    "variances_db": dict(zip(SETTINGS, row)),
                    "stderr_db": stderr,
                    "criteria": None if error else rec_criteria.report(i).to_json_dict(),
                    "physical": physical[i],
                    "entry_errors": entry_errors[i].tolist(),
                    "max_abs_entry_error": max_errors[i],
                    **({"criteria_error": str(error)} if error else {}),
                },
            })
    report = {"n_per_setting": config.n_per_setting, "results": results}
    if config.out is not None:
        _write_text(config.out, _tomo_text(report))
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
        _write_text(written[-1], _stripes_text(report))
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


def _add_run_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--preset", choices=sorted(PRESETS),
                    help="parameter bundle for one of the decoherence scans")
    sp.add_argument("--v", type=float,
                    help=f"squeezed variance, given together with --vp (default {DEFAULT_V})")
    sp.add_argument("--vp", type=float,
                    help=f"anti-squeezed variance, given together with --v (default {DEFAULT_VP})")
    sp.add_argument("--delta", type=_parse_floats, dest="deltas", metavar="D[,D...]",
                    help="excess noise values in SNL units (default 0)")
    sp.add_argument("--charges", type=_parse_ints, metavar="L[,L...]",
                    help="topological charges (default 0,1,2)")
    sp.add_argument("--out", help="output file (CSV for sweep, JSON otherwise)")


def _add_grid_options(sp: argparse.ArgumentParser) -> None:
    sp = sp.add_argument_group("transmission grid")
    sp.add_argument("--eta-start", type=float, help="first transmission efficiency (default 0)")
    sp.add_argument("--eta-stop", type=float, help="last transmission efficiency (default 1)")
    sp.add_argument("--eta-step", type=float, help="transmission grid step (default 0.01)")


def _add_draw_options(sp: argparse.ArgumentParser) -> None:
    sp = sp.add_argument_group("tomography draws")
    sp.add_argument("--seed", type=int, help=f"master RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--n", type=int, dest="n_per_setting",
                    help=f"samples per tomography setting (default {DEFAULT_N_PER_SETTING})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamcv",
        description="OAM-multiplexed continuous-variable entanglement toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes the flags of the config fields its runner reads
    for name, text, groups in (
            ("sweep", "criteria vs transmission efficiency, CSV output", (_add_grid_options,)),
            ("thresholds", "sudden-death transmission thresholds, JSON output", ()),
            ("tomo", "tomography round trips over the grid, JSON output",
             (_add_grid_options, _add_draw_options))):
        sp = sub.add_parser(name, help=text)
        for add_options in (_add_run_options, *groups):
            add_options(sp)
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

    A source given by flags replaces the file's whole source (specs, v, vp, r);
    the charges then come from the flags, the file or the default.  The file
    may hold every config key, each checked, whichever ones the command reads.
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
        for key in ("specs", *_GLOBAL_SPEC_KEYS):
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
        run, text, noun = {"sweep": (run_sweep, _csv_text, "rows"),
                           "thresholds": (run_thresholds, _thresholds_text, "threshold entries"),
                           "tomo": (run_tomo, _tomo_text, "tomography entries")}[args.command]
        result = run(config)
        if config.out is None:
            print(text(result), end="")
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
