"""Independent output checks for the benchmark workloads.

Nothing here imports oamcv.  Every expected value comes from the closed
formulas of the two-mode squeezed source sent through the lossy/noisy
probe channel, so a wrong result in any layer of the program shows up as
a mismatch.  The checks compare within tolerances, never byte digests, so
that an exact closed form replacing an iterative solver (threshold drift
up to 1e-6) or a different but equivalent transform does not count as a
failure.  Each check returns a list of error strings; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import math

# decision margin of the documented criteria: nu < 1 - 1e-9 is entangled,
# g > 1e-9 is steering
TOL_DECISION = 1e-9
# lower end of the documented threshold bracket (0, 1]
ETA_LO = 1e-6
THRESHOLD_TOL = 2e-6
VALUE_TOL = 1e-9
# measured tomography variances may sit this many reported standard
# errors away from the truth before a point counts as wrong
STDERR_MULTIPLE = 6.0
PGM_SIDE = 512
PGM_HEADER = f"P5\n{PGM_SIDE} {PGM_SIDE}\n65535\n".encode("ascii")

SETTINGS = ("Xc", "Yc", "Xp", "Yp", "Xdiff", "Ysum")
_DB_PER_LN = 10.0 / math.log(10.0)


def family(v: float, vp: float, eta: float, delta: float) -> tuple:
    """Standard-form entries (a, b, c, d) of the distributed state.

    a = (v + vp)/2 is Alice's variance, b = eta a + (1 - eta)(1 + delta)
    Bob's, c = sqrt(eta)(vp - v)/2 the correlation, and d = ab - c^2
    = eta v vp + (1 - eta)(1 + delta) a, written without cancellation.
    """
    a = 0.5 * (v + vp)
    b = eta * a + (1.0 - eta) * (1.0 + delta)
    c = math.sqrt(eta) * 0.5 * (vp - v)
    d = eta * v * vp + (1.0 - eta) * (1.0 + delta) * a
    return a, b, c, d


def criteria(v: float, vp: float, eta: float, delta: float) -> tuple:
    """(nu, gAB, gBA) of the distributed state.

    nu = ((a + b) - sqrt((a - b)^2 + 4c^2))/2, evaluated in the conjugate
    form 2d/(a + b + sqrt(...)); g = max(0, ln(marginal/d)).
    """
    a, b, c, d = family(v, vp, eta, delta)
    nu = 2.0 * d / (a + b + math.sqrt((a - b) ** 2 + 4.0 * c * c))
    return nu, max(0.0, math.log(a / d)), max(0.0, math.log(b / d))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _half_ulp_9g(x: float) -> float:
    """Rounding error of a value printed with 9 significant digits."""
    if x == 0.0:
        return 0.0
    return 5.0 * 10.0 ** (math.floor(math.log10(abs(x))) - 9)


def eta_grid(start: float, stop: float, step: float) -> list:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def check_sweep(config: dict, text: str) -> list:
    """Sweep CSV against the closed formulas, row by row."""
    (label, spec), = config["specs"].items()
    v, vp = spec["v"], spec["vp"]
    lines = text.splitlines()
    if not lines or lines[0] != "l,eta,delta,nu,entangled,gAB,gBA,class":
        return [f"bad sweep header {lines[:1]!r}"]
    expected = [(delta, eta) for delta in sorted(config["deltas"])
                for eta in eta_grid(config["eta_start"], config["eta_stop"], config["eta_step"])]
    if len(lines) - 1 != len(expected):
        return [f"{len(lines) - 1} sweep rows, expected {len(expected)}"]
    errors = []
    for line, (delta, eta) in zip(lines[1:], expected):
        fields = line.split(",")
        if len(fields) != 8:
            errors.append(f"malformed row {line!r}")
            continue
        l, eta_s, delta_s, nu_s, ent_s, gab_s, gba_s, cls = fields
        if int(l) != int(label) or abs(float(eta_s) - eta) > 1e-9 or float(delta_s) != delta:
            errors.append(f"row key {line!r}, expected l={label} eta={eta} delta={delta}")
            continue
        nu, gab, gba = criteria(v, vp, eta, delta)
        for name, got, want in (("nu", nu_s, nu), ("gAB", gab_s, gab), ("gBA", gba_s, gba)):
            got = float(got)
            if abs(got - want) > VALUE_TOL * max(1.0, abs(want)) + _half_ulp_9g(want):
                errors.append(f"{name} {got!r} != {want!r} at eta={eta} delta={delta}")
        margin = VALUE_TOL + _half_ulp_9g(1.0)
        if abs(nu - 1.0) > TOL_DECISION + margin:
            want_ent = "true" if nu < 1.0 - TOL_DECISION else "false"
            if ent_s != want_ent:
                errors.append(f"entangled={ent_s} at eta={eta} delta={delta}, nu={nu!r}")
        if all(abs(g - TOL_DECISION) > margin for g in (gab, gba)):
            if cls != _steering_class(gab > TOL_DECISION, gba > TOL_DECISION):
                errors.append(f"class {cls} at eta={eta} delta={delta}, g=({gab!r}, {gba!r})")
    return errors


def _steering_class(ab: bool, ba: bool) -> str:
    return {(True, True): "two-way", (True, False): "one-way-AB",
            (False, True): "one-way-BA", (False, False): "none"}[(ab, ba)]


def death_lines(v: float, vp: float, delta: float) -> dict:
    """Each correlation survives at eta iff p + q*eta > 0 (a linear condition).

    entanglement: from 1 - Dt + det sigma = [(a-1)(b-1) - c^2][(a+1)(b+1) - c^2];
    steering: from a > d (A->B) and b > d (B->A).  With a = (v + vp)/2 and
    s = (1 - v)(vp - 1), the roots -p/q are the closed-form thresholds.
    """
    a = 0.5 * (v + vp)
    s = (1.0 - v) * (vp - 1.0)
    return {
        "entanglement": (-(a - 1.0) * delta, s + (a - 1.0) * delta),
        "steering_AB": (-a * delta, (1.0 + delta) * a - v * vp),
        "steering_BA": (-(1.0 + delta) * (a - 1.0), a - v * vp + (1.0 + delta) * (a - 1.0)),
    }


def check_thresholds(config: dict, text: str) -> list:
    """Threshold JSON against the closed-form roots, with matching Nones.

    A threshold is None when the correlation is already gone at eta = 1 or
    still alive at the bracket's lower end.  Where the root lies within
    THRESHOLD_TOL of either end, None and the root are both accepted.
    """
    (label, spec), = config["specs"].items()
    v, vp = spec["v"], spec["vp"]
    results = json.loads(text)["results"]
    deltas = sorted(config["deltas"])
    if [(r["l"], r["delta"]) for r in results] != [(int(label), d) for d in deltas]:
        return [f"threshold keys {[(r['l'], r['delta']) for r in results]}"]
    errors = []
    for entry, delta in zip(results, deltas):
        for name, (p, q) in death_lines(v, vp, delta).items():
            got = entry[name]
            root = -p / q if q != 0.0 else math.nan
            alive_at_1, alive_at_lo = p + q > 0.0, p + q * ETA_LO > 0.0
            want = root if alive_at_1 and not alive_at_lo else None
            near_end = min(abs(root - 1.0), abs(root - ETA_LO)) <= THRESHOLD_TOL
            if got is None:
                ok = want is None or near_end
            else:
                ok = abs(got - root) <= THRESHOLD_TOL and (want is not None or near_end)
            if not ok:
                errors.append(f"{name} at delta={delta}: got {got!r}, closed form {want!r}")
    return errors


def true_variances(v: float, vp: float, eta: float, delta: float) -> dict:
    """Variance of each homodyne setting in dB relative to its shot-noise level."""
    a, b, c, _ = family(v, vp, eta, delta)
    joint = 0.5 * (a + b - 2.0 * c)  # two-mode SNL is 2
    absolute = {"Xc": a, "Yc": a, "Xp": b, "Yp": b, "Xdiff": joint, "Ysum": joint}
    return {s: 10.0 * math.log10(x) for s, x in absolute.items()}


def check_tomo(config: dict, text: str) -> list:
    """Tomography JSON: exact truth columns, measured dB within the stated stderr."""
    (label, spec), = config["specs"].items()
    v, vp = spec["v"], spec["vp"]
    report = json.loads(text)
    n = config["n_per_setting"]
    if report["n_per_setting"] != n:
        return [f"n_per_setting {report['n_per_setting']} != {n}"]
    etas = eta_grid(config["eta_start"], config["eta_stop"], config["eta_step"])
    points = [(delta, eta) for delta in sorted(config["deltas"]) for eta in etas]
    results = report["results"]
    if len(results) != len(points):
        return [f"{len(results)} tomography entries, expected {len(points)}"]
    stderr = _DB_PER_LN * math.sqrt(2.0 / (n - 1))
    errors = []
    for entry, (delta, eta) in zip(results, points):
        where = f"eta={eta} delta={delta}"
        if entry["l"] != int(label) or entry["delta"] != delta or abs(entry["eta"] - eta) > 1e-9:
            errors.append(f"entry key ({entry['l']}, {entry['eta']}, {entry['delta']}), "
                          f"expected {where}")
            continue
        truth = true_variances(v, vp, eta, delta)
        nu = criteria(v, vp, eta, delta)[0]
        if not _close(entry["true"]["criteria"]["nu"], nu, VALUE_TOL):
            errors.append(f"true nu {entry['true']['criteria']['nu']!r} != {nu!r} at {where}")
        rec = entry["reconstructed"]
        for s in SETTINGS:
            if not _close(entry["true"]["variances_db"][s], truth[s], VALUE_TOL):
                errors.append(f"true {s} {entry['true']['variances_db'][s]!r} dB "
                              f"!= {truth[s]!r} at {where}")
            if not _close(rec["stderr_db"][s], stderr, VALUE_TOL):
                errors.append(f"stderr {s} {rec['stderr_db'][s]!r} != {stderr!r} at {where}")
            if abs(rec["variances_db"][s] - truth[s]) > STDERR_MULTIPLE * stderr:
                errors.append(f"measured {s} {rec['variances_db'][s]!r} dB is more than "
                              f"{STDERR_MULTIPLE:g} stderr from {truth[s]!r} at {where}")
    return errors


def check_modes(config: dict, files: dict) -> list:
    """Stripe counts equal |l|, the axis sign equals sign(l), PGMs are well formed."""
    report = json.loads(files["stripes.json"])
    charges = config["charges"]
    errors = []
    if report["astigmatism"] != config["astigmatism"]:
        errors.append(f"astigmatism {report['astigmatism']!r} != {config['astigmatism']!r}")
    if [r["l"] for r in report["results"]] != charges:
        return errors + [f"charges {[r['l'] for r in report['results']]} != {charges}"]
    for entry in report["results"]:
        l = entry["l"]
        if entry["stripes"] != abs(l):
            errors.append(f"l={l}: {entry['stripes']} stripes")
        if l != 0 and entry["axis_sign"] != (1 if l > 0 else -1):
            errors.append(f"l={l}: axis sign {entry['axis_sign']}")
        for image in (entry["beam_image"], entry["tilted_image"]):
            data = files.get(image, b"")
            if not data.startswith(PGM_HEADER) or len(data) != len(PGM_HEADER) + 2 * PGM_SIDE ** 2:
                errors.append(f"{image}: bad PGM header or size ({len(data)} bytes)")
    return errors
