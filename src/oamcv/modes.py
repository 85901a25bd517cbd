"""Laguerre-Gaussian transverse modes and the tilted-lens charge diagnostic.

Grid coordinates are measured in beam-waist units (the waist is 1 in grid
coordinates), with pixels centered symmetrically on the optical axis.
Fields are synthesized without trigonometry, from an integer power of
x + i y and a separable Gaussian.
The tilted lens is modeled as a pure astigmatic phase followed by a
far-field Fourier transform onto a k-space window sized from the beam,
evaluated as a real DFT folded about the mirror-symmetric axes; its output
pattern shows |l| dark stripes whose diagonal orientation gives the sign of
the topological charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError

MAX_ABS_CHARGE = 16
MIN_PIXELS_PER_WAIST = 8

# stripe detection: lobes must rise above the shoulder fraction of the peak,
# dark stripes dip below the dark fraction, and patterns need 2:1 contrast
SHOULDER_FRACTION = 0.25
DARK_FRACTION = 0.05
MIN_CONTRAST = 2.0


@dataclass(frozen=True)
class LGModeSpec:
    """Topological charge of a p = 0 Laguerre-Gaussian mode."""

    l: int

    def __post_init__(self):
        if isinstance(self.l, bool) or not isinstance(self.l, (int, np.integer)):
            raise InputError(f"topological charge must be an integer, got {self.l!r}")
        if abs(self.l) > MAX_ABS_CHARGE:
            raise ResolutionError(
                f"|l| = {abs(self.l)} exceeds the grid-resolution guard of {MAX_ABS_CHARGE}")
        object.__setattr__(self, "l", int(self.l))


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Complex transverse field sampled at pixel centers over [-extent, extent]."""

    width: int
    height: int
    extent: float
    values: np.ndarray

    def __post_init__(self):
        width, height = int(self.width), int(self.height)
        extent = float(self.extent)
        if width < 2 or height < 2 or not math.isfinite(extent) or extent <= 0.0:
            raise InputError(f"bad grid geometry ({self.width!r} x {self.height!r}, "
                             f"extent {self.extent!r})")
        values = np.array(self.values, dtype=complex)
        if values.shape != (height, width):
            raise InputError(f"values shape {values.shape} does not match "
                             f"(height, width) = ({height}, {width})")
        if not np.all(np.isfinite(values)):
            raise InputError("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "values", values)

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.width

    @property
    def dy(self) -> float:
        return 2.0 * self.extent / self.height

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.width) - (self.width - 1) / 2.0) * self.dx

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.height) - (self.height - 1) / 2.0) * self.dy

    @property
    def power(self) -> float:
        """Total power, sum of |amplitude|^2 times pixel area."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dx * self.dy)

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True, eq=False)
class IntensityGrid:
    """Far-field |amplitude|^2; extent is the k-space half-width (1/waist units)."""

    width: int
    height: int
    extent: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (int(self.height), int(self.width)):
            raise InputError(f"values shape {values.shape} does not match grid")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InputError("intensity values must be finite and nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "values", values)


def _check_resolution(width: int, height: int, extent: float) -> None:
    pixels_per_waist = min(width, height) / (2.0 * extent)
    if pixels_per_waist < MIN_PIXELS_PER_WAIST:
        raise ResolutionError(
            f"{pixels_per_waist:.2f} pixels per waist is below the minimum of "
            f"{MIN_PIXELS_PER_WAIST}; enlarge the grid or shrink the extent")


def lg_field(spec, width: int = 512, height: int = 512, extent: float = 6.0) -> FieldGrid:
    """Synthesize a unit-power p = 0 Laguerre-Gaussian field.

    With r in waist units, the amplitude is proportional to
    (sqrt(2) r)^{|l|} exp(-r^2) exp(i l phi) with the analytic normalization
    2/(pi |l|!), so the discrete power equals 1 up to quadrature error.
    extent is the grid half-width in waist units.  The field is built without trigonometry:
    r^{|l|} exp(i l phi) is the integer power (x + i sign(l) y)^{|l|}, and
    exp(-r^2) the outer product exp(-y^2) (x) exp(-x^2).
    """
    spec = spec if isinstance(spec, LGModeSpec) else LGModeSpec(spec)
    width, height = int(width), int(height)
    extent = float(extent)
    if width < 2 or height < 2 or not math.isfinite(extent) or extent <= 0.0:
        raise InputError(f"bad grid request ({width} x {height}, extent {extent!r})")
    _check_resolution(width, height, extent)
    x = (np.arange(width) - (width - 1) / 2.0) * (2.0 * extent / width)
    y = (np.arange(height) - (height - 1) / 2.0) * (2.0 * extent / height)
    order = abs(spec.l)
    norm = math.sqrt(2.0 / (math.pi * math.factorial(order))) * math.sqrt(2.0) ** order
    amp = x + 1j * math.copysign(1.0, spec.l) * y[:, None]
    np.power(amp, order, out=amp)
    # real factors scale the float view, two multiplies per value instead of four
    parts = amp.view(float).reshape(height, width, 2)
    parts *= (norm * np.exp(-y * y))[:, None, None]
    parts *= np.exp(-x * x)[:, None]
    return FieldGrid(width, height, extent, amp)


def _k_window(m: int, kmax: float) -> np.ndarray:
    """m far-field samples over [-kmax, kmax], exactly mirror-symmetric about 0."""
    return (np.arange(m) - (m - 1) / 2.0) * (2.0 * kmax / (m - 1))


def _half_phasors(k: np.ndarray, t: np.ndarray) -> tuple:
    """cos(k t) on the k >= 0, t >= 0 quarter; sin(k t) without its t = 0 column."""
    kt = np.outer(k[len(k) // 2:], t[len(t) // 2:])
    return np.cos(kt), np.sin(kt[:, len(t) % 2:])


def _fold(z: np.ndarray) -> tuple:
    """Even and odd parts of z's rows about its middle row, on the upper half.

    The center row of an odd length is kept once, in the even part.
    """
    half, center = divmod(len(z), 2)
    upper, mirror = z[half + center:], z[half - 1::-1]
    even = np.empty((half + center, *z.shape[1:]))
    even[:center] = z[half:half + center]
    np.add(upper, mirror, out=even[center:])
    return even, upper - mirror


def _half_dft(z: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """sum_t exp(-i k t) z[t] over z's rows for k >= 0, as cos and sin parts.

    t is mirror-symmetric, so the sum is cos(k t) times the even part of z
    minus i sin(k t) times its odd part, each over t >= 0 only; at -k the
    sine term changes sign.  Returns the transposed (columns of z, 2 mk)
    array [cos part | sin part].
    """
    even, odd = _fold(z)
    mk = len(cos)
    out = np.empty((z.shape[1], 2 * mk))
    np.matmul(even.T, cos.T, out=out[:, :mk])
    np.matmul(odd.T, sin.T, out=out[:, mk:])
    return out


def _rms_radius(field: FieldGrid) -> float:
    """Power-weighted rms distance from the axis, from the row and column marginals."""
    weights = field.intensity()
    total = weights.sum()
    if total <= 0.0:
        raise InputError("field carries no power")
    y2, x2 = field.y ** 2, field.x ** 2
    return math.sqrt(float(weights.sum(axis=1) @ y2 + weights.sum(axis=0) @ x2) / total)


def tilted_lens_pattern(field: FieldGrid, astigmatism: float) -> IntensityGrid:
    """Far-field intensity after the astigmatic phase exp(i a (x^2 - y^2)/w^2).

    The k-space window k = (arange(m) - (m - 1)/2) 2 kmax/(m - 1),
    m = max(width, height), is sized from the beam's rms radius so the lobe
    structure stays well resolved.  The transform onto that window is the
    DFT exp(-i k y^T) . chirped . exp(-i x k^T), evaluated as a folded real
    DFT: x, y and k are exactly mirror-symmetric, so cos(k t) is even and
    sin(k t) odd in both k and t.  Each axis transform splits its input
    into even and odd parts along t and takes two real GEMMs, cos times the
    even part and sin times the odd part (complex data viewed as float),
    with only the k >= 0, t >= 0 quarter of the phasors; the k < 0 half is
    the same sums with the sine terms' sign flipped.  A square grid uses one
    (cos, sin) pair for both axes.
    """
    if not isinstance(field, FieldGrid):
        raise InputError(f"expected FieldGrid, got {type(field).__name__}")
    astigmatism = float(astigmatism)
    if not math.isfinite(astigmatism) or astigmatism <= 0.0:
        raise InputError(f"astigmatism strength must be positive, got {astigmatism!r}")
    _check_resolution(field.width, field.height, field.extent)
    kmax = 2.0 * (astigmatism + 1.0) * (_rms_radius(field) + 2.0)
    m = max(field.width, field.height)
    k = _k_window(m, kmax)
    x, y = field.x, field.y
    cos_y, sin_y = _half_phasors(k, y)
    cos_x, sin_x = (cos_y, sin_y) if field.width == field.height else _half_phasors(k, x)
    chirped = field.values * (field.dx * field.dy * np.exp(-1j * astigmatism * y * y))[:, None]
    chirped *= np.exp(1j * astigmatism * x * x)
    # each stage's input is dropped once transformed, which keeps the peak
    # memory at about three grid-sized buffers
    # along y: rows (x, re/im), columns (cos | sin part in y, ky >= 0)
    along_y = _half_dft(chirped.view(float), cos_y, sin_y)
    del chirped
    # along x: rows (re/im, y part, ky), columns (x part, kx >= 0)
    mk = len(cos_y)
    parts = _half_dft(along_y.reshape(field.width, -1), cos_x, sin_x).reshape(2, 2, mk, 2, mk)
    del along_y
    # (re, im) stacks over (ky, kx): u, v take cos(kx x), p, q sin(kx x);
    # u, p take cos(ky y), v, q sin(ky y).  Quadrant (+, +) is a - i c,
    # (-, -) is a + i c, (+, -) is b - i d and (-, +) is b + i d.
    u, v = parts[:, 0, :, 0], parts[:, 1, :, 0]
    p, q = parts[:, 0, :, 1], parts[:, 1, :, 1]
    b, d = u + q, v - p
    a = np.subtract(u, q, out=u)
    c = np.add(p, v, out=p)
    lo = m // 2
    out = np.empty((m, m))
    # flipping a quadrant and dropping its k = 0 line gives the k < 0 side
    out[lo:, lo:] = _squared_modulus(a[0] + c[1], a[1] - c[0])
    out[:lo, :lo] = _squared_modulus(a[0] - c[1], a[1] + c[0])[::-1, ::-1][:lo, :lo]
    out[lo:, :lo] = _squared_modulus(b[0] + d[1], b[1] - d[0])[:, ::-1][:, :lo]
    out[:lo, lo:] = _squared_modulus(b[0] - d[1], b[1] + d[0])[::-1][:lo]
    return IntensityGrid(m, m, kmax, out)


def _squared_modulus(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re^2 + im^2, computed in place in re and im."""
    re *= re
    im *= im
    re += im
    return re


@dataclass(frozen=True)
class StripeCount:
    """Dark-stripe count, lobe-axis orientation, and a confidence flag.

    axis_sign is +1 when the lobes line up along the main diagonal and -1
    along the anti-diagonal; for patterns synthesized by this module the
    sign equals the sign of l.  indeterminate marks low-contrast inputs
    with no clear lobe structure.
    """

    count: int
    axis_sign: int
    indeterminate: bool


def _centroid(intensity: np.ndarray) -> tuple:
    """Intensity-weighted (row, column) center in pixel units."""
    h, w = intensity.shape
    total = intensity.sum()
    return (float(intensity.sum(axis=1) @ np.arange(h)) / total,
            float(intensity.sum(axis=0) @ np.arange(w)) / total)


def _diagonal_profile(intensity: np.ndarray, row_step: int, cy: float, cx: float) -> np.ndarray:
    """Bilinear profile through (cy, cx) along one diagonal."""
    h, w = intensity.shape
    half = min(h, w) / 2.0 - 2.0
    t = np.linspace(-half, half, 4 * max(h, w))
    ys = cy + t * row_step / math.sqrt(2.0)
    xs = cx + t / math.sqrt(2.0)
    inside = (ys >= 0) & (ys <= h - 2) & (xs >= 0) & (xs <= w - 2)
    ys, xs = ys[inside], xs[inside]
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy, fx = ys - y0, xs - x0
    return (intensity[y0, x0] * (1 - fy) * (1 - fx)
            + intensity[y0 + 1, x0] * fy * (1 - fx)
            + intensity[y0, x0 + 1] * (1 - fy) * fx
            + intensity[y0 + 1, x0 + 1] * fy * fx)


def _count_dips(profile: np.ndarray, peak: float) -> int:
    """Below-dark-threshold runs between the outermost shoulder crossings."""
    shoulders = np.nonzero(profile > SHOULDER_FRACTION * peak)[0]
    if shoulders.size == 0:
        return 0
    segment = profile[shoulders[0]:shoulders[-1] + 1] < DARK_FRACTION * peak
    starts = int(np.sum(segment[1:] & ~segment[:-1])) + int(segment[0])
    return starts


def count_dark_stripes(intensity) -> StripeCount:
    """Count the dark stripes of a tilted-lens pattern; the count equals |l|.

    Both diagonals through the centroid are profiled against the global
    intensity peak; the diagonal that crosses the stripes carries the count
    and fixes the orientation sign.  Inputs without 2:1 peak-to-mean
    contrast are flagged indeterminate.
    """
    arr = intensity.values if isinstance(intensity, IntensityGrid) else np.asarray(intensity, dtype=float)
    if arr.ndim != 2 or min(arr.shape) < 8:
        raise InputError(f"intensity must be a 2-D grid of at least 8x8 pixels, got {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InputError("intensity values must be finite and nonnegative")
    peak = float(arr.max())
    if peak <= 0.0 or peak < MIN_CONTRAST * float(arr.mean()):
        return StripeCount(0, 0, True)
    center = _centroid(arr)
    profile_main = _diagonal_profile(arr, +1, *center)
    profile_anti = _diagonal_profile(arr, -1, *center)
    count_main = _count_dips(profile_main, peak)
    count_anti = _count_dips(profile_anti, peak)
    if count_main == count_anti == 0:
        return StripeCount(0, 0, False)
    if count_main == count_anti:
        # a profile running along (not across) the stripes stays dim
        sign = 1 if profile_main.max() >= profile_anti.max() else -1
        return StripeCount(count_main, sign, False)
    if count_main > count_anti:
        return StripeCount(count_main, 1, False)
    return StripeCount(count_anti, -1, False)


def mode_image_filename(l: int, stage: str) -> str:
    """Canonical image file name for a charge and processing stage."""
    return f"mode_l{int(l)}_{stage}.pgm"


def write_pgm(path, intensity, bit_depth: int = 16) -> None:
    """Write an intensity grid as binary PGM (P5), linearly mapped to [0, maxval].

    16-bit samples are stored big-endian as the netpbm format requires.
    """
    arr = intensity.values if isinstance(intensity, IntensityGrid) else np.asarray(intensity, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"intensity must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InputError("intensity values must be finite and nonnegative")
    if bit_depth == 8:
        maxval, dtype = 255, np.dtype(np.uint8)
    elif bit_depth == 16:
        maxval, dtype = 65535, np.dtype(">u2")
    else:
        raise InputError(f"bit_depth must be 8 or 16, got {bit_depth!r}")
    peak = float(arr.max())
    scaled = np.zeros(arr.shape, dtype=dtype) if peak <= 0.0 \
        else np.round(arr / peak * maxval).astype(dtype)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.tobytes())
