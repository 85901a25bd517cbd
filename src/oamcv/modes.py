"""Laguerre-Gaussian transverse modes and the tilted-lens charge diagnostic.

Grid coordinates are measured in beam-waist units (the waist is 1 in grid
coordinates), with pixels centered symmetrically on the optical axis.
Fields are synthesized without trigonometry, from an integer power of
x + i y and a separable Gaussian.
The tilted lens is modeled as a pure astigmatic phase followed by a
far-field Fourier transform onto a k-space window sized from the beam.  One
1-D transform, _dft, gives the whole window as a complex array; it folds
its input about the mirror-symmetric axis into two real GEMMs.  The
pattern is |DFT_x(DFT_y(chirped))|^2 and shows |l| dark stripes whose
diagonal orientation gives the sign of the topological charge.  The
diagnostic follows Vaity, Banerji and Singh, Phys. Lett. A 377, 1154 (2013).

lg_field plus tilted_lens_pattern is the general path: any FieldGrid can be
transformed.  lg_images, which run_modes calls, renders the same beam and
pattern from the rank-(|l| + 1) separable form of a p = 0 mode as
|DFT_y(g)^T DFT_x(f)|^2, one complex GEMM of the 1-D transforms of |l| + 1
factors per axis, and never builds the complex field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InputError, ResolutionError
from .gaussian import checked_charges, is_integer, real_array, real_or_nan

MAX_ABS_CHARGE = 16
MIN_PIXELS_PER_WAIST = 8
# largest side of a pixel grid, which bounds the square far-field grid too
MAX_GRID_SIDE = 4096

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
        (l,) = checked_charges((self.l,))
        if abs(l) > MAX_ABS_CHARGE:
            raise ResolutionError(
                f"|l| = {abs(l)} exceeds the grid-resolution guard of {MAX_ABS_CHARGE}")
        object.__setattr__(self, "l", l)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Complex transverse field sampled at pixel centers over [-extent, extent]."""

    width: int
    height: int
    extent: float
    values: np.ndarray

    def __post_init__(self):
        values = real_array(self.values, complex).copy()
        if not np.all(np.isfinite(values)):
            raise InputError("field values must be finite")
        _set_grid(self, values)

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / self.width

    @property
    def dy(self) -> float:
        return 2.0 * self.extent / self.height

    @property
    def x(self) -> np.ndarray:
        return _pixel_axis(self.width, self.extent)

    @property
    def y(self) -> np.ndarray:
        return _pixel_axis(self.height, self.extent)

    @property
    def power(self) -> float:
        """Total power, sum of |amplitude|^2 times pixel area."""
        return float(np.sum(self.intensity()) * self.dx * self.dy)

    def intensity(self) -> np.ndarray:
        return self._intensity

    @functools.cached_property
    def _intensity(self) -> np.ndarray:
        """|amplitude|^2 per pixel, computed once per grid, read-only."""
        intensity = np.abs(self.values) ** 2
        intensity.flags.writeable = False
        return intensity


def _set_grid(grid, values: np.ndarray) -> None:
    """Set a grid's checked geometry and its values, which must be (height, width), read-only."""
    width, height, extent = _checked_geometry(grid.width, grid.height, grid.extent)
    if values.shape != (height, width):
        raise InputError(f"values shape {values.shape} does not match "
                         f"(height, width) = ({height}, {width})")
    values.flags.writeable = False
    for name, value in dict(width=width, height=height, extent=extent, values=values).items():
        object.__setattr__(grid, name, value)


def _checked_geometry(width, height, extent) -> tuple:
    """(width, height, extent): 2 to MAX_GRID_SIDE pixels a side, extent finite and > 0."""
    value = real_or_nan(extent)
    if not (is_integer(width) and is_integer(height) and min(width, height) >= 2
            and max(width, height) <= MAX_GRID_SIDE and math.isfinite(value) and value > 0.0):
        raise InputError(f"bad grid geometry ({width!r} x {height!r}, extent {extent!r})")
    return int(width), int(height), value


def _pixel_axis(n: int, extent: float) -> np.ndarray:
    """Centers of n pixels spanning [-extent, extent]."""
    return (np.arange(n) - (n - 1) / 2.0) * (2.0 * extent / n)


@dataclass(frozen=True, eq=False)
class IntensityGrid:
    """|amplitude|^2 at pixel centers over [-extent, extent].

    extent is the half-width in waist units for a beam and in 1/waist units
    for a far field.  values is copied, unless _owned marks an array this
    module has just built; either way it is checked finite and nonnegative.
    """

    width: int
    height: int
    extent: float
    values: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        values = _intensity_values(self.values, 1)
        _set_grid(self, values if _owned else values.copy())


def _intensity_values(intensity, min_side: int) -> np.ndarray:
    """The values of an IntensityGrid, checked when it was built, or of an array, checked here;
    either must be a 2-D grid of at least min_side pixels a side."""
    if isinstance(intensity, IntensityGrid):
        values = intensity.values
    else:
        values = real_array(intensity)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InputError("intensity values must be finite and nonnegative")
    if values.ndim != 2 or min(values.shape) < min_side:
        raise InputError(f"intensity must be a 2-D grid of at least {min_side}x{min_side} pixels, "
                         f"got shape {values.shape}")
    return values


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
    spec, width, height, extent = _checked_mode(spec, width, height, extent)
    x, y = _pixel_axis(width, extent), _pixel_axis(height, extent)
    order = abs(spec.l)
    amp = x + 1j * math.copysign(1.0, spec.l) * y[:, None]
    np.power(amp, order, out=amp)
    # real factors scale the float view, two multiplies per value instead of four
    parts = amp.view(float).reshape(height, width, 2)
    parts *= (_lg_norm(order) * np.exp(-y * y))[:, None, None]
    parts *= np.exp(-x * x)[:, None]
    return FieldGrid(width, height, extent, amp)


def _checked_mode(spec, width, height, extent) -> tuple:
    """(spec, width, height, extent) of an LG mode grid: charge, geometry, then resolution."""
    spec = spec if isinstance(spec, LGModeSpec) else LGModeSpec(spec)
    width, height, extent = _checked_geometry(width, height, extent)
    _check_resolution(width, height, extent)
    return spec, width, height, extent


def _lg_norm(order: int) -> float:
    """Amplitude scale sqrt(2/(pi n!)) sqrt(2)^n of the unit-power p = 0 mode of order n = |l|."""
    return math.sqrt(2.0 / (math.pi * math.factorial(order))) * math.sqrt(2.0) ** order


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
    even = np.empty((half + center, *z.shape[1:]), dtype=z.dtype)
    even[:center] = z[half:half + center]
    np.add(upper, mirror, out=even[center:])
    return even, upper - mirror


def _axis_phasors(k: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """_half_phasors(k, x) and _half_phasors(k, y); a square grid computes one pair."""
    along_y = _half_phasors(k, y)
    return (along_y if len(x) == len(y) else _half_phasors(k, x)), along_y


def _dft(z: np.ndarray, cos: np.ndarray, sin: np.ndarray, m: int) -> np.ndarray:
    """sum_t exp(-i k t) z[t] over the rows of the complex z, on the whole m-point window.

    t and k are mirror-symmetric, so at k >= 0 the sum is C - i S, with C
    cos(k t) times the even part of z and S sin(k t) times its odd part,
    each over t >= 0 only and each one real GEMM on z's float view; at -k it
    is C + i S.  Returns the transposed (columns of z, m) complex array.
    """
    even, odd = _fold(z)
    c = (cos @ even.view(float)).view(complex)
    del even
    s = (sin @ odd.view(float)).view(complex)
    del odd
    s *= 1j
    # the k < 0 side is the flipped k >= 0 half without its k = 0 line
    lo = m // 2
    out = np.empty((z.shape[1], m), dtype=complex)
    np.subtract(c.T, s.T, out=out[:, lo:])
    np.add(c.T[:, ::-1][:, :lo], s.T[:, ::-1][:, :lo], out=out[:, :lo])
    return out


def _rms_radius(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Intensity-weighted rms distance from the axis, from the row and column marginals."""
    total = weights.sum()
    if total <= 0.0:
        raise InputError("field carries no power")
    return math.sqrt(float(weights.sum(axis=1) @ y ** 2 + weights.sum(axis=0) @ x ** 2) / total)


def _k_max(astigmatism: float, rms_radius: float) -> float:
    """Half-width of the far-field window, wide enough to resolve the lobes."""
    return 2.0 * (astigmatism + 1.0) * (rms_radius + 2.0)


def checked_astigmatism(astigmatism) -> float:
    """Astigmatic phase strength as a float; anything but a finite number > 0 is an InputError."""
    if math.isfinite(value := real_or_nan(astigmatism)) and value > 0.0:
        return value
    raise InputError(f"astigmatism strength must be positive, got {astigmatism!r}")


def tilted_lens_pattern(field: FieldGrid, astigmatism: float) -> IntensityGrid:
    """Far-field intensity after the astigmatic phase exp(i a (x^2 - y^2)/w^2).

    The k-space window k = (arange(m) - (m - 1)/2) 2 kmax/(m - 1),
    m = max(width, height), is sized from the beam's rms radius so the lobe
    structure stays well resolved.  The transform onto that window is the
    DFT exp(-i k y^T) . chirped . exp(-i x k^T), and the pattern is
    |DFT_x(DFT_y(chirped))|^2, each DFT one _dft call that returns the
    whole window as a complex array.  x, y and k are exactly
    mirror-symmetric, so cos(k t) is even and sin(k t) odd in both k and t:
    _dft splits its input into even and odd parts along t and takes two
    real GEMMs, cos times the even part and sin times the odd part (complex
    data viewed as float), with only the k >= 0, t >= 0 quarter of the
    phasors; the k < 0 half is the same sums with the sine terms' sign
    flipped.  A square grid uses one (cos, sin) pair for both axes.
    """
    if not isinstance(field, FieldGrid):
        raise InputError(f"expected FieldGrid, got {type(field).__name__}")
    astigmatism = checked_astigmatism(astigmatism)
    _check_resolution(field.width, field.height, field.extent)
    x, y = field.x, field.y
    kmax = _k_max(astigmatism, _rms_radius(field.intensity(), x, y))
    m = max(field.width, field.height)
    (cos_x, sin_x), (cos_y, sin_y) = _axis_phasors(_k_window(m, kmax), x, y)
    chirped = field.values * (field.dx * field.dy * np.exp(-1j * astigmatism * y * y))[:, None]
    chirped *= np.exp(1j * astigmatism * x * x)
    # each stage's input is dropped once transformed, which keeps the peak
    # memory at about three grid-sized buffers
    along_y = _dft(chirped, cos_y, sin_y, m)
    del chirped
    far = _dft(along_y, cos_x, sin_x, m)
    del along_y
    return IntensityGrid(m, m, kmax, _squared_modulus(far), _owned=True)


def lg_images(spec, astigmatism: float, width: int = 512, height: int = 512,
              extent: float = 6.0) -> tuple:
    """(beam, pattern): the intensity of lg_field(spec, width, height, extent)
    and its tilted_lens_pattern(..., astigmatism), without building the field.

    With n = |l| and s = sign(l), (x + i s y)^n = sum_j C(n, j) x^j (i s y)^(n-j),
    and the Gaussian and the astigmatic chirp are separable, so the chirped
    field is a sum of n + 1 outer products g_j(y) f_j(x), and the pattern
    is |G^T F|^2: G = DFT_y(g) and F = DFT_x(f) are the (n + 1, m) complex
    _dft transforms of tilted_lens_pattern on the same window, and G^T F is
    one complex GEMM of rank n + 1.  The beam is the real
    norm^2 (x^2 + y^2)^n exp(-2 x^2) exp(-2 y^2), the sum of n + 1
    nonnegative outer products C(n, j) x^2j exp(-2 x^2) y^2(n-j) exp(-2 y^2);
    the window is sized from its rms radius.  Charge, grid and astigmatism
    follow the rules of lg_field and tilted_lens_pattern.  beam.extent is
    the grid half-width, pattern.extent the k-space half-width.
    """
    spec, width, height, extent = _checked_mode(spec, width, height, extent)
    astigmatism = checked_astigmatism(astigmatism)
    x, y = _pixel_axis(width, extent), _pixel_axis(height, extent)
    order = abs(spec.l)
    norm = _lg_norm(order)
    powers = np.arange(order + 1)
    binomial = np.array([math.comb(order, j) for j in range(order + 1)], dtype=float)
    # column j holds x^j exp(-x^2) and y^(n-j) exp(-y^2)
    amp_x = x[:, None] ** powers * np.exp(-x * x)[:, None]
    amp_y = y[:, None] ** powers[::-1] * np.exp(-y * y)[:, None]
    beam = (norm * norm * amp_y * amp_y) @ (binomial * amp_x * amp_x).T
    kmax = _k_max(astigmatism, _rms_radius(beam, x, y))
    m = max(width, height)
    (cos_x, sin_x), (cos_y, sin_y) = _axis_phasors(_k_window(m, kmax), x, y)
    # the chirped field is sum_j g_j(y) f_j(x): f_j takes C(n, j) and the x
    # chirp, g_j takes (i s)^(n-j), the norm, the pixel area and the y chirp
    unit = [(1j * math.copysign(1.0, spec.l)) ** p for p in range(order, -1, -1)]
    f = binomial * amp_x * np.exp(1j * astigmatism * x * x)[:, None]
    g = (np.array(unit) * (norm * (2.0 * extent / width) * (2.0 * extent / height))
         * amp_y * np.exp(-1j * astigmatism * y * y)[:, None])
    far = _dft(g, cos_y, sin_y, m).T @ _dft(f, cos_x, sin_x, m)
    return (IntensityGrid(width, height, extent, beam, _owned=True),
            IntensityGrid(m, m, kmax, _squared_modulus(far), _owned=True))


def _squared_modulus(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a complex array as re^2 + im^2, squaring z's parts in place."""
    re, im = z.real, z.imag
    re *= re
    im *= im
    return re + im


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
    arr = _intensity_values(intensity, 8)
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
    return f"mode_l{checked_charges((l,))[0]}_{stage}.pgm"


def checked_bit_depth(bit_depth) -> int:
    """PGM bit depth as an int; anything but the integer 8 or 16 is an InputError."""
    if is_integer(bit_depth) and bit_depth in (8, 16):
        return int(bit_depth)
    raise InputError(f"bit_depth must be 8 or 16, got {bit_depth!r}")


def write_pgm(path, intensity, bit_depth: int = 16) -> None:
    """Write an intensity grid as binary PGM (P5), linearly mapped to [0, maxval].

    16-bit samples are stored big-endian as the netpbm format requires.
    """
    arr = _intensity_values(intensity, 1)
    if checked_bit_depth(bit_depth) == 8:
        maxval, dtype = 255, np.dtype(np.uint8)
    else:
        maxval, dtype = 65535, np.dtype(">u2")
    peak = float(arr.max())
    if peak <= 0.0:
        scaled = np.zeros(arr.shape, dtype=dtype)
    else:
        level = np.divide(arr, peak)
        level *= maxval
        scaled = np.round(level, out=level).astype(dtype)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.tobytes())
