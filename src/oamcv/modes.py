"""Laguerre-Gaussian transverse modes and the tilted-lens charge diagnostic.

Grid coordinates are measured in beam-waist units (the waist is 1 in grid
coordinates), with pixels centered symmetrically on the optical axis.
A p = 0 mode's amplitude is synthesized without trigonometry, as the
rank-(|l| + 1) sum of separable factors that _lg_factors builds.
The tilted lens is modeled as a pure astigmatic phase followed by a
far-field Fourier transform onto a k-space window sized from the beam's
row and column marginals.  The
pattern shows |l| dark stripes whose diagonal orientation gives the sign of
the topological charge.  The diagnostic follows Vaity, Banerji and Singh,
Phys. Lett. A 377, 1154 (2013); astigmatic mode conversion, Beijersbergen
et al., Opt. Commun. 96, 123 (1993).

The far field has two independent routes.  lg_field plus
tilted_lens_pattern is the general one: any FieldGrid is transformed by the
grid DFT, the dense product of one phasor table per axis with the chirped
field.
lg_images, which run_modes calls, never builds the field: each separable
factor of a chirped p = 0 mode is t^j exp(-alpha t^2), whose Fourier
integral _moments gives in closed form, so the pattern is |G^T F|^2, the
complex product of rank |l| + 1 taken as one real GEMM of rank 2 (|l| + 1)
per row block, on the ky >= 0 half of the window.  At 512^2, extent 6, the
routes agree within 3.1e-13 of the peak for |l| <= 5 and 0.1 <= a <= 12.
Beyond that the grid DFT departs from the integral, first because it cuts
the beam off at +-extent (2.6e-12 of the peak at |l| = 7, 7.4e-9 at
|l| = 16), then, for a >~ 12, because it aliases the chirp, whose local
frequency 2 a t passes the grid's Nyquist pi/dx.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, ResolutionError
from .gaussian import _frozen, checked_charges, is_integer, real_array, real_or_nan

MAX_ABS_CHARGE = 16
MIN_PIXELS_PER_WAIST = 8
# largest side of a pixel grid, which bounds the square far-field grid too
MAX_GRID_SIDE = 4096

# stripe detection: lobes must rise above the shoulder fraction of the peak,
# dark stripes dip below the dark fraction, and patterns need 2:1 contrast
SHOULDER_FRACTION = 0.25
DARK_FRACTION = 0.05
MIN_CONTRAST = 2.0

# PGM maxval and sample type per bit depth
_PGM_SAMPLES = {8: (255, np.dtype(np.uint8)), 16: (65535, np.dtype(">u2"))}
# rows per block of the lg_images products and of write_pgm's quantisation
_BLOCK_ROWS = 32


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
        _set_grid(self, self.width, self.height, self.extent, values)

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
        """|amplitude|^2 per pixel; inf where it overflows, without a warning."""
        with np.errstate(over="ignore"):
            return np.abs(self.values) ** 2


def _set_grid(grid, width, height, extent, values: np.ndarray) -> None:
    """Set a grid's checked geometry and its values, which must be (height, width), read-only."""
    width, height, extent = _checked_geometry(width, height, extent)
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
    for a far field.  values is copied and checked finite and nonnegative.
    The grid carries the peak, values.max(), that its check takes, so
    count_dark_stripes and write_pgm read a grid's values without scanning
    them again, and its mirror (rows, step): the first rows rows are
    values[::-1, ::step][:rows], which write_pgm copies rather than
    quantises and from which count_dark_stripes reads a centro-symmetric
    grid's centre.  A grid built here has no mirror, (0, 1).
    """

    width: int
    height: int
    extent: float
    values: np.ndarray
    _peak: float = field(init=False, repr=False)
    _mirror: tuple = field(init=False, repr=False)

    def __post_init__(self):
        values, peak, _ = _intensity_values(self.values, 1)
        _set_grid(self, self.width, self.height, self.extent, values.copy())
        object.__setattr__(self, "_peak", peak)
        object.__setattr__(self, "_mirror", (0, 1))


def _computed_grid(width: int, height: int, extent: float, values: np.ndarray,
                   mirror: tuple = (0, 1)) -> IntensityGrid:
    """An IntensityGrid that keeps values this module has just computed, without a copy.

    The geometry comes from checked inputs and every value is a sum of squares,
    so only finiteness is tested, by the maximum (a NaN propagates to it) of
    the computed rows, values[mirror[0]:], the others being their copies,
    before _frozen keeps the grid, that maximum as its peak and the mirror; a
    value that is not finite is the program's fault, a NumericalError.
    """
    peak = float(values[mirror[0]:].max())
    if not peak < math.inf:
        raise NumericalError("computed intensity values are not finite")
    return _frozen(IntensityGrid, width, height, extent, values, peak, mirror)


def _intensity_values(intensity, min_side: int) -> tuple:
    """(values, peak, mirror) of an IntensityGrid, checked and scanned when it was built, or
    of an array, checked and scanned here, with no mirror, (0, 1); either must be a 2-D grid
    of at least min_side pixels a side."""
    if isinstance(intensity, IntensityGrid):
        values, peak, mirror = intensity.values, intensity._peak, intensity._mirror
    else:
        values, peak, mirror = real_array(intensity), None, (0, 1)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise InputError("intensity values must be finite and nonnegative")
    if values.ndim != 2 or min(values.shape) < min_side:
        raise InputError(f"intensity must be a 2-D grid of at least {min_side}x{min_side} pixels, "
                         f"got shape {values.shape}")
    # an array is scanned for its peak once it is known not to be empty
    return values, float(values.max()) if peak is None else peak, mirror


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
    extent is the grid half-width in waist units.  The field is the one
    complex rank-(|l| + 1) product of the separable factors of _lg_factors.
    """
    spec, width, height, extent = _checked_mode(spec, width, height, extent)
    amp_x, amp_y, binomial, unit, norm = _lg_factors(
        spec, _pixel_axis(width, extent), _pixel_axis(height, extent))
    return FieldGrid(width, height, extent, (unit * norm * amp_y) @ (binomial * amp_x).T)


def _checked_mode(spec, width, height, extent) -> tuple:
    """(spec, width, height, extent) of an LG mode grid: charge, geometry, then resolution."""
    spec = spec if isinstance(spec, LGModeSpec) else LGModeSpec(spec)
    width, height, extent = _checked_geometry(width, height, extent)
    _check_resolution(width, height, extent)
    return spec, width, height, extent


def _lg_factors(spec, x: np.ndarray, y: np.ndarray) -> tuple:
    """(amp_x, amp_y, binomial, unit, norm): the separable factors of spec's p = 0 amplitude.

    With n = |l| and s = sign(l), r^n exp(i l phi) exp(-r^2) is
    (x + i s y)^n exp(-x^2) exp(-y^2) = sum_j C(n, j) (i s)^(n-j) x^j y^(n-j) exp(-x^2) exp(-y^2),
    so the amplitude is norm (unit amp_y) (binomial amp_x)^T: column j of
    amp_x holds x^j exp(-x^2), of amp_y y^(n-j) exp(-y^2); binomial[j] is
    C(n, j), unit[j] (i s)^(n-j), and norm sqrt(2/(pi n!)) sqrt(2)^n.
    The powers are _signed_powers, so each column is exactly even or odd in
    its axis.  amp_y is the pass amp_x makes, on y, with its columns
    reversed, a view; when y is x it is amp_x's own pass.
    """
    order = abs(spec.l)
    binomial = np.array([math.comb(order, j) for j in range(order + 1)], dtype=float)
    amp_x = _signed_powers(x, order) * np.exp(-x * x)[:, None]
    amp_y = (amp_x if y is x else _signed_powers(y, order) * np.exp(-y * y)[:, None])[:, ::-1]
    unit = np.array([(1j * math.copysign(1.0, spec.l)) ** p for p in range(order, -1, -1)])
    norm = math.sqrt(2.0 / (math.pi * math.factorial(order))) * math.sqrt(2.0) ** order
    return amp_x, amp_y, binomial, unit, norm


def _signed_powers(t: np.ndarray, order: int) -> np.ndarray:
    """t[:, None] ** arange(order + 1) as |t| to those powers, the odd columns taking the sign
    of t.

    numpy's pow takes a slow path on a negative base; on |t| it does not, and
    the entries come out exactly even or odd in t.
    """
    out = np.abs(t)[:, None] ** np.arange(order + 1)
    odd = out[:, 1::2]
    np.copysign(odd, t[:, None], out=odd)
    return out


def _k_window(m: int, kmax: float) -> np.ndarray:
    """m far-field samples over [-kmax, kmax], exactly mirror-symmetric about 0."""
    return (np.arange(m) - (m - 1) / 2.0) * (2.0 * kmax / (m - 1))


def _phasors(k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i k t) as a (len(k), len(t)) table: cos(k t) and -sin(k t) written
    into its real and imaginary views.  np.cos(kt) - 1j * np.sin(kt) gives the
    same values but flips the sign of the zero imaginary parts at k t = 0."""
    kt = np.outer(k, t)
    table = np.empty(kt.shape, dtype=complex)
    np.cos(kt, out=table.real)
    np.negative(np.sin(kt, out=kt), out=table.imag)
    return table


def _k_max(astigmatism: float, rows: np.ndarray, cols: np.ndarray, x: np.ndarray,
           y: np.ndarray) -> float:
    """Far-field window half-width 2 (a + 1) (r + 2), r the rms radius of an intensity on
    x, y given by its marginals, rows (over y) and cols (over x); a NumericalError if it,
    k t or the chirp phase a t^2 would overflow on the grid."""
    total = rows.sum()
    if not 0.0 < total < math.inf:
        raise InputError(f"field intensity sum must be positive and finite, got {float(total)!r}")
    # the rms distance from the axis
    with np.errstate(over="ignore"):
        moment = float(rows @ y ** 2 + cols @ x ** 2)
    if not moment < math.inf:
        raise InputError(f"field intensity second moment must be finite, got {moment!r}")
    kmax = 2.0 * (astigmatism + 1.0) * (math.sqrt(moment / total) + 2.0)
    # the window steps by 2 kmax/(m - 1), |k t| < 2 kmax |t| and a t^2 <= (a edge) edge
    edge = max(float(x[-1]), float(y[-1]))
    if not (math.isfinite(2.0 * kmax * edge) and math.isfinite(astigmatism * edge * edge)):
        raise NumericalError(f"astigmatism {astigmatism!r} overflows the far-field window")
    return kmax


def checked_astigmatism(astigmatism) -> float:
    """Astigmatic phase strength as a float; anything but a finite number > 0 is an InputError."""
    if math.isfinite(value := real_or_nan(astigmatism)) and value > 0.0:
        return value
    raise InputError(f"astigmatism strength must be positive, got {astigmatism!r}")


def tilted_lens_pattern(field: FieldGrid, astigmatism: float) -> IntensityGrid:
    """Far-field intensity after the astigmatic phase exp(i a (x^2 - y^2)/w^2).

    The k-space window k = (arange(m) - (m - 1)/2) 2 kmax/(m - 1),
    m = max(width, height), is sized from the beam's rms radius so the lobe
    structure stays well resolved.  The pattern is |P_y chirped P_x^T|^2,
    the dense DFT with P = exp(-i k t) (_phasors), one table per distinct
    axis length, so a square grid builds one.  The chirped field is dropped
    once transformed along y, so a square grid's peak is three m x m complex
    buffers: the table and the two products (64 MiB each at 2048^2).  Each
    product is one whole-grid GEMM, whose floats depend on the OpenBLAS
    thread count.
    """
    if not isinstance(field, FieldGrid):
        raise InputError(f"expected FieldGrid, got {type(field).__name__}")
    astigmatism = checked_astigmatism(astigmatism)
    _check_resolution(field.width, field.height, field.extent)
    x, y = field.x, field.y
    weights = field.intensity()
    kmax = _k_max(astigmatism, weights.sum(axis=1), weights.sum(axis=0), x, y)
    m = max(field.width, field.height)
    k = _k_window(m, kmax)
    p_y = _phasors(k, y)
    p_x = p_y if len(x) == len(y) else _phasors(k, x)
    chirped = field.values * (field.dx * field.dy * np.exp(-1j * astigmatism * y * y))[:, None]
    chirped *= np.exp(1j * astigmatism * x * x)
    along_y = p_y @ chirped
    del chirped
    far = along_y @ p_x.T
    del along_y
    return _computed_grid(m, m, kmax, _squared_modulus(far))


def lg_images(spec, astigmatism: float, width: int = 512, height: int = 512,
              extent: float = 6.0) -> tuple:
    """(beam, pattern): the intensity of lg_field(spec, width, height, extent)
    and its tilted-lens far field, without building the field.

    With n = |l|, the amplitude is the sum of n + 1 outer products of
    _lg_factors and the astigmatic chirp is separable, so the chirped field
    is sum_j g_j(y) f_j(x) with f_j = C(n, j) x^j exp(-(1 - i a) x^2) and
    g_j = (i s)^(n-j) norm y^(n-j) exp(-(1 + i a) y^2).  Their Fourier
    integrals are closed (_moments), F_j = C(n, j) I_j and G_j =
    (i s)^(n-j) norm I_(n-j), and the pattern is |G^T F|^2 on the window of
    tilted_lens_pattern.  That complex product of rank n + 1 is taken in
    real arithmetic, which OpenBLAS runs faster than its complex GEMM at so
    low a rank: with g_re = [Re G^T, -Im G^T], g_im = [Im G^T, Re G^T] and
    f_parts = [Re F; Im F], Re G^T F is g_re @ f_parts and Im G^T F is
    g_im @ f_parts, both rows of one real GEMM of rank 2 (n + 1) per row
    block.  I_j(-k) = (-1)^j I_j(k), so the pattern is centro-symmetric: G
    is evaluated on ky >= 0 only and the ky < 0 rows are those turned by 180
    degrees.  The integral is over the whole beam, not the grid, so this is
    the limit the grid DFT of tilted_lens_pattern approaches (see the module
    docstring).
    The beam is the real norm^2 (x^2 + y^2)^n exp(-2 x^2) exp(-2 y^2), the
    sum of n + 1 nonnegative outer products
    C(n, j) x^2j exp(-2 x^2) y^2(n-j) exp(-2 y^2), even in y, so its y < 0
    rows are the others flipped; the window is sized from its rms radius,
    whose marginals are those of the factors, O((n + 1) (width + height))
    work.  Each grid states its mirror, which write_pgm copies rather than
    quantises and from which count_dark_stripes reads the pattern's centre.
    Charge, grid and astigmatism follow the rules of lg_field and
    tilted_lens_pattern.  beam.extent is the grid half-width, pattern.extent
    the k-space half-width.

    Both images are views of one float allocation, so keeping either grid
    keeps both alive.  No temporary is image-sized: the beam's y >= 0 rows
    and the pattern's ky >= 0 rows are filled in blocks of _BLOCK_ROWS rows
    (_row_blocks), each pattern block's stacked real and imaginary parts
    made in one reused buffer, squared in place and added into its rows, and
    the other rows in place by the flip and the turn.  The one allocation is
    what keeps a warm call from faulting its pages in again: glibc raises its
    heap trim threshold to twice the largest mmapped block it frees, and two
    images' worth lifts it above a call's working set.  In every case
    checked, with 1 and 2 OpenBLAS threads, both images' float values were
    the same, unlike the grid route's.
    """
    spec, width, height, extent = _checked_mode(spec, width, height, extent)
    astigmatism = checked_astigmatism(astigmatism)
    x = _pixel_axis(width, extent)
    # a square grid passes its one axis for both sides, which _lg_factors shares
    y = x if height == width else _pixel_axis(height, extent)
    amp_x, amp_y, binomial, unit, norm = _lg_factors(spec, x, y)
    m = max(width, height)
    # one allocation for both images, which keeps warm calls from faulting (see above)
    images = np.empty(height * width + m * m)
    beam = images[:height * width].reshape(height, width)
    pattern = images[height * width:].reshape(m, m)
    left, right = norm * norm * amp_y * amp_y, (binomial * amp_x * amp_x).T
    # left's rows for +-y are bit-equal, so the y < 0 rows are the others flipped
    lower = beam[height // 2:]
    for rows in _row_blocks(len(lower)):
        np.matmul(left[height // 2:][rows], right, out=lower[rows])
    beam[:height // 2] = beam[::-1][:height // 2]
    kmax = _k_max(astigmatism, left @ right.sum(axis=1), left.sum(axis=0) @ right, x, y)
    k = _k_window(m, kmax)
    order = abs(spec.l)
    f = binomial[:, None] * _moments(k, complex(1.0, -astigmatism), order)
    g = ((unit * norm)[:, None] * _moments(k[m // 2:], complex(1.0, astigmatism), order)[::-1]).T
    # Re G^T F = g_re @ f_parts and Im G^T F = g_im @ f_parts: real products of rank 2 (n + 1)
    g_re = np.concatenate([g.real, -g.imag], axis=1)
    g_im = np.concatenate([g.imag, g.real], axis=1)
    f_parts = np.concatenate([f.real, f.imag])
    upper = pattern[m // 2:]
    product = np.empty((2 * (_BLOCK_ROWS + 1), m))
    for rows in _row_blocks(len(upper)):
        size = rows.stop - rows.start
        block = np.matmul(np.concatenate([g_re[rows], g_im[rows]]), f_parts,
                          out=product[:2 * size])
        block *= block
        np.add(block[:size], block[size:], out=upper[rows])
    # the pattern is centro-symmetric: the ky < 0 rows are the upper half
    # turned by 180 degrees, without the k = 0 row of an odd window
    pattern[:m // 2] = upper[::-1, ::-1][:m // 2]
    return (_computed_grid(width, height, extent, beam, (height // 2, 1)),
            _computed_grid(m, m, kmax, pattern, (m // 2, -1)))


def _row_blocks(n: int) -> list:
    """Slices over n rows, _BLOCK_ROWS each; a lone last row joins the block before it.

    A one-row product would go through GEMV, whose last bits can differ from
    the GEMM rows of the same product taken whole.
    """
    stops = list(range(_BLOCK_ROWS, n, _BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return [slice(lo, hi) for lo, hi in zip([0, *stops], [*stops, n])]


def _moments(k: np.ndarray, alpha: complex, order: int) -> np.ndarray:
    """(order + 1, len(k)) array of I_j(k) = integral of t^j exp(-alpha t^2 - i k t) dt.

    With u = k/(2 alpha), I_0 = sqrt(pi/alpha) exp(-u k/2), I_1 = -i u I_0
    and, integrating by parts, I_j = (j - 1)/(2 alpha) I_(j-2) - i u I_(j-1).
    Neither k^2 nor |alpha|^2 = 1 + a^2 is formed, so nothing overflows while
    u k is finite; -k gives (-1)^j I_j(k) bit for bit.
    """
    u = k / (2.0 * alpha)
    out = np.empty((order + 1, len(k)), dtype=complex)
    out[0] = np.sqrt(math.pi / alpha) * np.exp(-0.5 * u * k)
    if order:
        out[1] = -1j * u * out[0]
    for j in range(2, order + 1):
        out[j] = (j - 1) / (2.0 * alpha) * out[j - 2] - 1j * u * out[j - 1]
    return out


def _squared_modulus(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """|z|^2 of a complex array as re^2 + im^2, into out if given: the grid route's.

    z must be C-contiguous: its float view, re and im interleaved, is
    squared in place in one contiguous pass, then its even columns (re^2)
    and odd ones (im^2) are added.
    """
    parts = z.view(float)
    parts *= parts
    return np.add(parts[..., 0::2], parts[..., 1::2], out=out)


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


def _centroid(intensity: np.ndarray, total) -> tuple:
    """Intensity-weighted (row, column) center in pixel units; total is intensity.sum()."""
    h, w = intensity.shape
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
    # the four corners through one flat index into the row-major values
    flat, at = intensity.ravel(), y0 * w + x0
    return (flat.take(at) * (1 - fy) * (1 - fx)
            + flat.take(at + w) * fy * (1 - fx)
            + flat.take(at + 1) * (1 - fy) * fx
            + flat.take(at + w + 1) * fy * fx)


def _count_dips(profile: np.ndarray, peak: float) -> int:
    """Below-dark-threshold runs between the outermost shoulder crossings."""
    shoulders = np.nonzero(profile > SHOULDER_FRACTION * peak)[0]
    if shoulders.size == 0:
        return 0
    segment = profile[shoulders[0]:shoulders[-1] + 1] < DARK_FRACTION * peak
    return int(np.sum(segment[1:] & ~segment[:-1])) + int(segment[0])


def count_dark_stripes(intensity) -> StripeCount:
    """Count the dark stripes of a tilted-lens pattern; the count equals |l|.

    Both diagonals through the centroid are profiled against the global
    intensity peak; the diagonal that crosses the stripes carries the count
    and fixes the orientation sign.  Inputs without 2:1 peak-to-mean
    contrast are flagged indeterminate.  A grid whose mirror is the 180
    degree turn of its first h // 2 rows, as lg_images' pattern states, is
    centro-symmetric: its centroid is exactly its middle, ((h - 1)/2,
    (w - 1)/2), and its total is read from the computed rows.  Any other
    input is summed and its centroid taken whole.
    """
    arr, peak, (rows, step) = _intensity_values(intensity, 8)
    h, w = arr.shape
    centro = step == -1 and rows == h // 2
    if centro:
        # twice the computed rows' total, counting the middle row of an odd height once
        total = 2.0 * arr[rows:].sum() - (arr[rows].sum() if h % 2 else 0.0)
    else:
        # the mean is np.mean's own sum and divide, so one sum serves the centroid too
        total = arr.sum()
    if peak <= 0.0 or peak < MIN_CONTRAST * float(total / arr.size):
        return StripeCount(0, 0, True)
    center = ((h - 1) / 2.0, (w - 1) / 2.0) if centro else _centroid(arr, total)
    profile_main = _diagonal_profile(arr, +1, *center)
    profile_anti = _diagonal_profile(arr, -1, *center)
    count_main = _count_dips(profile_main, peak)
    count_anti = _count_dips(profile_anti, peak)
    if count_main == count_anti == 0:
        return StripeCount(0, 0, False)
    if count_main == count_anti:
        # a profile running along (not across) the stripes stays dim
        sign = 1 if profile_main.max() >= profile_anti.max() else -1
    else:
        sign = 1 if count_main > count_anti else -1
    return StripeCount(max(count_main, count_anti), sign, False)


def mode_image_filename(l: int, stage: str) -> str:
    """Canonical image file name for a charge and processing stage."""
    return f"mode_l{checked_charges((l,))[0]}_{stage}.pgm"


def checked_bit_depth(bit_depth) -> int:
    """PGM bit depth as an int; anything but the integer 8 or 16 is an InputError."""
    if is_integer(bit_depth) and bit_depth in _PGM_SAMPLES:
        return int(bit_depth)
    raise InputError(f"bit_depth must be 8 or 16, got {bit_depth!r}")


def write_pgm(path, intensity, bit_depth: int = 16) -> None:
    """Write an intensity grid as binary PGM (P5), linearly mapped to [0, maxval].

    16-bit samples are stored big-endian as the netpbm format requires.  The
    samples are one array of that type, quantised in row blocks through one
    reused float block (each row divided by the peak, times maxval, rounded
    half to even) and written through the buffer protocol (_write_file), so
    the image is never held as floats or copied to bytes.  The rows a grid's
    mirror names are copied from the samples of the rows they mirror, not
    quantised.  The bytes do not depend on the OpenBLAS thread count that
    rendered the grid, in every case checked, though the floats of the grid
    route do.
    """
    arr, peak, (mirrored, step) = _intensity_values(intensity, 1)
    maxval, dtype = _PGM_SAMPLES[checked_bit_depth(bit_depth)]
    if peak > 0.0:
        # the row blocks write every sample below the mirrored rows, which copy them
        samples = np.empty(arr.shape, dtype=dtype)
        floats = np.empty((_BLOCK_ROWS + 1, arr.shape[1]))
        for rows in _row_blocks(len(arr) - mirrored):
            block = np.divide(arr[mirrored:][rows], peak, out=floats[:rows.stop - rows.start])
            block *= maxval
            samples[mirrored:][rows] = np.rint(block, out=block)
        samples[:mirrored] = samples[::-1, ::step][:mirrored]
    else:
        samples = np.zeros(arr.shape, dtype=dtype)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    _write_file(path, header, samples)


def _write_file(path, *parts) -> None:
    """Write the bytes-like parts, in order, as the whole content of the file at path.

    One os.open, creating or truncating the file with open(path, "wb")'s
    mode, then os.write until each part is written: no buffered file object,
    whose fstat and isatty calls cost more than a small file's write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        for part in parts:
            view = memoryview(part).cast("B")
            while view:
                view = view[os.write(fd, view):]
    finally:
        os.close(fd)
