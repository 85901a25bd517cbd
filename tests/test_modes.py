"""Laguerre-Gaussian synthesis, tilted-lens patterns, and stripe counting."""

import json
import math
import os
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oamcv
from oamcv import (FieldGrid, InputError, LGModeSpec, NumericalError, ResolutionError,
                   count_dark_stripes, lg_field, lg_images, tilted_lens_pattern, write_pgm)
from oamcv.cli import run_modes
from oamcv.modes import (_BLOCK_ROWS, _PGM_SAMPLES, MAX_ABS_CHARGE, MAX_GRID_SIDE, IntensityGrid,
                         StripeCount, _diagonal_profile, _k_window, _lg_factors, _moments,
                         _phasors, _pixel_axis, _row_blocks, _signed_powers, _squared_modulus,
                         _write_file, mode_image_filename)
from conftest import run_child

# after two warm-up calls, prints the minor page faults of five run_modes([3])
# and two run_modes([-2, 0, 3]) calls into argv[1], as a JSON list
FAULT_CHILD = """
import json, resource, sys
from oamcv.cli import run_modes

def faults(charges):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_modes(charges, out_dir=sys.argv[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for _ in range(2):
    run_modes([3], out_dir=sys.argv[1])
print(json.dumps([faults([3]) for _ in range(5)] + [faults([-2, 0, 3]) for _ in range(2)]))
"""

# grids with even, odd and mixed-parity sides: (width, height, extent)
GRIDS = [(512, 512, 6.0), (257, 257, 6.0), (255, 256, 6.0), (300, 301, 6.0),
         (160, 128, 5.0), (128, 200, 5.0)]
# grids whose mirrored images are checked against the rows they copy
MIRROR_GRIDS = [(512, 512, 6.0), (255, 257, 6.0), (300, 256, 6.0), (64, 64, 4.0)]


def reference_lg_field(l, width, height, extent):
    """The polar LG formula on a meshgrid: r^|l| and exp(i l phi) from hypot/arctan2."""
    x = (np.arange(width) - (width - 1) / 2.0) * (2.0 * extent / width)
    y = (np.arange(height) - (height - 1) / 2.0) * (2.0 * extent / height)
    xg, yg = np.meshgrid(x, y)
    r = np.hypot(xg, yg)
    phi = np.arctan2(yg, xg)
    norm = math.sqrt(2.0 / (math.pi * math.factorial(abs(l))))
    return norm * (math.sqrt(2.0) * r) ** abs(l) * np.exp(-r * r) * np.exp(1j * l * phi)


def reference_diagonal_profile(intensity, row_step, cy, cx):
    """_diagonal_profile's bilinear profile by four 2-D fancy indexes."""
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


def pattern_factors(l, astigmatism, k):
    """(G^T, F) of lg_images' pattern product G^T F on the window k, G^T on its ky >= 0 half."""
    _, _, binomial, unit, norm = _lg_factors(LGModeSpec(l), k, k)
    f = binomial[:, None] * _moments(k, complex(1.0, -astigmatism), abs(l))
    g = (unit * norm)[:, None] * _moments(k[len(k) // 2:], complex(1.0, astigmatism), abs(l))[::-1]
    return g.T, f


def reference_far_field(field, astigmatism):
    """kmax from the meshgrid rms radius, intensity from the dense complex DFT product
    exp(-i k y^T) . chirped . exp(-i x k^T) on the window k = _k_window(m, kmax)."""
    x, y = field.x, field.y
    xg, yg = np.meshgrid(x, y)
    weights = field.intensity()
    r_rms = math.sqrt(float(np.sum(weights * (xg * xg + yg * yg))) / weights.sum())
    kmax = 2.0 * (astigmatism + 1.0) * (r_rms + 2.0)
    k = _k_window(max(field.width, field.height), kmax)
    chirped = field.values * np.outer(np.exp(-1j * astigmatism * y * y),
                                      np.exp(1j * astigmatism * x * x))
    out = np.exp(-1j * np.outer(k, y)) @ chirped @ np.exp(-1j * np.outer(x, k))
    return kmax, np.abs(out * field.dx * field.dy) ** 2


def reference_separable_far_field(l, astigmatism, width, height, extent, kmax):
    """The dense complex DFT of the separable factors of lg_images onto its k window,
    |G F^T|^2, at the pixel pitch of the width x height grid but on axes widened to at
    least 12 waists a side, so that cutting the beam off leaves less than rounding."""
    axes = []
    for n in (width, height):
        pitch = 2.0 * extent / n
        pad = math.ceil((12.0 - extent) / pitch)
        axes.append(_pixel_axis(n + 2 * pad, extent + pad * pitch))
    x, y = axes
    amp_x, amp_y, binomial, unit, norm = _lg_factors(LGModeSpec(l), x, y)
    k = _k_window(max(width, height), kmax)
    f = binomial * amp_x * np.exp(1j * astigmatism * x * x)[:, None]
    g = unit * norm * amp_y * np.exp(-1j * astigmatism * y * y)[:, None]
    far_x = np.exp(-1j * np.outer(k, x)) @ f * (x[1] - x[0])
    far_y = np.exp(-1j * np.outer(k, y)) @ g * (y[1] - y[0])
    return np.abs(far_y @ far_x.T) ** 2


class TestLGModeSpec:
    def test_charge_guard(self):
        with pytest.raises(ResolutionError):
            LGModeSpec(17)
        with pytest.raises(InputError):
            LGModeSpec(1.5)

    @pytest.mark.parametrize("l", [True, 1.0, "1", None])
    def test_charge_rule(self, l):
        with pytest.raises(InputError, match="charges must be integers"):
            LGModeSpec(l)

    def test_defaults(self):
        spec = LGModeSpec(-2)
        assert spec.l == -2


class TestLgField:
    @pytest.mark.parametrize("l", [0, 1, 2, -2, 8])
    def test_unit_power(self, l):
        assert lg_field(LGModeSpec(l)).power == pytest.approx(1.0, abs=1e-6)

    def test_unit_power_coarser_grid(self):
        assert lg_field(LGModeSpec(2), width=256, height=256, extent=4.0).power \
            == pytest.approx(1.0, abs=1e-6)

    def test_center_dark_for_charged_modes(self):
        # odd grid puts a pixel exactly on the axis
        for l in (1, 2, -1):
            field = lg_field(LGModeSpec(l), width=257, height=257, extent=6.0)
            assert abs(field.values[128, 128]) == 0.0

    def test_center_bright_for_gaussian(self):
        field = lg_field(LGModeSpec(0), width=257, height=257, extent=6.0)
        intensity = field.intensity()
        assert intensity[128, 128] == intensity.max()

    @pytest.mark.parametrize("l,r_peak", [(1, math.sqrt(0.5)), (2, 1.0)])
    def test_ring_radius(self, l, r_peak):
        field = lg_field(LGModeSpec(l))
        intensity = field.intensity()
        iy, ix = np.unravel_index(np.argmax(intensity), intensity.shape)
        r = math.hypot(field.x[ix], field.y[iy])
        assert r == pytest.approx(r_peak, abs=2 * field.dx)

    def test_hollow_grows_with_charge(self):
        radii = []
        for l in (1, 2):
            field = lg_field(LGModeSpec(l))
            intensity = field.intensity()
            iy, ix = np.unravel_index(np.argmax(intensity), intensity.shape)
            radii.append(math.hypot(field.x[ix], field.y[iy]))
        assert radii[1] > radii[0]

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            lg_field(LGModeSpec(1), width=64, height=64, extent=6.0)

    def test_accepts_bare_charge(self):
        assert np.array_equal(lg_field(2).values, lg_field(LGModeSpec(2)).values)

    @pytest.mark.parametrize("width,height,extent", GRIDS)
    @pytest.mark.parametrize("l", [-16, -5, -1, 0, 1, 2, 7, 16])
    def test_matches_polar_reference(self, l, width, height, extent):
        field = lg_field(LGModeSpec(l), width=width, height=height, extent=extent)
        expected = reference_lg_field(l, width, height, extent)
        assert np.abs(field.values - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("width,height,extent", GRIDS)
    def test_grids_mirror_symmetric(self, width, height, extent):
        # the folded far field pairs t with -t bit for bit
        field = lg_field(LGModeSpec(1), width=width, height=height, extent=extent)
        assert np.array_equal(field.x[::-1], -field.x)
        assert np.array_equal(field.y[::-1], -field.y)

    def test_values_frozen(self):
        field = lg_field(LGModeSpec(0))
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0

    def test_intensity_is_squared_modulus(self):
        field = lg_field(LGModeSpec(2), 128, 128, 4.0)
        tilted_lens_pattern(field, 2.0)  # reads it for the rms radius
        intensity = field.intensity()
        assert np.array_equal(intensity, np.abs(field.values) ** 2)
        assert field.power == float(np.sum(intensity) * field.dx * field.dy)

    @pytest.mark.parametrize("width, height, extent", [(1, 64, 4.0), (64, 0, 4.0),
                                                       (64, 64, 0.0), (64, 64, float("nan")),
                                                       (10 ** 20, 64, 3.0), (64, 4097, 3.0)])
    def test_one_grid_geometry_rule(self, width, height, extent):
        # the geometry is checked before any array is built or read
        with pytest.raises(InputError, match=r"^bad grid geometry") as synthesized:
            lg_field(1, width, height, extent)
        with pytest.raises(InputError, match=r"^bad grid geometry") as given:
            FieldGrid(width, height, extent, np.ones((2, 2)))
        assert str(synthesized.value) == str(given.value)

    def test_largest_grid_side_is_accepted(self):
        # guard: the bound is inclusive
        grid = FieldGrid(MAX_GRID_SIDE, 2, 1.0, np.ones((2, MAX_GRID_SIDE)))
        assert (grid.width, grid.height) == (MAX_GRID_SIDE, 2)

    def test_axes_match_lg_field_grid(self):
        field = lg_field(0, 160, 128, 5.0)
        assert np.array_equal(field.x, (np.arange(160) - 79.5) * (10.0 / 160))
        assert np.array_equal(field.y, (np.arange(128) - 63.5) * (10.0 / 128))


class TestTiltedLens:
    @pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("astigmatism", [1.0, 2.0, 3.0])
    def test_stripe_count_equals_charge(self, l, astigmatism):
        pattern = tilted_lens_pattern(lg_field(LGModeSpec(l)), astigmatism)
        result = count_dark_stripes(pattern)
        assert not result.indeterminate
        assert result.count == abs(l)

    def test_orientation_flips_with_charge_sign(self):
        plus = count_dark_stripes(tilted_lens_pattern(lg_field(LGModeSpec(1)), 2.0))
        minus = count_dark_stripes(tilted_lens_pattern(lg_field(LGModeSpec(-1)), 2.0))
        assert plus.count == minus.count == 1
        assert plus.axis_sign == -minus.axis_sign != 0

    def test_orientation_matches_charge_sign(self):
        for l in (-2, -1, 1, 2):
            result = count_dark_stripes(tilted_lens_pattern(lg_field(LGModeSpec(l)), 2.0))
            assert result.axis_sign == int(math.copysign(1, l))

    def test_gaussian_single_lobe(self):
        result = count_dark_stripes(tilted_lens_pattern(lg_field(LGModeSpec(0)), 2.0))
        assert result.count == 0 and result.axis_sign == 0 and not result.indeterminate

    @pytest.mark.parametrize("width,height,extent", [(512, 512, 6.0), (160, 128, 5.0),
                                                     (257, 257, 6.0), (255, 256, 6.0)])
    @pytest.mark.parametrize("astigmatism", [1.0, 2.0, 3.0])
    def test_gaussian_far_field_closed_form(self, width, height, extent, astigmatism):
        # the l = 0 field sqrt(2/pi) exp(-r^2) behind exp(i a (x^2 - y^2))
        # transforms to 2 pi/(1 + a^2) exp(-|k|^2/(2 (1 + a^2))) in intensity
        field = lg_field(LGModeSpec(0), width=width, height=height, extent=extent)
        for pattern in (tilted_lens_pattern(field, astigmatism),
                        lg_images(0, astigmatism, width, height, extent)[1]):
            k = np.linspace(-pattern.extent, pattern.extent, pattern.width)
            spread = 1.0 + astigmatism ** 2
            expected = 2.0 * math.pi / spread * np.exp(
                -(k[:, None] ** 2 + k[None, :] ** 2) / (2.0 * spread))
            assert pattern.values.shape == (max(width, height),) * 2
            assert np.abs(pattern.values - expected).max() <= 1e-10 * expected.max()

    @pytest.mark.parametrize("width,height,extent", GRIDS)
    @pytest.mark.parametrize("l,astigmatism", [(-5, 1.7), (0, 2.9), (2, 1.0), (3, 3.0)])
    def test_matches_dense_dft_reference(self, l, astigmatism, width, height, extent):
        field = lg_field(LGModeSpec(l), width=width, height=height, extent=extent)
        kmax, expected = reference_far_field(field, astigmatism)
        pattern = tilted_lens_pattern(field, astigmatism)
        assert pattern.extent == pytest.approx(kmax, rel=1e-12)
        assert pattern.values.shape == expected.shape
        assert np.abs(pattern.values - expected).max() <= 1e-12 * expected.max()
        # lg_images transforms the whole beam, not the grid: its reference is the
        # same DFT on axes wide enough that the cut-off tails lie below rounding
        separable = lg_images(l, astigmatism, width, height, extent)[1]
        assert separable.extent == pytest.approx(kmax, rel=1e-12)
        assert separable.values.shape == expected.shape
        wide = reference_separable_far_field(l, astigmatism, width, height, extent,
                                             separable.extent)
        assert np.abs(separable.values - wide).max() <= 1e-12 * wide.max()

    @pytest.mark.parametrize("width,height,extent", GRIDS)
    def test_asymmetric_field_matches_dense_dft_reference(self, width, height, extent):
        # LG modes have inversion parity, so their patterns are centro-symmetric;
        # an off-axis admixture breaks every symmetry of the data, not of the grid
        lg = lg_field(LGModeSpec(1), width=width, height=height, extent=extent)
        x, y = lg.x, lg.y
        shifted = np.exp(-(x[None, :] - 0.7) ** 2 - (y[:, None] + 0.3) ** 2 + 0.4j * x[None, :])
        field = FieldGrid(width, height, extent, lg.values + 0.5 * shifted)
        pattern = tilted_lens_pattern(field, 1.7)
        kmax, expected = reference_far_field(field, 1.7)
        assert pattern.extent == pytest.approx(kmax, rel=1e-12)
        assert np.abs(pattern.values - expected).max() <= 1e-12 * expected.max()
        flipped = expected[::-1, ::-1]
        assert np.abs(flipped - expected).max() > 1e-3 * expected.max()

    @pytest.mark.parametrize("m", [2, 3, 128, 255, 256, 257, 300, 301, 512])
    @pytest.mark.parametrize("kmax", [0.1, 7.3, 29.999999999999996, 41.17, 123.456])
    def test_k_window_mirror_symmetric(self, m, kmax):
        k = _k_window(m, kmax)
        assert np.array_equal(k[::-1], -k)
        assert k[-1] == pytest.approx(kmax, rel=1e-15)
        assert np.abs(k - np.linspace(-kmax, kmax, m)).max() <= 4 * np.spacing(kmax)

    @pytest.mark.parametrize("m", [2, 3, 255, 256, 257])
    @pytest.mark.parametrize("n", [2, 3, 64, 255, 300])
    @pytest.mark.parametrize("kmax", [0.1, 29.999999999999996, 123.456])
    def test_phasor_table_is_the_whole_evaluation(self, m, n, kmax):
        # the table has the bits of cos(k t) and -sin(k t) taken everywhere, signed
        # zeros included; np.cos(kt) - 1j * np.sin(kt) fails 57 of these 75 cases
        k, t = _k_window(m, kmax), _pixel_axis(n, 6.0)
        kt = np.outer(k, t)
        table = _phasors(k, t)
        whole = np.empty_like(table)
        whole.real, whole.imag = np.cos(kt), -np.sin(kt)
        assert table.tobytes() == whole.tobytes()

    def test_attenuation_scales_intensity_not_count(self):
        field = lg_field(LGModeSpec(2))
        dimmed = FieldGrid(field.width, field.height, field.extent, 0.3 * field.values)
        bright = tilted_lens_pattern(field, 2.0)
        dim = tilted_lens_pattern(dimmed, 2.0)
        assert dim.values.max() == pytest.approx(0.09 * bright.values.max(), rel=1e-9)
        assert count_dark_stripes(dim).count == count_dark_stripes(bright).count == 2

    def test_rejects_bad_astigmatism(self):
        field = lg_field(LGModeSpec(1))
        with pytest.raises(InputError):
            tilted_lens_pattern(field, 0.0)
        with pytest.raises(InputError):
            tilted_lens_pattern(field, -1.0)

    @pytest.mark.parametrize("field, astigmatism", [
        (lg_field(LGModeSpec(1), 128, 128, 4.0), 1e308),  # kmax and a t^2 overflow
        (FieldGrid(64, 64, 1e-3, np.ones((64, 64))), 1e308),  # only the window overflows
        (FieldGrid(64, 64, 1e-3, np.ones((64, 64))), 3e307),  # only 2 kmax overflows
        # a one-pixel spot on a wide grid: only the chirp phase a t^2 overflows
        (FieldGrid(256, 256, 16.0, np.outer(np.arange(256) == 128, np.arange(256) == 128) * 1.0),
         1e306)])
    def test_overflowing_astigmatism_is_numerical_error(self, field, astigmatism):
        with pytest.raises(NumericalError) as error:
            tilted_lens_pattern(field, astigmatism)
        assert str(error.value) == f"astigmatism {astigmatism!r} overflows the far-field window"

    def test_rejects_dark_field(self):
        dark = FieldGrid(128, 128, 4.0, np.zeros((128, 128), dtype=complex))
        with pytest.raises(InputError):
            tilted_lens_pattern(dark, 2.0)

    def test_rejects_field_whose_intensity_overflows(self):
        # an inf power is the field's fault, not the astigmatism's
        huge = FieldGrid(128, 128, 4.0, np.full((128, 128), 1e200))
        with pytest.raises(InputError, match=r"^field intensity sum must be positive and finite, "
                                             r"got inf$"):
            tilted_lens_pattern(huge, 2.0)

    def test_rejects_field_whose_second_moment_overflows(self):
        # the power is finite; the rms radius that sizes the window is the field's, not the
        # astigmatism's, and its overflow prints no warning
        huge = FieldGrid(512, 512, 16.0, np.full((512, 512), 2.5e151))
        assert math.isfinite(huge.power)
        with pytest.raises(InputError, match=r"^field intensity second moment must be finite, "
                                             r"got inf$"):
            tilted_lens_pattern(huge, 1.0)

    def test_resolution_guard(self):
        coarse = FieldGrid(32, 32, 6.0, np.ones((32, 32), dtype=complex))
        with pytest.raises(ResolutionError):
            tilted_lens_pattern(coarse, 2.0)


class TestLgImages:
    @pytest.mark.parametrize("width,height,extent", GRIDS)
    @pytest.mark.parametrize("l", [-16, -5, -1, 0, 1, 2, 7, 16])
    @pytest.mark.parametrize("astigmatism", [1.0, 1.7, 2.9])
    def test_matches_field_path(self, l, astigmatism, width, height, extent):
        # the beam and the window are the field path's; the pattern is the whole beam's
        # far field, which the grid DFT approaches once its axes are wide enough
        beam, pattern = lg_images(l, astigmatism, width, height, extent)
        field = lg_field(LGModeSpec(l), width=width, height=height, extent=extent)
        general = tilted_lens_pattern(field, astigmatism)
        assert (beam.width, beam.height, beam.extent) == (width, height, extent)
        assert np.abs(beam.values - field.intensity()).max() <= 1e-13 * field.intensity().max()
        assert pattern.extent == pytest.approx(general.extent, rel=1e-12)
        assert pattern.values.shape == general.values.shape
        expected = reference_separable_far_field(l, astigmatism, width, height, extent,
                                                 pattern.extent)
        assert np.abs(pattern.values - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("l", [-5, 0, 3, 5])
    @pytest.mark.parametrize("astigmatism", [0.1, 1.3, 2.9, 12.0])
    def test_agrees_with_grid_dft_route(self, l, astigmatism):
        # two independent far-field routes: at 512^2 they part only by the grid's
        # cut-off of the beam at +-extent until the grid DFT aliases the chirp
        pattern = lg_images(l, astigmatism)[1]
        general = tilted_lens_pattern(lg_field(l), astigmatism)
        assert np.abs(pattern.values - general.values).max() <= 5e-13 * general.values.max()

    @pytest.mark.parametrize("width,height,extent", GRIDS[:5])
    @pytest.mark.parametrize("l", [-5, 0, 1, 4])
    @pytest.mark.parametrize("astigmatism", [1.0, 2.9])
    def test_half_window_mirror_matches_full_window(self, l, astigmatism, width, height,
                                                    extent):
        pattern = lg_images(l, astigmatism, width, height, extent)[1]
        k = _k_window(pattern.width, pattern.extent)
        _, _, binomial, unit, norm = _lg_factors(LGModeSpec(l), k, k)
        f = binomial[:, None] * _moments(k, complex(1.0, -astigmatism), abs(l))
        g = (unit * norm)[:, None] * _moments(k, complex(1.0, astigmatism), abs(l))[::-1]
        full = np.abs(g.T @ f) ** 2
        assert np.abs(pattern.values - full).max() <= 1e-15 * full.max()

    @pytest.mark.parametrize("width,height", [(512, 512), (160, 128), (255, 257), (257, 257),
                                              (300, 301)])
    @pytest.mark.parametrize("l", [0, 1, -1, 5, -5, 16])
    def test_blocked_pattern_is_the_one_product_bit_for_bit(self, l, width, height):
        # per row block, Re and Im of G^T F are one stacked real product, squared and added;
        # the reused buffer and the in-place turn change no bit of it
        pattern = lg_images(l, 2.9, width, height, 6.0)[1]
        m = pattern.width
        g, f = pattern_factors(l, 2.9, _k_window(m, pattern.extent))
        g_re, g_im = np.hstack([g.real, -g.imag]), np.hstack([g.imag, g.real])
        f_parts = np.vstack([f.real, f.imag])
        blocks = []
        for rows in _row_blocks(len(g)):
            parts = np.vstack([g_re[rows], g_im[rows]]) @ f_parts
            parts = parts * parts
            blocks.append(parts[:len(parts) // 2] + parts[len(parts) // 2:])
        upper = np.vstack(blocks)
        whole = np.concatenate([upper[::-1, ::-1][:m // 2], upper])
        assert np.array_equal(pattern.values, whole)

    @pytest.mark.parametrize("width,height,extent", [*MIRROR_GRIDS, (129, 128, 6.0)])
    @pytest.mark.parametrize("astigmatism", [0.5, 2.9, 6.0])
    def test_real_products_are_the_complex_product_to_rounding(self, astigmatism, width,
                                                                height, extent):
        # the real GEMMs part from |G^T F|^2 taken whole, one complex product, by rounding only
        for l in range(-MAX_ABS_CHARGE, MAX_ABS_CHARGE + 1):
            pattern = lg_images(l, astigmatism, width, height, extent)[1]
            m = pattern.width
            g, f = pattern_factors(l, astigmatism, _k_window(m, pattern.extent))
            upper = np.abs(g @ f) ** 2
            whole = np.concatenate([upper[::-1, ::-1][:m // 2], upper])
            assert np.abs(pattern.values - whole).max() <= 2e-14 * whole.max(), l

    @pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS + 2,
                                   4 * _BLOCK_ROWS + 1, 256, 257])
    def test_row_blocks_cover_the_rows_without_a_lone_row(self, n):
        blocks = _row_blocks(n)
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
        assert all(2 <= rows.stop - rows.start <= _BLOCK_ROWS + 1 for rows in blocks) or n == 1

    @pytest.mark.parametrize("l", range(-16, 17))
    def test_shared_axis_factors_are_the_separate_ones_bit_for_bit(self, l):
        # a square grid's amp_y is amp_x turned, not a second pow/exp pass
        x = _pixel_axis(512, 6.0)
        shared = _lg_factors(LGModeSpec(l), x, x)
        separate = _lg_factors(LGModeSpec(l), x, x.copy())
        assert np.shares_memory(shared[0], shared[1])
        for a, b in zip(shared, separate):
            assert np.array_equal(a, b) and type(a) is type(b)

    def test_only_a_square_grid_shares_its_axis(self, monkeypatch):
        shared, factors = [], oamcv.modes._lg_factors

        def recording(spec, x, y):
            shared.append(y is x)
            return factors(spec, x, y)

        monkeypatch.setattr(oamcv.modes, "_lg_factors", recording)
        lg_images(3, 2.0, 255, 257, 6.0)
        lg_images(3, 2.0, 128, 128, 4.0)
        assert shared == [False, True]
        y = _pixel_axis(257, 6.0)
        amp_x, amp_y = _lg_factors(LGModeSpec(3), _pixel_axis(255, 6.0), y)[:2]
        assert not np.shares_memory(amp_x, amp_y)
        assert np.array_equal(amp_y, _signed_powers(y, 3)[:, ::-1] * np.exp(-y * y)[:, None])

    @pytest.mark.parametrize("order", [0, 5, 16])
    def test_signed_powers_are_powers_of_the_modulus_signed(self, order):
        t = np.array([-3.5, -1.0, -0.75, -0.0, 0.0, 1e-3, 0.5, 2.0, 6.0])
        powers = np.arange(order + 1)
        expected = np.abs(t)[:, None] ** powers
        odd = powers % 2 == 1
        expected[:, odd] = np.copysign(expected[:, odd], t[:, None])
        result = _signed_powers(t, order)
        assert result.tobytes() == expected.tobytes()
        # exactly even or odd in t, signed zeros included
        mirrored = _signed_powers(-t, order)
        assert mirrored[:, ~odd].tobytes() == result[:, ~odd].tobytes()
        assert mirrored[:, odd].tobytes() == (-result[:, odd]).tobytes()

    def test_signed_powers_are_pow_within_one_ulp(self):
        for n in range(2, 701):
            t = _pixel_axis(n, 6.0)
            exact = t[:, None] ** np.arange(MAX_ABS_CHARGE + 1)
            assert np.all(np.abs(_signed_powers(t, MAX_ABS_CHARGE) - exact)
                          <= np.spacing(np.abs(exact))), n

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(complex, hnp.array_shapes(max_dims=3, max_side=9),
                      elements=st.complex_numbers(allow_nan=False, max_magnitude=1e200)),
           st.booleans())
    def test_squared_modulus_is_re_squared_plus_im_squared_bit_for_bit(self, z, into_out):
        # a part above ~1.3e154 squares to inf on either side
        out = np.full(z.shape, np.nan) if into_out else None
        with np.errstate(over="ignore"):
            expected = z.real * z.real + z.imag * z.imag
            result = _squared_modulus(z.copy(), out=out)
        assert result.dtype == float and result.shape == z.shape
        assert result.tobytes() == expected.tobytes()
        if into_out:
            assert result is out

    def test_run_modes_memory_budget(self, tmp_path):
        # each image is one buffer, filled in row blocks: no image-sized temporaries
        run_modes([3], out_dir=tmp_path)
        tracemalloc.start()
        try:
            run_modes([3], out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
    def test_warm_run_modes_faults_in_no_image_pages(self, tmp_path):
        # both images are one block, so glibc trims the heap only above twice their
        # size, and run_modes holds one charge's images at a time: a warm call reuses
        # the pages of the last, where each used to fault in >= 1,300 of them afresh
        faults = json.loads(run_child(FAULT_CHILD, {}, tmp_path))
        assert len(faults) == 7 and max(faults) <= 64, faults

    @pytest.mark.parametrize("astigmatism", [1.0, 2.9, 1e6, 1e306])
    def test_moments_flip_sign_with_k_bit_for_bit(self, astigmatism):
        k = _k_window(257, 10.0 * (astigmatism + 1.0))
        signs = (-1.0) ** np.arange(17)[:, None]
        for alpha in (complex(1.0, -astigmatism), complex(1.0, astigmatism)):
            moments = _moments(k, alpha, 16)
            assert np.array_equal(moments[:, ::-1], signs * moments)

    @pytest.mark.parametrize("astigmatism", [1e6, 1e100, 1e200, 1e306])
    @pytest.mark.parametrize("l", [-5, 0, 1, 16])
    def test_accepted_astigmatism_warns_nothing(self, l, astigmatism):
        # every RuntimeWarning is a test error; the moments form neither k^2 nor 1 + a^2
        beam, pattern = lg_images(l, astigmatism)
        assert math.isfinite(pattern.extent) and pattern.values.shape == (512, 512)

    @pytest.mark.parametrize("l,astigmatism,width,height,extent", [
        (17, 2.0, 128, 128, 4.0), (1.5, 2.0, 128, 128, 4.0), (True, 2.0, 128, 128, 4.0),
        (1, 2.0, 1, 64, 4.0), (1, 2.0, 64, 4097, 3.0), (1, 2.0, 64, 64, float("nan")),
        (1, 2.0, 64, 64, 6.0), (1, 0.0, 128, 128, 4.0), (1, -1.0, 128, 128, 4.0),
        (1, float("inf"), 128, 128, 4.0), (1, "2", 128, 128, 4.0)])
    def test_same_rules_as_field_path(self, l, astigmatism, width, height, extent):
        with pytest.raises(InputError) as separable:
            lg_images(l, astigmatism, width, height, extent)
        with pytest.raises(InputError) as general:
            tilted_lens_pattern(lg_field(l, width, height, extent), astigmatism)
        assert type(separable.value) is type(general.value)
        assert str(separable.value) == str(general.value)

    def test_overflowing_astigmatism_is_the_field_path_error(self):
        with pytest.raises(NumericalError) as separable:
            lg_images(1, 1e308, 128, 128, 4.0)
        with pytest.raises(NumericalError) as general:
            tilted_lens_pattern(lg_field(1, 128, 128, 4.0), 1e308)
        assert str(separable.value) == str(general.value)

    def test_grids_frozen(self):
        for grid in lg_images(2, 2.0, 128, 128, 4.0):
            with pytest.raises(ValueError):
                grid.values[0, 0] = 1.0

    def test_run_modes_builds_no_field(self, monkeypatch, tmp_path):
        # guard: run_modes renders from the separable form, never a FieldGrid
        expected = run_modes((-2, 0, 3), astigmatism=2.9, out_dir=tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("run_modes must not build a FieldGrid")

        for module in (oamcv, oamcv.modes, oamcv.cli):
            for name in ("FieldGrid", "lg_field", "tilted_lens_pattern"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        report = run_modes((-2, 0, 3), astigmatism=2.9, out_dir=tmp_path)
        assert json.dumps(report) == json.dumps(expected)


class TestMirror:
    @pytest.mark.parametrize("width,height,extent", MIRROR_GRIDS)
    @pytest.mark.parametrize("l", range(-16, 17))
    def test_images_are_their_mirror_and_read_as_their_values(self, l, width, height, extent,
                                                              tmp_path):
        # the beam's y < 0 rows are its flip, the pattern's ky < 0 rows its 180 degree
        # turn, bit for bit; the raw array quantises every row the grid copies
        beam, pattern = lg_images(l, 2.9, width, height, extent)
        m = max(width, height)
        assert (beam._mirror, pattern._mirror) == ((height // 2, 1), (m // 2, -1))
        for grid in (beam, pattern):
            rows, step = grid._mirror
            flipped = grid.values[::-1, ::step][:rows]
            assert grid.values[:rows].tobytes() == flipped.tobytes()
            for depth in (8, 16):
                write_pgm(tmp_path / "grid.pgm", grid, depth)
                write_pgm(tmp_path / "raw.pgm", grid.values, depth)
                assert (tmp_path / "grid.pgm").read_bytes() == (tmp_path / "raw.pgm").read_bytes()

    def test_grids_built_elsewhere_have_no_mirror(self):
        grids = [IntensityGrid(9, 8, 1.0, np.ones((8, 9))),
                 tilted_lens_pattern(lg_field(LGModeSpec(2), 160, 128, 5.0), 2.0)]
        for grid in grids:
            assert grid._mirror == (0, 1)
        assert "_mirror" not in repr(grids[0])

    @pytest.mark.parametrize("width,height,extent", [*MIRROR_GRIDS, (129, 128, 6.0)])
    def test_window_marginals_are_the_beams(self, width, height, extent, monkeypatch):
        # the window is sized from the factors' marginals, not from the beam's values
        marginals, k_max = [], oamcv.modes._k_max

        def recording(astigmatism, rows, cols, x, y):
            marginals.append((rows, cols, x, y))
            return k_max(astigmatism, rows, cols, x, y)

        monkeypatch.setattr(oamcv.modes, "_k_max", recording)
        eps = np.finfo(float).eps
        for l in range(-16, 17):
            values = lg_images(l, 2.0, width, height, extent)[0].values
            rows, cols, x, y = marginals.pop()
            moment = values.sum(axis=1) @ y ** 2 + values.sum(axis=0) @ x ** 2
            assert rows.sum() == pytest.approx(values.sum(), rel=4 * eps, abs=0.0)
            assert rows @ y ** 2 + cols @ x ** 2 == pytest.approx(moment, rel=4 * eps, abs=0.0)

    def test_dark_field_error_text(self):
        dark = FieldGrid(128, 128, 4.0, np.zeros((128, 128), dtype=complex))
        with pytest.raises(InputError, match=r"^field intensity sum must be positive and finite, "
                                             r"got 0\.0$"):
            tilted_lens_pattern(dark, 2.0)


class TestCountDarkStripes:
    def test_uniform_is_indeterminate(self):
        result = count_dark_stripes(np.ones((64, 64)))
        assert result.indeterminate and result.count == 0

    def test_all_dark_is_indeterminate(self):
        assert count_dark_stripes(np.zeros((64, 64))).indeterminate

    @pytest.mark.parametrize("l", [-5, 0, 3, 5])
    def test_one_sum_is_np_mean_bit_for_bit(self, l):
        # the contrast test takes the mean as the centroid's sum over the size
        for values in (lg_images(l, 2.9)[1].values, lg_images(l, 2.9, 160, 128, 5.0)[0].values.T):
            assert values.sum() / values.size == np.mean(values)

    @pytest.mark.parametrize("bright_columns,expected", [
        (32, StripeCount(0, 0, False)), (33, StripeCount(0, 0, True))])
    def test_contrast_bound_is_inclusive(self, bright_columns, expected):
        # half the image bright is exactly 2:1 peak-to-mean contrast, one column more is less
        values = np.zeros((64, 64))
        values[:, :bright_columns] = 1.0
        assert count_dark_stripes(values) == expected

    @pytest.mark.parametrize("shape", [(8, 8), (9, 13), (64, 65), (257, 255), (300, 31)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_flat_profile_is_the_2d_one_bit_for_bit(self, shape, order):
        rng = np.random.default_rng(sum(shape))
        values = np.asarray(rng.random(shape), order=order)
        for _ in range(3):
            cy, cx = rng.uniform(0.0, shape[0] - 1), rng.uniform(0.0, shape[1] - 1)
            for row_step in (1, -1):
                flat = _diagonal_profile(values, row_step, cy, cx)
                assert flat.tobytes().hex() == \
                    reference_diagonal_profile(values, row_step, cy, cx).tobytes().hex()

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            count_dark_stripes(np.ones((4, 4)))
        with pytest.raises(InputError):
            count_dark_stripes(-np.ones((64, 64)))


class TestIntensityRule:
    def test_caller_arrays_are_copied(self):
        values = np.ones((8, 8))
        grids = (IntensityGrid(8, 8, 1.0, values), FieldGrid(8, 8, 1.0, values))
        values[0, 0] = 5.0
        assert values.flags.writeable
        for grid in grids:
            assert grid.values[0, 0] == 1.0 and not grid.values.flags.writeable

    @pytest.mark.parametrize("bad", [np.full((8, 8), np.nan), -np.ones((8, 8))])
    def test_raw_arrays_are_checked(self, bad, tmp_path):
        entry_points = (count_dark_stripes, lambda a: write_pgm(tmp_path / "x.pgm", a),
                        lambda a: IntensityGrid(8, 8, 1.0, a))
        for entry_point in entry_points:
            with pytest.raises(InputError,
                               match=r"^intensity values must be finite and nonnegative$"):
                entry_point(bad)

    @pytest.mark.parametrize("render,kernel,not_finite", [
        (lambda: tilted_lens_pattern(lg_field(LGModeSpec(1), 128, 128, 4.0), 2.0),
         "_squared_modulus", lambda z, out=None: np.full(z.shape, np.nan)),
        (lambda: lg_images(1, 2.0, 128, 128, 4.0),
         "_moments", lambda k, alpha, order: np.full((order + 1, len(k)), complex(np.nan)))],
        ids=["tilted_lens_pattern", "lg_images"])
    def test_non_finite_computed_grid_is_numerical_error(self, render, kernel, not_finite,
                                                         monkeypatch):
        # a computed pattern that is not finite is the program's fault, not the caller's
        monkeypatch.setattr(oamcv.modes, kernel, not_finite)
        with pytest.raises(NumericalError, match=r"^computed intensity values are not finite$"):
            render()

    @pytest.mark.parametrize("astigmatism", [1.0, 2.0, 2.9])
    @pytest.mark.parametrize("l", range(-5, 6))
    def test_grid_reads_as_its_values(self, l, astigmatism, tmp_path):
        # the peak a grid carries gives the bytes and the count its raw values give
        for grid in lg_images(l, astigmatism):
            for source, name in ((grid, "grid.pgm"), (grid.values, "raw.pgm")):
                write_pgm(tmp_path / name, source)
            assert (tmp_path / "grid.pgm").read_bytes() == (tmp_path / "raw.pgm").read_bytes()
            assert count_dark_stripes(grid) == count_dark_stripes(grid.values)

    @pytest.mark.parametrize("width,height", [(512, 512), (255, 257), (129, 128)])
    @pytest.mark.parametrize("astigmatism", [0.5, 2.0, 2.9, 6.0])
    def test_mirror_route_counts_as_the_centroid_route(self, astigmatism, width, height):
        # a pattern's mirror gives its centre and total; its raw values go through _centroid
        for l in range(-MAX_ABS_CHARGE, MAX_ABS_CHARGE + 1):
            pattern = lg_images(l, astigmatism, width, height, 6.0)[1]
            assert count_dark_stripes(pattern) == count_dark_stripes(pattern.values), l

    @pytest.mark.parametrize("width,height", [(512, 512), (255, 257)])
    def test_centro_grid_reads_its_middle_and_its_total(self, width, height, monkeypatch):
        # the profiles run through exactly the middle, and the contrast test reads the total
        # of every row, the middle row of an odd height once, to rounding
        pattern = lg_images(3, 2.0, width, height, 6.0)[1]
        h, w = pattern.values.shape
        centres, profile = [], oamcv.modes._diagonal_profile
        monkeypatch.setattr(oamcv.modes, "_diagonal_profile", lambda arr, step, cy, cx:
                            centres.append((cy, cx)) or profile(arr, step, cy, cx))
        count_dark_stripes(pattern)
        assert centres == [((h - 1) / 2.0, (w - 1) / 2.0)] * 2
        contrast = pattern._peak / pattern.values.mean()
        for factor, indeterminate in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            monkeypatch.setattr(oamcv.modes, "MIN_CONTRAST", contrast * factor)
            assert count_dark_stripes(pattern).indeterminate is indeterminate

    def test_only_a_centro_mirror_skips_the_centroid(self, monkeypatch):
        calls, centroid = [], oamcv.modes._centroid
        monkeypatch.setattr(oamcv.modes, "_centroid",
                            lambda *args: calls.append(1) or centroid(*args))
        beam, pattern = lg_images(3, 2.0, 255, 257, 6.0)
        count_dark_stripes(pattern)
        assert calls == []
        caller_built = IntensityGrid(pattern.width, pattern.height, pattern.extent,
                                     pattern.values)
        assert caller_built._mirror == (0, 1)
        for intensity in (caller_built, pattern.values, beam):
            count_dark_stripes(intensity)
        assert len(calls) == 3

    def test_carried_peak_is_the_maximum(self):
        values = np.random.default_rng(3).random((8, 9))
        grids = [IntensityGrid(9, 8, 1.0, values), IntensityGrid(8, 8, 1.0, np.zeros((8, 8))),
                 *lg_images(-4, 2.9, 255, 257, 6.0),
                 tilted_lens_pattern(lg_field(LGModeSpec(2), 160, 128, 5.0), 2.0)]
        for grid in grids:
            assert type(grid._peak) is float and grid._peak == grid.values.max()
        assert "_peak" not in repr(grids[0])

    def test_grid_values_are_not_scanned_again(self, monkeypatch, tmp_path):
        pattern = tilted_lens_pattern(lg_field(LGModeSpec(2), 128, 128, 4.0), 2.0)
        scans = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *args: scans.append(1) or real(*args))
        count_dark_stripes(pattern)
        write_pgm(tmp_path / "grid.pgm", pattern)
        assert scans == []
        count_dark_stripes(pattern.values)
        write_pgm(tmp_path / "raw.pgm", pattern.values)
        assert len(scans) == 2


class TestPgm:
    def test_filename_pattern(self):
        assert mode_image_filename(-2, "tilted") == "mode_l-2_tilted.pgm"
        assert mode_image_filename(0, "beam") == "mode_l0_beam.pgm"

    def test_eight_bit(self, tmp_path):
        intensity = lg_field(LGModeSpec(1), width=128, height=96, extent=4.0).intensity()
        path = tmp_path / "out.pgm"
        write_pgm(path, intensity, bit_depth=8)
        data = path.read_bytes()
        header, payload = data.split(b"\n255\n", 1)
        assert header == b"P5\n128 96"
        assert len(payload) == 128 * 96
        assert max(payload) == 255  # peak maps to maxval

    def test_sixteen_bit_big_endian(self, tmp_path):
        intensity = lg_field(LGModeSpec(1), width=128, height=128, extent=4.0).intensity()
        path = tmp_path / "out16.pgm"
        write_pgm(path, intensity, bit_depth=16)
        data = path.read_bytes()
        header, payload = data.split(b"\n65535\n", 1)
        assert header == b"P5\n128 128"
        assert len(payload) == 2 * 128 * 128
        samples = np.frombuffer(payload, dtype=">u2")
        assert samples.max() == 65535

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_blocked_samples_match_the_whole_image(self, tmp_path, bit_depth):
        # several row blocks, a lone last row, and a transposed (Fortran-ordered) grid
        values = np.random.default_rng(7).random((3 * _BLOCK_ROWS + 1, 45))
        maxval, dtype = _PGM_SAMPLES[bit_depth]
        for arr in (values, values.T):
            write_pgm(tmp_path / "x.pgm", arr, bit_depth=bit_depth)
            samples = np.round(arr / arr.max() * maxval).astype(dtype)
            header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
            assert (tmp_path / "x.pgm").read_bytes() == header + samples.tobytes()

    def test_zero_image(self, tmp_path):
        path = tmp_path / "dark.pgm"
        write_pgm(path, np.zeros((8, 8)), bit_depth=8)
        payload = path.read_bytes().split(b"\n255\n", 1)[1]
        assert payload == bytes(64)

    def test_rejects_bad_depth(self, tmp_path):
        with pytest.raises(InputError):
            write_pgm(tmp_path / "x.pgm", np.ones((8, 8)), bit_depth=12)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_rejects_an_empty_side_before_opening_the_file(self, tmp_path, shape):
        path = tmp_path / "empty.pgm"
        with pytest.raises(InputError, match=r"^intensity must be a 2-D grid of at least 1x1 "):
            write_pgm(path, np.zeros(shape))
        assert not path.exists()


class TestWriteFile:
    PARTS = (b"P5\n3 1\n65535\n", np.array([0, 258, 65535], dtype=">u2"), memoryview(b"end"))
    CONTENT = b"P5\n3 1\n65535\n\x00\x00\x01\x02\xff\xffend"

    def test_parts_are_the_whole_content(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"a longer file than the parts" * 10)
        _write_file(path, *self.PARTS)
        assert path.read_bytes() == self.CONTENT

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(real(fd, bytes(data)[:4]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        _write_file(tmp_path / "out.bin", *self.PARTS)
        assert (tmp_path / "out.bin").read_bytes() == self.CONTENT
        assert sum(sizes) == len(self.CONTENT) and max(sizes) == 4

    def test_mode_is_open_s(self, tmp_path):
        with open(tmp_path / "opened", "wb") as file:
            file.write(b"x")
        _write_file(tmp_path / "written", b"x")
        assert (tmp_path / "written").stat().st_mode == (tmp_path / "opened").stat().st_mode

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_bad_path_is_os_error(self, where, tmp_path):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.pgm"
        with pytest.raises(OSError):
            write_pgm(path, np.ones((8, 8)))
