"""Golden outputs: SHA-256 of the command outputs for the presets.

The hashes pin the exact bytes of the sweep CSVs, threshold JSON, one small
tomography run and the modes images, so a refactor or a faster path that
changes any output digit fails here.  An intended change to an output is
re-pinned together with a note of its reason in CHANGES.md.
"""

import hashlib
import inspect
import json
import os
import warnings

import pytest

from oamcv.cli import EXIT_OK, main
from oamcv.modes import (count_dark_stripes, lg_field, lg_images, mode_image_filename,
                         tilted_lens_pattern, write_pgm)
from conftest import run_child

SWEEP = {
    "fig2c": "f8b9e871fdaff18d3059d1f82f9b0400d7ab26beddd6a4e3f4953d810934be52",
    "fig3": "4a36e4dbfed38ea0638f45a6bca1d68f42cdb74bb66149f13591e12616e6ee24",
    "fig4": "6308e299853ca3290a4b208dc1d254f86df77a00c97416efc6d7a255916b3e29",
}
THRESHOLDS = {
    "fig2c": "be0b17ad402e2aa0c3b528e0e223cf4d5bfb391bc4015c3d803499bd03999f86",
    "fig3": "41753346393268beeec56fd6e72ad519d2f04e4fcda160a16f72717e94252fbc",
    "fig4": "0bca16ae8ee33069b198e92543dcf0b57132fc76afc4d626148f84d2aa618589",
}
TOMO = "0de12d420223d4b93353474275428050e9a3cfccd3b5a34265a0339061dbd9c6"
TOMO_ARGS = ["tomo", "--eta-step", "0.5", "--n", "1000"]
# three samples per setting: of the 84 reconstructions 56 are not positive
# definite (criteria_error), 26 are unphysical with criteria, 2 are physical
TOMO_ERRORS = "5235dc5a175cb5c8088bde57999fef362194b0dc65940e8b9db215379af4d772"
TOMO_ERRORS_ARGS = ["tomo", "--charges", "0,1", "--delta", "0,1", "--eta-step", "0.05",
                    "--n", "3", "--seed", "3"]
MODES = {
    "mode_l-2_beam.pgm": "89e2cc6211e9783fbe5654bde4501befe6d37768722eb53faa3f4774b8c700f1",
    "mode_l-2_tilted.pgm": "12fa7c817e13e4a902771c0f676eb1c490d39c86ddd3f8e74e98868a93b6a0c0",
    "mode_l-1_beam.pgm": "3a11e9e7afc6ad2807a9658160e28f4b215510b5b871d7fda1adc823e273d2e0",
    "mode_l-1_tilted.pgm": "0e21dc64b5cd530f7adc80588b857e82f91154f4c60e0a94dc1bc68f94b80c27",
    "mode_l0_beam.pgm": "bc08f187415b0040fbe08dd858ee8eabba3c500857978c13abbc87c262acf376",
    "mode_l0_tilted.pgm": "c30c631e5919ce1a8850e3e93ef0b7233893372c953761bc89d6fabe28e51191",
    "mode_l1_beam.pgm": "3a11e9e7afc6ad2807a9658160e28f4b215510b5b871d7fda1adc823e273d2e0",
    "mode_l1_tilted.pgm": "7cbbe53edb393586a32eabfcede066466bb59059dffe6d1bd0853119c5309f20",
    "mode_l2_beam.pgm": "89e2cc6211e9783fbe5654bde4501befe6d37768722eb53faa3f4774b8c700f1",
    "mode_l2_tilted.pgm": "cbd174562778863b9883cff1dc2a98a66ede6357cc1a6f9d7f313950076245fa",
    "stripes.json": "9c31b09dc8ae343fa24b9772b3a1ec857e8b6d25e5aea39607a924671c1a356b",
}
# higher charges at an off-default astigmatism, recorded in 16 and 8 bits
MODES_HIGH_CHARGE = {
    16: {
        "mode_l-5_beam.pgm": "9d4a022a81390486ec864cad6263c832635feee69d65ae6d60e15dbab746c8c4",
        "mode_l-5_tilted.pgm": "f602b3c0817f4b226bb1ff46e5a04c6319344858976ab976a51911c99c3b4439",
        "mode_l3_beam.pgm": "1d6241262fff9613d9fed6d639b847da95a5cc868e563e98a8db514e48a5fb0d",
        "mode_l3_tilted.pgm": "7bd40d9457cd65360b0bcc3dd7dfc0df57d03e142f89d3ce1ffc3d14b65bbade",
        "mode_l5_beam.pgm": "9d4a022a81390486ec864cad6263c832635feee69d65ae6d60e15dbab746c8c4",
        "mode_l5_tilted.pgm": "1e45d424f0bc828e4e70b32d6677f6b45cffc4d7641674e28fde7f424b3abe53",
        "stripes.json": "dc9ce3e94d5a2a9eee2ec4deeac85759f4d368623dff92a6e86cbea283cdf15a",
    },
    8: {
        "mode_l-5_beam.pgm": "d56099eb8fce3ba12ee355c3d1c18569ef64896c6f1544757c22d6766467c2e9",
        "mode_l-5_tilted.pgm": "06d3568b01fe979c77846804792e00496b0a290444d76cc947ff061e074b5081",
        "mode_l3_beam.pgm": "44ccadbcda6bfd951cc91227cc8cbc526d0b9b884102daf9aefcf369b28e4c84",
        "mode_l3_tilted.pgm": "699c0ac282bdf04d90d75ba78edda1df8de54d1dc5b3a58040048e3838c04fbc",
        "mode_l5_beam.pgm": "d56099eb8fce3ba12ee355c3d1c18569ef64896c6f1544757c22d6766467c2e9",
        "mode_l5_tilted.pgm": "7cf7b4404c028c3b912e419f24c252779bb09ea05f26cadba980e439de7770a6",
        "stripes.json": "dc9ce3e94d5a2a9eee2ec4deeac85759f4d368623dff92a6e86cbea283cdf15a",
    },
}

# the grid DFT route, lg_field + tilted_lens_pattern, writes the same tilted
# PGMs as the closed form that `modes` takes; one odd, non-square grid too
GRID_ROUTE = {name: MODES[name] for name in MODES if name.endswith("_tilted.pgm")}
GRID_ROUTE["grid_l3_255x257.pgm"] = \
    "9bbbd9094b3d0b7e47ec435846c52957680c8a4711a6599c810f6f7037189362"
# lg_images beyond the presets: every charge at three astigmatisms on two odd
# grids, one sha256 over both images' PGMs at 8 and 16 bits and each pattern's
# stripe count
MODES_FAMILY = "5c8856a2a53d92c0cb4a0a2e26b845d1a37a3a5c46938052de1f18f0388efefe"


def write_grid_route_pgms(out_dir) -> None:
    """The GRID_ROUTE images, by lg_field and tilted_lens_pattern, in out_dir."""
    for l in range(-2, 3):
        write_pgm(os.path.join(out_dir, mode_image_filename(l, "tilted")),
                  tilted_lens_pattern(lg_field(l), 2.0))
    write_pgm(os.path.join(out_dir, "grid_l3_255x257.pgm"),
              tilted_lens_pattern(lg_field(3, 255, 257, 6.0), 2.9))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv, capsys):
    assert main(argv) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("preset", sorted(SWEEP))
def test_sweep_csv(preset, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run(["sweep", "--preset", preset, "--out", str(out)], capsys)
    assert sha256(out) == SWEEP[preset]


@pytest.mark.parametrize("preset", sorted(THRESHOLDS))
def test_thresholds_json(preset, tmp_path, capsys):
    out = tmp_path / "thresholds.json"
    run(["thresholds", "--preset", preset, "--out", str(out)], capsys)
    assert sha256(out) == THRESHOLDS[preset]


def test_tomo_json(tmp_path, capsys):
    out = tmp_path / "tomo.json"
    run([*TOMO_ARGS, "--out", str(out)], capsys)
    assert sha256(out) == TOMO


def test_tomo_json_failing_reconstructions(tmp_path, capsys):
    out = tmp_path / "tomo.json"
    run([*TOMO_ERRORS_ARGS, "--out", str(out)], capsys)
    assert sha256(out) == TOMO_ERRORS


def test_modes_images(tmp_path, capsys):
    run(["modes", "--charges=-2,-1,0,1,2", "--out", str(tmp_path)], capsys)
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == MODES


@pytest.mark.parametrize("depth", sorted(MODES_HIGH_CHARGE))
def test_modes_images_high_charge(depth, tmp_path, capsys):
    run(["modes", "--charges=-5,3,5", "--astigmatism", "2.9", "--depth", str(depth),
         "--out", str(tmp_path)], capsys)
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == MODES_HIGH_CHARGE[depth]


def test_grid_route_images(tmp_path):
    write_grid_route_pgms(tmp_path)
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == GRID_ROUTE


def test_modes_family_images(tmp_path):
    digest, path = hashlib.sha256(), tmp_path / "image.pgm"
    for width, height in ((255, 257), (129, 128)):
        for astigmatism in (0.5, 2.0, 6.0):
            for l in range(-16, 17):
                beam, pattern = lg_images(l, astigmatism, width, height, 6.0)
                for grid in (beam, pattern):
                    for depth in (8, 16):
                        write_pgm(path, grid, depth)
                        digest.update(path.read_bytes())
                digest.update(repr(count_dark_stripes(pattern)).encode())
    assert digest.hexdigest() == MODES_FAMILY


# the golden commands once more in a fresh interpreter, on the generic
# OpenBLAS kernels and without numpy's AVX2/AVX-512 dispatch
KERNEL_ENV = {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "1",
              "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

# runs the commands given as JSON in argv[1] and writes the GRID_ROUTE images
# to argv[3], then writes the exit codes, the active OpenBLAS core and thread
# count and numpy's CPU features to argv[2]
KERNEL_CHILD = """
codes = [main(argv) for argv in json.loads(sys.argv[1])]
write_grid_route_pgms(sys.argv[3])
core, threads = openblas_config()
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "core": core, "threads": threads,
               "features": cpu_features()}, fh)
"""

# lg_images cases whose beam and pattern floats are hashed at each thread count
THREAD_CHARGES = (-16, -5, 0, 1, 3, 16)
THREAD_GRIDS = ((512, 512, 6.0), (255, 257, 6.0), (160, 128, 5.0))

# runs the commands given as JSON in argv[1], then writes the exit codes, the
# active OpenBLAS thread count and one sha256 over the float values of every
# lg_images case to argv[2]
THREAD_CHILD = f"""
codes = [main(argv) for argv in json.loads(sys.argv[1])]
digest = hashlib.sha256()
for l in {THREAD_CHARGES!r}:
    for width, height, extent in {THREAD_GRIDS!r}:
        for grid in lg_images(l, 2.9, width, height, extent):
            digest.update(grid.values.tobytes())
with open(sys.argv[2], "w") as fh:
    json.dump({{"codes": codes, "threads": openblas_config()[1],
               "images": digest.hexdigest()}}, fh)
"""

CHILD_IMPORTS = """
import hashlib, json, os, sys
from oamcv.cli import main
from oamcv.modes import (lg_field, lg_images, mode_image_filename, tilted_lens_pattern,
                         write_pgm)
"""


def openblas_config() -> tuple:
    """(core name, thread count) of the OpenBLAS that numpy loaded; None for each if not found."""
    import ctypes
    import glob

    import numpy

    base = os.path.dirname(os.path.dirname(numpy.__file__))
    libs = glob.glob(os.path.join(base, "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(base, "numpy", ".dylibs", "*openblas*"))
    core = threads = None
    for lib in map(ctypes.CDLL, libs):
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            corename = getattr(lib, prefix + "get_corename" + suffix, None)
            if corename is not None:
                num_threads = getattr(lib, prefix + "get_num_threads" + suffix)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                num_threads.argtypes, num_threads.restype = [], ctypes.c_int
                core, threads = corename().decode(), num_threads()
    return core, threads


def child_source(body: str) -> str:
    """A child interpreter's program: the imports, the helpers it calls, then body."""
    helpers = (cpu_features, openblas_config, write_grid_route_pgms)
    return CHILD_IMPORTS + "".join(map(inspect.getsource, helpers)) + body


def cpu_features() -> dict:
    """numpy's runtime CPU feature flags."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return dict(__cpu_features__)


def test_golden_hashes_on_generic_cpu_kernels(tmp_path):
    sweep, tomo, modes = tmp_path / "sweep.csv", tmp_path / "tomo.json", tmp_path / "modes"
    grid = tmp_path / "grid"
    grid.mkdir()
    commands = [["sweep", "--preset", "fig3", "--out", str(sweep)],
                [*TOMO_ARGS, "--out", str(tomo)],
                ["modes", "--charges=-5,3,5", "--astigmatism", "2.9", "--out", str(modes)]]
    report = tmp_path / "report.json"
    run_child(child_source(KERNEL_CHILD), KERNEL_ENV, json.dumps(commands), report, grid)
    facts = json.loads(report.read_text())
    assert facts["codes"] == [EXIT_OK] * 3
    assert sha256(sweep) == SWEEP["fig3"]
    assert sha256(tomo) == TOMO
    assert {p.name: sha256(p) for p in modes.iterdir()} == MODES_HIGH_CHARGE[16]
    assert {p.name: sha256(p) for p in grid.iterdir()} == GRID_ROUTE
    # a variable that changed nothing makes this pass no proof for those kernels
    if facts["core"] != KERNEL_ENV["OPENBLAS_CORETYPE"]:
        warnings.warn(f"OPENBLAS_CORETYPE had no effect: active core {facts['core']!r}")
    if facts["threads"] != 1:
        warnings.warn(f"OPENBLAS_NUM_THREADS had no effect: {facts['threads']!r} threads")
    disabled = KERNEL_ENV["NPY_DISABLE_CPU_FEATURES"].split()
    if not any(cpu_features().get(name) and not facts["features"].get(name) for name in disabled):
        warnings.warn(f"NPY_DISABLE_CPU_FEATURES had no effect: none of {disabled} was enabled")


def test_modes_at_one_and_two_blas_threads(tmp_path):
    # on the native kernels: every modes golden hash, the fig3 sweep and both
    # tomo goldens, and the same lg_images floats bit for bit, at 1 and 2
    # OpenBLAS threads.  The grid route's floats, lg_field + tilted_lens_pattern,
    # are not the same at 1 and 2 threads; its PGM bytes are (GRID_ROUTE).
    images = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        out.mkdir()
        commands = [["modes", "--charges=-2,-1,0,1,2", "--out", str(out / "modes")]]
        commands += [["modes", "--charges=-5,3,5", "--astigmatism", "2.9", "--depth", str(depth),
                      "--out", str(out / str(depth))] for depth in sorted(MODES_HIGH_CHARGE)]
        commands += [["sweep", "--preset", "fig3", "--out", str(out / "sweep.csv")],
                     [*TOMO_ARGS, "--out", str(out / "tomo.json")],
                     [*TOMO_ERRORS_ARGS, "--out", str(out / "tomo_errors.json")]]
        report = tmp_path / f"report{threads}.json"
        run_child(child_source(THREAD_CHILD), {"OPENBLAS_NUM_THREADS": str(threads)},
                  json.dumps(commands), report)
        facts = json.loads(report.read_text())
        assert facts["codes"] == [EXIT_OK] * len(commands)
        assert sha256(out / "sweep.csv") == SWEEP["fig3"]
        assert sha256(out / "tomo.json") == TOMO
        assert sha256(out / "tomo_errors.json") == TOMO_ERRORS
        assert {p.name: sha256(p) for p in (out / "modes").iterdir()} == MODES
        for depth, expected in MODES_HIGH_CHARGE.items():
            assert {p.name: sha256(p) for p in (out / str(depth)).iterdir()} == expected
        if facts["threads"] != threads:
            warnings.warn(f"OPENBLAS_NUM_THREADS={threads} had no effect: "
                          f"{facts['threads']!r} threads")
        images[threads] = facts["images"]
    assert images[1] == images[2]
