"""CLI behavior: stages, exit codes, reports, and reproducibility."""

import hashlib
import os
import random
import stat
import struct
import threading
import warnings

import numpy as np
import pytest

from insarmap import cli, formats
from insarmap.errors import DataFormatError

CONFIG = """
center_frequency_hz = 77.4e9
ramp_slope_hz_per_s = 30e12
samples_per_chirp = 64
sample_rate_sps = 18.75e6
pri_s = 63.9e-6
chirps_per_tx_per_frame = 256
num_tx = 3
per_sample_snr_db = 25
grid_origin_m = (-0.8, 3.2)
grid_extent_m = (1.6, 2.4)
pixel_size_m = 0.04
aperture_length_m = 0.1
sensor_height_m = 0.4
snr_threshold_db = 15
"""

SCENE = """x,y,z,amplitude
0.0,4.0,0.4,1.0
-0.3,4.6,0.9,1.0
"""

TRAJ = """t,x,y,z,qw,qx,qy,qz
-0.02,-0.1,0,0.4,1,0,0,0
0.02,0.1,0,0.4,1,0,0,0
"""

# an integer literal beyond float's range
HUGE_INT = str(10**400)


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "radar.cfg").write_text(CONFIG)
    (tmp_path / "scene.csv").write_text(SCENE)
    (tmp_path / "traj.csv").write_text(TRAJ)
    return tmp_path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_end_to_end(workdir, capsys):
    out = workdir / "run"
    code = cli.main(
        [
            "--seed", "7",
            "pipeline",
            str(workdir / "scene.csv"),
            str(workdir / "traj.csv"),
            "--config", str(workdir / "radar.cfg"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    for name in ("capture.insarraw", "stack.insarimg", "elevation.insarelv", "cloud.pcd", "cloud.csv"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "12 VX" in text
    assert "peak |I|" in text
    assert "[filter] kept:" in text
    assert "[filter] candidates:" in text
    assert "[pipeline] stage pointcloud" in text

    # the cloud contains a cluster at each simulated reflector
    rows = np.loadtxt(out / "cloud.csv", delimiter=",", skiprows=1)
    x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
    for tx, ty, tz in ((0.0, 4.0, 0.4), (-0.3, 4.6, 0.9)):
        rel_z = tz - 0.4  # sensor height in the demo config
        slant = np.hypot(ty, rel_z)
        near = (np.abs(x - tx) < 0.2) & (np.abs(np.hypot(y, z) - slant) < 0.2)
        assert near.sum() >= 1


def test_pipeline_reproducible_and_equals_staged_runs(workdir, capsys):
    args = [
        "--seed", "3",
        "pipeline",
        str(workdir / "scene.csv"),
        str(workdir / "traj.csv"),
        "--config", str(workdir / "radar.cfg"),
    ]
    assert cli.main(args + ["--out-dir", str(workdir / "a")]) == 0
    assert cli.main(args + ["--out-dir", str(workdir / "b")]) == 0
    for name in ("capture.insarraw", "stack.insarimg", "elevation.insarelv", "cloud.pcd"):
        assert sha256(workdir / "a" / name) == sha256(workdir / "b" / name)

    # running the four stages by hand on the intermediate files matches too
    c = workdir / "c"
    c.mkdir()
    cfg = str(workdir / "radar.cfg")
    assert cli.main(
        ["--seed", "3", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", cfg, "-o", str(c / "capture.insarraw")]
    ) == 0
    assert cli.main(
        ["image", str(c / "capture.insarraw"), "--config", cfg, "-o", str(c / "stack.insarimg")]
    ) == 0
    assert cli.main(
        ["elevate", str(c / "stack.insarimg"), "-o", str(c / "elevation.insarelv")]
    ) == 0
    assert cli.main(
        ["pointcloud", str(c / "elevation.insarelv"), "--config", cfg, "-o", str(c / "cloud.pcd")]
    ) == 0
    for name in ("capture.insarraw", "stack.insarimg", "elevation.insarelv", "cloud.pcd"):
        assert sha256(workdir / "a" / name) == sha256(c / name)
    capsys.readouterr()


def test_global_config_flag_placement(workdir, capsys):
    out = workdir / "g.insarraw"
    code = cli.main(
        ["--config", str(workdir / "radar.cfg"), "--seed", "9",
         "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"), "-o", str(out)]
    )
    assert code == 0
    assert out.exists()
    capsys.readouterr()


def test_simulate_summary_and_seeded_hash(workdir, capsys):
    out1 = workdir / "c1.insarraw"
    args = [
        "--seed", "9", "simulate",
        str(workdir / "scene.csv"), str(workdir / "traj.csv"),
        "--config", str(workdir / "radar.cfg"),
    ]
    assert cli.main(args + ["-o", str(out1)]) == 0
    assert "pulses:" in capsys.readouterr().out
    out2 = workdir / "c2.insarraw"
    assert cli.main(args + ["-o", str(out2)]) == 0
    assert sha256(out1) == sha256(out2)


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_negative_seed_is_a_config_error(workdir, capsys, command):
    # numpy's generator refuses it; the run stops before a capture is written
    out = workdir / "run"
    target = ["-o", str(out / "capture.insarraw")] if command == "simulate" else ["--out-dir", str(out)]
    out.mkdir()
    code = cli.main(
        ["--seed", "-1", command, str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg")] + target
    )
    assert code == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (out / "capture.insarraw").exists()


def test_empty_scene_is_a_parse_error(workdir, capsys):
    (workdir / "empty.csv").write_text("")
    code = cli.main(
        ["simulate", str(workdir / "empty.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "x.insarraw")]
    )
    assert code == 2
    assert "empty.csv" in capsys.readouterr().err


def test_speed_warning_printed(workdir, capsys):
    (workdir / "fast.csv").write_text(
        "t,x,y,z,qw,qx,qy,qz\n-0.02,-0.24,0,0.4,1,0,0,0\n0.02,0.24,0,0.4,1,0,0,0\n"
    )
    code = cli.main(
        ["simulate", str(workdir / "scene.csv"), str(workdir / "fast.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "f.insarraw")]
    )
    assert code == 0
    assert "exceeds" in capsys.readouterr().err


def test_corrupt_capture_is_a_format_error(workdir, capsys):
    bad = workdir / "bad.insarraw"
    bad.write_bytes(b"INSARRAW" + b"\x01\x00\x00\x00" + b"\x00" * 10)
    code = cli.main(["image", str(bad), "--config", str(workdir / "radar.cfg"),
                     "-o", str(workdir / "s.insarimg")])
    assert code == 3
    assert "truncated" in capsys.readouterr().err


def test_wrong_artifact_type_is_a_format_error(workdir, capsys):
    out = workdir / "run"
    assert cli.main(
        ["--seed", "1", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "cap.insarraw")]
    ) == 0
    code = cli.main(["elevate", str(workdir / "cap.insarraw"), "-o", str(workdir / "m.insarelv")])
    assert code == 3
    capsys.readouterr()


def test_bad_grid_config_exit_code(workdir, capsys):
    (workdir / "badgrid.cfg").write_text(CONFIG + "pixel_size_m = -1\n")
    assert cli.main(
        ["--seed", "1", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "cap.insarraw")]
    ) == 0
    code = cli.main(["image", str(workdir / "cap.insarraw"),
                     "--config", str(workdir / "badgrid.cfg"), "-o", str(workdir / "s.insarimg")])
    assert code == 2
    capsys.readouterr()


def test_infinite_snr_threshold_empties_cloud(workdir, capsys):
    out = workdir / "run"
    assert cli.main(
        ["--seed", "5", "pipeline", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "--out-dir", str(out)]
    ) == 0
    capsys.readouterr()
    (workdir / "strict.cfg").write_text(CONFIG + "snr_threshold_db = inf\n")
    code = cli.main(
        ["pointcloud", str(out / "elevation.insarelv"), "--config", str(workdir / "strict.cfg"),
         "-o", str(workdir / "none.pcd")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "kept: 0" in text
    assert "(100.0%)" in text
    pcd = (workdir / "none.pcd").read_text().splitlines()
    assert "WIDTH 0" in pcd and "POINTS 0" in pcd


def test_report_subcommand(workdir, capsys):
    out = workdir / "run"
    assert cli.main(
        ["--seed", "5", "pipeline", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "--out-dir", str(out)]
    ) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out / "elevation.insarelv"),
                     "--config", str(workdir / "radar.cfg")]) == 0
    text = capsys.readouterr().out
    assert "[filter] candidates:" in text
    assert "[filter] kept:" in text


def test_pgm_dump(workdir, capsys):
    assert cli.main(
        ["--seed", "2", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "cap.insarraw")]
    ) == 0
    pgm_dir = workdir / "pgms"
    assert cli.main(
        ["image", str(workdir / "cap.insarraw"), "--config", str(workdir / "radar.cfg"),
         "-o", str(workdir / "s.insarimg"), "--pgm-dir", str(pgm_dir)]
    ) == 0
    capsys.readouterr()
    files = sorted(pgm_dir.glob("vx*.pgm"))
    assert len(files) == 12
    assert files[0].read_bytes().startswith(b"P5\n")


def test_pgm_dir_that_cannot_be_made_leaves_the_output_as_it_was(workdir, capsys):
    # the PGMs are written before the stack replaces -o; a --pgm-dir that
    # is a file used to fail the stage after -o was replaced
    assert cli.main(
        ["--seed", "2", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "cap.insarraw")]
    ) == 0
    out = workdir / "s.insarimg"
    out.write_bytes(b"an earlier stack")
    taken = workdir / "taken"
    taken.write_bytes(b"a file")
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    argv = ["image", str(workdir / "cap.insarraw"), "--config", str(workdir / "radar.cfg"), "-o", str(out)]
    assert cli.main(argv + ["--pgm-dir", str(taken)]) == 2
    assert "[Errno 17] File exists" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier stack"
    assert sorted(workdir.iterdir()) == before
    # once the folder can be made, the report's lines keep their order
    assert cli.main(argv + ["--pgm-dir", str(workdir / "pgms")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["wrote", "12", "dumped"]
    assert len(list((workdir / "pgms").glob("vx*.pgm"))) == 12


@pytest.mark.parametrize("pgm_dir", ["s.insarimg", "s.insarimg/pgm", "link/pgm"])
def test_pgm_dir_in_the_output_is_a_config_error(workdir, capsys, pgm_dir):
    # the stage used to make -o a folder, write the PGMs into it, and only
    # then fail to replace it with the stack
    capture = simulate_capture(workdir)
    (workdir / "link").symlink_to(workdir / "s.insarimg")
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    argv = ["image", str(capture), "--config", str(workdir / "radar.cfg"), "-o", str(workdir / "s.insarimg")]
    assert cli.main(argv + ["--pgm-dir", str(workdir / pgm_dir)]) == 2
    assert "is or lies in the -o output" in capsys.readouterr().err
    assert sorted(workdir.iterdir()) == before
    # a folder whose name only begins with the output's is no part of it
    assert cli.main(argv + ["--pgm-dir", str(workdir / "s.insarimg-pgm")]) == 0
    assert len(list((workdir / "s.insarimg-pgm").glob("vx*.pgm"))) == 12


def test_elevate_without_baselines_is_a_domain_error(workdir, capsys):
    (workdir / "flat.cfg").write_text(
        CONFIG + "tx_positions_m = [(0, 0, 0)]\nrx_positions_m = [(0, 0, 0)]\nnum_tx = 1\n"
    )
    assert cli.main(
        ["--seed", "1", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "flat.cfg"), "-o", str(workdir / "cap1.insarraw")]
    ) == 0
    assert cli.main(
        ["image", str(workdir / "cap1.insarraw"), "--config", str(workdir / "flat.cfg"),
         "-o", str(workdir / "s1.insarimg")]
    ) == 0
    code = cli.main(["elevate", str(workdir / "s1.insarimg"), "-o", str(workdir / "m1.insarelv")])
    assert code == 4
    assert "baseline" in capsys.readouterr().err


def run_pipeline(workdir, config, seed=1):
    out = workdir / "run"
    return out, cli.main(
        ["--seed", str(seed), "pipeline", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(config), "--out-dir", str(out)]
    )


def patch(path, offset, fmt, *values):
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, *values)
    path.write_bytes(bytes(data))


# Header offsets for the 3 TX + 4 RX default array: INSARRAW's u64 record
# count, and the grid extents plus plane dimensions of INSARIMG / INSARELV.
RAW_COUNT = 12 + 44 + 8 + 7 * 24
GRID_EXTENT = 12 + 16
IMG_DIMS = 12 + 40 + 16 + 24 + 8 + 7 * 24
ELV_DIMS = 12 + 40 + 24 + 16


@pytest.mark.parametrize(
    "artifact, patches, argv",
    [
        ("capture.insarraw", [(RAW_COUNT, "<Q", 10**12)], ["image", "--config", "CFG", "-o", "OUT"]),
        ("stack.insarimg", [(IMG_DIMS, "<III", 12, 100_000, 100_000)], ["elevate", "-o", "OUT"]),
        ("elevation.insarelv", [(ELV_DIMS, "<II", 100_000, 100_000)], ["report", "--config", "CFG"]),
    ],
)
def test_oversized_header_is_a_format_error(workdir, capsys, artifact, patches, argv):
    # a header declaring far more data than the file holds (100 000 x
    # 100 000 px, or 10^12 records) must fail on the byte count before
    # allocating, and before the dims are compared with the grid
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / artifact
    for offset, fmt, *values in patches:
        patch(path, offset, fmt, *values)
    names = {"CFG": str(workdir / "radar.cfg"), "OUT": str(workdir / "out.bin")}
    capsys.readouterr()
    code = cli.main([argv[0], str(path)] + [names.get(a, a) for a in argv[1:]])
    assert code == 3
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact, argv",
    [("stack.insarimg", ["elevate", "-o", "OUT"]), ("elevation.insarelv", ["report", "--config", "CFG"])],
)
def test_header_grid_over_the_pixel_cap_is_a_format_error(workdir, capsys, artifact, argv):
    # a 4 000 m grid at 4 cm pixels is 10^10 px, over ImageGrid's cap
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / artifact
    patch(path, GRID_EXTENT, "<2d", 4000.0, 4000.0)
    names = {"CFG": str(workdir / "radar.cfg"), "OUT": str(workdir / "out.bin")}
    capsys.readouterr()
    code = cli.main([argv[0], str(path)] + [names.get(a, a) for a in argv[1:]])
    assert code == 3
    assert "pixels exceeds the cap" in capsys.readouterr().err


def test_non_finite_capture_sample_is_a_format_error(workdir, capsys):
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "capture.insarraw"
    (n_records,) = struct.unpack_from("<Q", path.read_bytes(), RAW_COUNT)
    record_bytes = 84 + 8 * 64  # columns and pose, then 64 complex64 samples
    middle = n_records // 2  # inside the aperture
    patch(path, RAW_COUNT + 8 + middle * record_bytes + 84, "<f", float("nan"))
    capsys.readouterr()
    code = cli.main(["image", str(path), "--config", str(workdir / "radar.cfg"),
                     "-o", str(workdir / "s.insarimg")])
    assert code == 3
    assert f"record {middle} holds non-finite samples" in capsys.readouterr().err


def test_non_finite_sample_outside_the_aperture_does_not_stop_image(workdir, capsys):
    # image reads the samples of only the records its aperture images, so a
    # damaged sample elsewhere is never read; reading every sample refuses it
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "capture.insarraw"
    patch(path, RAW_COUNT + 8 + 84, "<f", float("nan"))  # record 0, 5 cm before the aperture
    capsys.readouterr()
    code = cli.main(["image", str(path), "--config", str(workdir / "radar.cfg"),
                     "-o", str(workdir / "s.insarimg")])
    assert code == 0
    assert (workdir / "s.insarimg").read_bytes() == (out / "stack.insarimg").read_bytes()
    with pytest.raises(DataFormatError, match="record 0 holds non-finite samples"):
        np.asarray(formats.read_capture(path).samples)


def test_non_finite_image_pixel_is_a_format_error(workdir, capsys):
    # one NaN pixel in VX 0 used to empty the cloud at exit 0 (the SNR
    # map's median turned NaN); NaN elevation in INSARELV stays legal
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "stack.insarimg"
    n_u, n_v = struct.unpack_from("<II", path.read_bytes(), IMG_DIMS + 4)
    patch(path, IMG_DIMS + 12 + 8 * (n_u * n_v // 2), "<f", float("nan"))
    capsys.readouterr()
    code = cli.main(["elevate", str(path), "-o", str(workdir / "m.insarelv")])
    assert code == 3
    assert "VX 0 image holds non-finite pixels" in capsys.readouterr().err


def test_damaged_stack_pixel_stops_elevate_naming_the_file(workdir, capsys):
    # the planes are read a block of rows at a time, so a pixel in the last
    # block of VX 7 is found only when elevate reaches it
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "stack.insarimg"
    n_u, n_v = struct.unpack_from("<II", path.read_bytes(), IMG_DIMS + 4)
    patch(path, IMG_DIMS + 12 + 8 * (8 * n_u * n_v - 1), "<f", float("inf"))
    capsys.readouterr()
    emap = workdir / "m.insarelv"
    code = cli.main(["elevate", str(path), "-o", str(emap)])
    assert code == 3
    assert f"{path}: VX 7 image holds non-finite pixels" in capsys.readouterr().err
    assert not emap.exists()


def test_non_finite_map_snr_is_a_format_error(workdir, capsys):
    # a NaN SNR used to drop the pixel silently at exit 0; NaN elevation is
    # "absent", but the four quality planes hold no absent values
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "elevation.insarelv"
    n_u, n_v = struct.unpack_from("<II", path.read_bytes(), ELV_DIMS)
    snr_plane = ELV_DIMS + 8 + 4 * 4 * n_u * n_v
    patch(path, snr_plane + 4 * (n_u * n_v // 2), "<f", float("nan"))
    capsys.readouterr()
    code = cli.main(["pointcloud", str(path), "--config", str(workdir / "radar.cfg"),
                     "-o", str(workdir / "c.pcd")])
    assert code == 3
    assert "SNR plane holds non-finite values" in capsys.readouterr().err


# Header value fields: INSARRAW's u32 samples_per_chirp, the f64 origin u
# and pixel size of the INSARIMG / INSARELV grid, their phase center x, and
# the INSARIMG wavelength.
RAW_SAMPLES = 12 + 16
GRID_ORIGIN = 12
GRID_PIXEL = 12 + 32
IMG_PHASE_CENTER = 12 + 40 + 16
ELV_PHASE_CENTER = 12 + 40
IMG_WAVELENGTH = 12 + 40 + 8


@pytest.mark.parametrize(
    "artifact, offset, fmt, value, argv",
    [
        ("capture.insarraw", RAW_SAMPLES, "<I", 0, ["image", "--config", "CFG", "-o", "OUT"]),
        ("stack.insarimg", GRID_PIXEL, "<d", -0.04, ["elevate", "-o", "OUT"]),
        ("elevation.insarelv", GRID_PIXEL, "<d", -0.04, ["report", "--config", "CFG"]),
        # a NaN grid origin or phase center used to empty the cloud at exit 0
        ("stack.insarimg", GRID_ORIGIN, "<d", float("nan"), ["elevate", "-o", "OUT"]),
        ("elevation.insarelv", GRID_ORIGIN, "<d", float("nan"), ["pointcloud", "--config", "CFG", "-o", "OUT"]),
        ("stack.insarimg", IMG_PHASE_CENTER, "<d", float("nan"), ["elevate", "-o", "OUT"]),
        ("elevation.insarelv", ELV_PHASE_CENTER, "<d", float("nan"), ["pointcloud", "--config", "CFG", "-o", "OUT"]),
        # a NaN or negative wavelength used to exit 4 (a domain error)
        ("stack.insarimg", IMG_WAVELENGTH, "<d", float("nan"), ["elevate", "-o", "OUT"]),
        ("stack.insarimg", IMG_WAVELENGTH, "<d", -0.004, ["elevate", "-o", "OUT"]),
    ],
)
def test_corrupt_header_value_is_a_format_error(workdir, capsys, artifact, offset, fmt, value, argv):
    # a value the artifact's own types reject is a corrupt file (exit 3),
    # not a config error (exit 2)
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / artifact
    patch(path, offset, fmt, value)
    names = {"CFG": str(workdir / "radar.cfg"), "OUT": str(workdir / "out.bin")}
    capsys.readouterr()
    code = cli.main([argv[0], str(path)] + [names.get(a, a) for a in argv[1:]])
    assert code == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "oversample_factor = abc",
        "oversample_factor = 2.5",
        "samples_per_chirp = 64.5",
        "per_sample_snr_db = loud",
        "capture_start_s = (0, 1)",
        "aperture_length_m = nan",
        "snr_threshold_db = high",
        "per_sample_snr_db = -inf",
        "front_azimuth_deg = inf",
        "front_azimuth_deg = -inf",
        pytest.param(f"pixel_size_m = {HUGE_INT}", id="pixel_size_m = int beyond float"),
        pytest.param(f"samples_per_chirp = {HUGE_INT}", id="samples_per_chirp = int beyond float"),
    ],
)
def test_bad_config_number_exit_code(workdir, capsys, line):
    key = line.split()[0]
    (workdir / "bad.cfg").write_text(CONFIG + line + "\n")
    _, code = run_pipeline(workdir, workdir / "bad.cfg")
    assert code == 2
    assert key in capsys.readouterr().err


def test_non_finite_pose_in_capture_is_a_format_error(workdir, capsys):
    # a NaN pose position used to drop that cycle's records from the image
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    path = out / "capture.insarraw"
    (n_records,) = struct.unpack_from("<Q", path.read_bytes(), RAW_COUNT)
    record_bytes = 84 + 8 * 64
    pose_x = 12 + 8 + 8  # after tx, rx, cycle, the record time and the pose time
    patch(path, RAW_COUNT + 8 + (n_records // 2) * record_bytes + pose_x, "<d", float("nan"))
    capsys.readouterr()
    code = cli.main(["image", str(path), "--config", str(workdir / "radar.cfg"),
                     "-o", str(workdir / "s.insarimg")])
    assert code == 3
    assert "pose time and position must be finite" in capsys.readouterr().err


# A last trajectory row with a NaN position, a NaN quaternion, or a NaN or
# infinite time (which used to hang simulate while counting TDM cycles).
NON_FINITE_LAST_ROWS = (
    "0.02,nan,0,0.4,1,0,0,0",
    "0.02,0.1,0,0.4,nan,0,0,0",
    "nan,0.1,0,0.4,1,0,0,0",
    "inf,0.1,0,0.4,1,0,0,0",
)


def with_last_row(row):
    return "\n".join(TRAJ.splitlines()[:2] + [row]) + "\n"


@pytest.mark.parametrize("row", NON_FINITE_LAST_ROWS)
def test_non_finite_trajectory_value_is_a_config_error(workdir, capsys, row):
    (workdir / "traj.csv").write_text(with_last_row(row))
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 2
    assert not (out / "capture.insarraw").exists()
    capsys.readouterr()


def test_overflowing_scene_amplitude_is_a_config_error(workdir, capsys):
    # the samples are finite in the complex128 synthesis block but beyond
    # float32 once rounded into the capture; no capture is written
    (workdir / "scene.csv").write_text(SCENE + "0.3,4.2,0.5,1e300\n")
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 2
    assert "holds samples beyond float32 range" in capsys.readouterr().err
    assert not (out / "capture.insarraw").exists()


@pytest.mark.parametrize("line", ["capture_start_s = inf", "capture_end_s = -inf"])
def test_non_finite_capture_window_is_a_config_error(workdir, capsys, line):
    # an infinite bound used to end in OverflowError while counting cycles
    (workdir / "window.cfg").write_text(CONFIG + line + "\n")
    out, code = run_pipeline(workdir, workdir / "window.cfg")
    assert code == 2
    assert "capture window" in capsys.readouterr().err
    assert not (out / "capture.insarraw").exists()


@pytest.mark.parametrize("height", ["1e300", "-1e300"])
def test_grid_at_no_finite_distance_is_a_config_error(workdir, capsys, height):
    # the farthest pixel's squared distance overflowed with a warning, and
    # the all-zero image then failed as a domain error (exit 4)
    (workdir / "far.cfg").write_text(CONFIG + f"image_height_m = {height}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, code = run_pipeline(workdir, workdir / "far.cfg")
    assert code == 2
    assert "no finite distance" in capsys.readouterr().err
    assert (out / "capture.insarraw").exists()
    assert not (out / "stack.insarimg").exists()


def test_grid_beyond_the_range_profile_is_a_config_error(workdir, capsys):
    # a grid past c*fs/(2*slope) = 93.7 m used to image to an all-zero stack
    # at exit 0, which elevate then refused (exit 4)
    far = workdir / "far.cfg"
    far.write_text(CONFIG + "grid_origin_m = (-0.8, 95.0)\n")
    out, code = run_pipeline(workdir, far)
    assert code == 2
    assert "range limit" in capsys.readouterr().err
    assert (out / "capture.insarraw").exists()
    assert not (out / "stack.insarimg").exists()
    assert not (out / "elevation.insarelv").exists()

    stack = workdir / "far.insarimg"
    code = cli.main(["image", str(out / "capture.insarraw"), "--config", str(far), "-o", str(stack)])
    assert code == 2
    assert "range limit c*fs/(2*slope) = 93.69 m" in capsys.readouterr().err
    assert not stack.exists()


@pytest.mark.parametrize(
    "scene, traj",
    [
        (SCENE + "1e300,4.2,0.5,1.0\n", TRAJ),
        (SCENE, TRAJ.replace("0.02,0.1,0,0.4", "0.02,0.1,-1e300,0.4")),
    ],
)
def test_target_at_no_finite_distance_is_a_config_error(workdir, capsys, scene, traj):
    # an element-target distance overflowed in simulate with a warning, and
    # the beat then warned of invalid values before the capture failed
    (workdir / "scene.csv").write_text(scene)
    (workdir / "traj.csv").write_text(traj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 2
    err = capsys.readouterr().err
    assert "lies at no finite distance from the array element at" in err
    assert "np.float64(" not in err
    assert not (out / "capture.insarraw").exists()


def test_aperture_center_outside_capture_names_plain_floats(workdir, capsys):
    (workdir / "late.cfg").write_text(CONFIG + "aperture_center_time_s = inf\n")
    _, code = run_pipeline(workdir, workdir / "late.cfg")
    assert code == 4
    err = capsys.readouterr().err
    assert "outside the capture span [-0.02, " in err
    assert "np.float64(" not in err


def test_stage_cannot_write_a_stack_the_next_stage_rejects(workdir, capsys):
    # 2*pi*f_c/c overflows at f_c = 1e308, so every pixel is NaN; the image
    # stage used to write that stack at exit 0 for elevate to reject
    (workdir / "hot.cfg").write_text(CONFIG + "center_frequency_hz = 1e308\n")
    out, code = run_pipeline(workdir, workdir / "hot.cfg")
    assert code == 2
    assert "image holds non-finite pixels" in capsys.readouterr().err
    assert (out / "capture.insarraw").exists()
    assert not (out / "stack.insarimg").exists()


def noiseless_with_amplitude(workdir, amplitude):
    """The small config without noise, plus one target of the amplitude."""
    (workdir / "quiet.cfg").write_text(CONFIG + "per_sample_snr_db = inf\n")
    (workdir / "scene.csv").write_text(SCENE + f"0.3,4.2,0.5,{amplitude}\n")
    return run_pipeline(workdir, workdir / "quiet.cfg")


def test_capture_beyond_float32_is_a_config_error(workdir, capsys):
    # 1e39 is finite in memory but inf as float32; simulate used to write
    # that capture at exit 0 for image to reject (exit 3)
    out, code = noiseless_with_amplitude(workdir, "1e39")
    assert code == 2
    assert "holds samples beyond float32 range" in capsys.readouterr().err
    assert not (out / "capture.insarraw").exists()


def test_noisy_capture_beyond_float32_is_a_config_error(workdir, capsys):
    # the noisy samples are finite as complex128 but inf once rounded to the
    # file's complex64; simulate refuses them as the writer does, with no
    # overflow warning, even when warnings are errors
    (workdir / "scene.csv").write_text(SCENE + "0.3,4.2,0.5,1e39\n")
    out = workdir / "noisy.insarraw"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            ["simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
             "--config", str(workdir / "radar.cfg"), "-o", str(out)]
        )
    assert code == 2
    assert "holds samples beyond float32 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr", ["inf", "25"], ids=["noiseless", "noisy"])
def test_targets_summing_to_inf_are_a_config_error(workdir, capsys, snr):
    # each amplitude is finite, but two targets at one place sum to inf in
    # the complex128 block; the simulate stage writes its capture into its
    # file, and used to write that capture at exit 0 for image to reject
    (workdir / "quiet.cfg").write_text(CONFIG + f"per_sample_snr_db = {snr}\n")
    (workdir / "scene.csv").write_text(SCENE + "0.3,4.2,0.5,1.5e308\n" * 2)
    out, code = run_pipeline(workdir, workdir / "quiet.cfg")
    assert code == 2
    assert "holds non-finite samples" in capsys.readouterr().err
    assert not (out / "capture.insarraw").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "failure",
    [
        pytest.param(("--seed", "-1"), id="seed"),
        pytest.param(("capture_end_s = 100\n", None), id="window"),
        pytest.param(("per_sample_snr_db = inf\n", "0.3,4.2,0.5,1e39\n"), id="float32 overflow"),
        pytest.param(("", "0.3,4.2,0.5,1.5e308\n" * 2), id="non-finite sum"),
    ],
)
@pytest.mark.parametrize("kind", ["file", "symlink"])
def test_failing_simulate_leaves_an_existing_output_as_it_was(workdir, capsys, failure, kind):
    # the capture is made in a new file beside -o, which replaces -o only
    # once the stage is done; the output used to be truncated when the
    # stage began and removed when it failed
    seed = ["--seed", "2"]
    if failure[0] == "--seed":
        seed = list(failure)
    else:
        (workdir / "radar.cfg").write_text(CONFIG + failure[0])
        if failure[1] is not None:
            (workdir / "scene.csv").write_text(SCENE + failure[1])
    kept = workdir / "kept.insarraw"
    kept.write_bytes(b"an earlier capture")
    out = kept
    if kind == "symlink":
        out = workdir / "link.insarraw"
        out.symlink_to(kept)
    before = sorted(workdir.iterdir())
    code = cli.main(seed + ["simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
                            "--config", str(workdir / "radar.cfg"), "-o", str(out)])
    assert code in (2, 4)
    capsys.readouterr()
    assert kept.read_bytes() == b"an earlier capture"
    assert out.is_symlink() == (kind == "symlink")
    assert sorted(workdir.iterdir()) == before


def test_simulate_replaces_the_file_a_symlink_names(workdir, capsys):
    # as when the file was written in place: the symlink stays, and the file
    # it names holds the capture with its permission bits
    argv = ["--seed", "2", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
            "--config", str(workdir / "radar.cfg"), "-o"]
    assert cli.main(argv + [str(workdir / "plain.insarraw")]) == 0
    kept = workdir / "kept.insarraw"
    kept.write_bytes(b"an earlier capture")
    kept.chmod(0o640)
    link = workdir / "link.insarraw"
    link.symlink_to(kept)
    assert cli.main(argv + [str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert kept.read_bytes() == (workdir / "plain.insarraw").read_bytes()
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert sorted(p.name for p in workdir.iterdir()) == sorted(
        ["radar.cfg", "scene.csv", "traj.csv", "plain.insarraw", "kept.insarraw", "link.insarraw"]
    )


def test_simulate_into_a_missing_directory_names_the_output(workdir, capsys):
    # the capture is made in a hidden file beside -o, which the message
    # used to name
    out = workdir / "no" / "such" / "cap.insarraw"
    code = cli.main(["simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
                     "--config", str(workdir / "radar.cfg"), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".part" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["radar.cfg", "scene.csv", "traj.csv"]


def simulate_capture(workdir, name="c.insarraw"):
    path = workdir / name
    assert cli.main(["--seed", "2", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
                     "--config", str(workdir / "radar.cfg"), "-o", str(path)]) == 0
    return path


def test_image_and_elevate_may_write_over_their_input(workdir, capsys):
    # the image stage reads the capture as it images it, and elevate the
    # stack as it combines it; each replaces its input only when done
    capture = simulate_capture(workdir)
    twin = workdir / "twin.insarraw"
    twin.write_bytes(capture.read_bytes())
    cfg = ["--config", str(workdir / "radar.cfg")]
    stack = workdir / "s.insarimg"
    assert cli.main(["image", str(capture), *cfg, "-o", str(stack)]) == 0
    assert cli.main(["image", str(twin), *cfg, "-o", str(twin)]) == 0
    assert twin.read_bytes() == stack.read_bytes()
    emap = workdir / "m.insarelv"
    assert cli.main(["elevate", str(stack), "-o", str(emap)]) == 0
    assert cli.main(["elevate", str(twin), "-o", str(twin)]) == 0
    assert twin.read_bytes() == emap.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, scene, message",
    [
        pytest.param("grid_origin_m = (-0.8, 95.0)\n", "", "range limit", id="grid past the range profile"),
        pytest.param("per_sample_snr_db = inf\n", "0.3,4.2,0.5,1e37\n", "beyond float32 range",
                     id="float32 overflow"),
    ],
)
@pytest.mark.parametrize("kind", ["file", "symlink"])
def test_failing_image_leaves_an_existing_output_as_it_was(workdir, capsys, config, scene, message, kind):
    # the stack is made in a new file beside -o, which replaces -o only once
    # the stage is done; an overflow ends the stage with blocks of the stack
    # already written there
    (workdir / "radar.cfg").write_text(CONFIG + config)
    (workdir / "scene.csv").write_text(SCENE + scene)
    capture = simulate_capture(workdir)
    kept = workdir / "kept.insarimg"
    kept.write_bytes(b"an earlier stack")
    out = kept
    if kind == "symlink":
        out = workdir / "link.insarimg"
        out.symlink_to(kept)
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    code = cli.main(["image", str(capture), "--config", str(workdir / "radar.cfg"), "-o", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert kept.read_bytes() == b"an earlier stack"
    assert out.is_symlink() == (kind == "symlink")
    assert sorted(workdir.iterdir()) == before


def test_image_into_a_missing_directory_names_the_output(workdir, capsys):
    # the stack is made in a hidden file beside -o, which the message must
    # not name
    capture = simulate_capture(workdir)
    out = workdir / "no" / "such" / "s.insarimg"
    capsys.readouterr()
    code = cli.main(["image", str(capture), "--config", str(workdir / "radar.cfg"), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".part" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["c.insarraw", "radar.cfg", "scene.csv", "traj.csv"]


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.path.isfile(os.devnull), reason="needs a null device")
def test_image_to_the_null_device_reports_and_dumps_what_a_file_output_does(workdir, capsys):
    # the stack for the null device is made in a temporary file; its report
    # and PGMs are those of the stack made in its output file
    capture = simulate_capture(workdir)
    capsys.readouterr()
    cfg = ["--config", str(workdir / "radar.cfg")]
    stack = str(workdir / "s.insarimg")
    assert cli.main(["image", str(capture), *cfg, "-o", stack, "--pgm-dir", str(workdir / "a")]) == 0
    expected = capsys.readouterr().out.replace(stack, os.devnull).replace(str(workdir / "a"), str(workdir / "b"))
    assert cli.main(["image", str(capture), *cfg, "-o", os.devnull, "--pgm-dir", str(workdir / "b")]) == 0
    assert capsys.readouterr().out == expected
    for pgm in (workdir / "a").iterdir():
        assert (workdir / "b" / pgm.name).read_bytes() == pgm.read_bytes()


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_failing_writer_leaves_a_non_regular_target_in_place(workdir, capsys, kind):
    # a writer that raises removes the file it worked in, but never a
    # symlink, device or pipe named by -o (as /dev/stdout or /dev/null are)
    (workdir / "quiet.cfg").write_text(CONFIG + "per_sample_snr_db = inf\n")
    (workdir / "scene.csv").write_text(SCENE + "0.3,4.2,0.5,1e39\n")
    out = workdir / "out.insarraw"
    reader = None
    if kind == "symlink":
        (workdir / "target.bin").write_bytes(b"")
        out.symlink_to(workdir / "target.bin")
    else:
        os.mkfifo(out)
        # an open reader lets the writer open the pipe without blocking
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code = cli.main(
            ["simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
             "--config", str(workdir / "quiet.cfg"), "-o", str(out)]
        )
    finally:
        if reader is not None:
            os.close(reader)
    assert code == 2
    assert "holds samples beyond float32 range" in capsys.readouterr().err
    if kind == "symlink":
        assert out.is_symlink() and (workdir / "target.bin").is_file()
    else:
        assert stat.S_ISFIFO(os.lstat(out).st_mode)


def test_stack_beyond_float32_is_a_config_error(workdir, capsys):
    # 1e37 fits the capture, but the focused pixels do not fit float32;
    # image used to write an all-inf stack for elevate to reject (exit 3)
    out, code = noiseless_with_amplitude(workdir, "1e37")
    assert code == 2
    assert "image holds pixels beyond float32 range" in capsys.readouterr().err
    assert (out / "capture.insarraw").exists()
    assert not (out / "stack.insarimg").exists()


@pytest.mark.parametrize("extent", ["(1e5, 1e5)", "(1e300, 1e300)"])
def test_oversized_grid_is_a_config_error(workdir, capsys, extent):
    # 1e5 m at 4 cm pixels used to die allocating 45.5 TiB (exit 1); at
    # 1e300 m the pixel count wrapped negative into "smaller than one pixel"
    (workdir / "big.cfg").write_text(CONFIG + f"grid_extent_m = {extent}\n")
    out, code = run_pipeline(workdir, workdir / "big.cfg")
    assert code == 2
    assert "pixels exceeds the cap" in capsys.readouterr().err
    assert not (out / "stack.insarimg").exists()


@pytest.mark.parametrize("factor", ["1000000000", "1e300"])
def test_oversized_oversample_factor_is_a_config_error(workdir, capsys, factor):
    # both used to exit 1, refused by numpy before any memory was touched:
    # 1e9 as an allocation of TiB, 1e300 as "Maximum allowed dimension
    # exceeded"
    (workdir / "big.cfg").write_text(CONFIG + f"oversample_factor = {factor}\n")
    out, code = run_pipeline(workdir, workdir / "big.cfg")
    assert code == 2
    assert "range profiles longer than the cap" in capsys.readouterr().err
    assert not (out / "stack.insarimg").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_config_error(workdir, capsys, threads):
    # used to exit 0, imaging serially
    out = workdir / "run"
    code = cli.main(
        ["--threads", threads, "pipeline", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "radar.cfg"), "--out-dir", str(out)]
    )
    assert code == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (out / "stack.insarimg").exists()


@pytest.mark.parametrize("value", ["sinc", "3"])
def test_interpolation_other_than_linear_is_a_config_error(workdir, capsys, value):
    # linear is the kernel's one interpolator; the message points to
    # oversample_factor for finer interpolation
    (workdir / "interp.cfg").write_text(CONFIG + f"interpolation = {value}\n")
    out, code = run_pipeline(workdir, workdir / "interp.cfg")
    assert code == 2
    assert "oversample_factor" in capsys.readouterr().err
    assert not (out / "stack.insarimg").exists()


# element positions that are not numbers, or rows of unequal length
BAD_TX_POSITIONS = ("abc", "[(0, 0, 0), (1, 1)]")


@pytest.mark.parametrize("tx", [*BAD_TX_POSITIONS, pytest.param(f"[({HUGE_INT}, 0, 0)]", id="int beyond float")])
def test_malformed_element_positions_are_a_config_error(workdir, capsys, tx):
    # all used to end in a numpy ValueError or an OverflowError traceback
    # (exit 1)
    (workdir / "array.cfg").write_text(CONFIG + f"tx_positions_m = {tx}\nrx_positions_m = [(0, 0, 0)]\n")
    out = workdir / "cap.insarraw"
    code = cli.main(
        ["simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", str(workdir / "array.cfg"), "-o", str(out)]
    )
    assert code == 2
    assert "bad element positions" in capsys.readouterr().err
    assert not out.exists()


# Hostile config values and CSV cells: text that is not a number, NaN,
# +-inf, 1e+-300, 1e39 (finite, but beyond float32), and values of the
# wrong shape.
HOSTILE = ("abc", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300", "1e39")
OPTIONAL_KEYS = (
    "capture_start_s",
    "capture_end_s",
    "element_pattern_cos_power",
    "aperture_center_time_s",
    "range_window",
)


def hostile_inputs(rng):
    """(what, config, scene, trajectory) texts, each with one hostile value:
    every config key and CSV cell gets three seeded picks from HOSTILE and
    one wrong shape, and the cases reproduced from known faults are added."""
    lines = CONFIG.strip().splitlines()
    for i, line in enumerate(lines):
        key, value = (part.strip() for part in line.split("="))
        if value.startswith("("):  # a pair: hostile first element, or 1 or 3 elements
            picks = [f"({bad}, {value[1:-1].split(',')[1].strip()})" for bad in rng.sample(HOSTILE, 3)]
            picks += ["7", "(1, 2, 3)"]
        else:
            picks = [*rng.sample(HOSTILE, 3), "(1, 2)"]
        for bad in picks:
            config = "\n".join(lines[:i] + [f"{key} = {bad}"] + lines[i + 1 :]) + "\n"
            yield f"{key} = {bad}", config, SCENE, TRAJ
    for name, text in (("scene", SCENE), ("trajectory", TRAJ)):
        rows = text.strip().splitlines()
        for r in range(1, len(rows)):
            cells = rows[r].split(",")
            for c in range(len(cells)):
                for bad in [*rng.sample(HOSTILE, 3), f"{cells[c]},1"]:
                    row = ",".join(cells[:c] + [bad] + cells[c + 1 :])
                    edited = "\n".join(rows[:r] + [row] + rows[r + 1 :]) + "\n"
                    scene, traj = (edited, TRAJ) if name == "scene" else (SCENE, edited)
                    yield f"{name} row {r} cell {c} = {bad}", CONFIG, scene, traj
    for extra in (
        "per_sample_snr_db = -inf",
        "image_height_m = inf",
        "image_height_m = 1e300",
        "grid_origin_m = (1e20, 0)",
        "center_frequency_hz = 1e308",
        "grid_extent_m = (1e5, 1e5)",
        *(f"tx_positions_m = {tx}\nrx_positions_m = [(0, 0, 0)]" for tx in BAD_TX_POSITIONS),
        f"grid_origin_m = ({HUGE_INT}, 0)",
        f"pixel_size_m = {HUGE_INT}",
        f"samples_per_chirp = {HUGE_INT}",
    ):
        yield extra, CONFIG + extra + "\n", SCENE, TRAJ
    for row in NON_FINITE_LAST_ROWS:
        yield f"trajectory last row {row}", CONFIG, SCENE, with_last_row(row)
    for amplitude in ("1e300", "1e39"):
        yield f"scene amplitude {amplitude}", CONFIG, SCENE + f"0.3,4.2,0.5,{amplitude}\n", TRAJ
    for amplitude in ("1e39", "1e37"):
        quiet = CONFIG + "per_sample_snr_db = inf\n"
        yield f"noiseless scene amplitude {amplitude}", quiet, SCENE + f"0.3,4.2,0.5,{amplitude}\n", TRAJ
    # keys the CLI reads that CONFIG leaves at their defaults
    for key in OPTIONAL_KEYS:
        for bad in HOSTILE:
            yield f"{key} = {bad}", CONFIG + f"{key} = {bad}\n", SCENE, TRAJ


def test_hostile_config_and_csv_values_fail_cleanly(tmp_path, capsys):
    # Every hostile input either runs or exits 2 (config) or 4 (domain):
    # no traceback, and never 3, which here could only mean that one stage
    # wrote an artifact the next stage rejects.  Messages name plain
    # numbers, not numpy reprs.
    failures = []
    for k, (what, config, scene, traj) in enumerate(hostile_inputs(random.Random(2025))):
        case = tmp_path / str(k)
        case.mkdir()
        for name, text in (("radar.cfg", config), ("scene.csv", scene), ("traj.csv", traj)):
            (case / name).write_text(text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, code = run_pipeline(case, case / "radar.cfg")
        except Exception as exc:  # noqa: BLE001 -- the failure being tested for
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2, 4) or "Traceback" in err or "np.float64(" in err:
            failures.append(f"{what}: {code} {err.strip()[-200:]}")
    assert not failures, "\n".join(failures)


def stage_argv(workdir, stage, **paths):
    """argv for one stage on the artifacts of run_pipeline(workdir, ...),
    with any of its paths (config, scene, trajectory, input, output, csv)
    replaced."""
    run = workdir / "run"
    paths = {
        "config": workdir / "radar.cfg",
        "scene": workdir / "scene.csv",
        "trajectory": workdir / "traj.csv",
        "input": {"image": run / "capture.insarraw", "elevate": run / "stack.insarimg",
                  "pointcloud": run / "elevation.insarelv"}.get(stage),
        "output": workdir / f"{stage}.out",
        **paths,
    }
    if stage == "simulate":
        argv = ["simulate", paths["scene"], paths["trajectory"], "--config", paths["config"]]
    elif stage == "elevate":
        argv = ["elevate", paths["input"]]
    else:
        argv = [stage, paths["input"], "--config", paths["config"]]
    argv += ["-o", paths["output"]]
    if "csv" in paths:
        argv += ["--csv", paths["csv"]]
    return [str(a) for a in argv]


@pytest.mark.parametrize("which", ["config", "scene", "trajectory"])
def test_undecodable_text_file_is_a_config_error(workdir, capsys, which):
    # used to end in a UnicodeDecodeError traceback (exit 1)
    path = workdir / {"config": "radar.cfg", "scene": "scene.csv", "trajectory": "traj.csv"}[which]
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    code = cli.main(stage_argv(workdir, "simulate"))
    assert code == 2
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err
    assert not (workdir / "simulate.out").exists()


@pytest.mark.parametrize(
    "stage, which",
    [("simulate", "config"), ("simulate", "trajectory"), ("image", "input"), ("elevate", "input"),
     ("pointcloud", "input")],
)
def test_directory_as_input_is_a_config_error(workdir, capsys, stage, which):
    # used to end in an IsADirectoryError traceback (exit 1)
    assert run_pipeline(workdir, workdir / "radar.cfg")[1] == 0
    capsys.readouterr()
    code = cli.main(stage_argv(workdir, stage, **{which: workdir}))
    assert code == 2
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, which",
    [("simulate", "output"), ("image", "output"), ("elevate", "output"), ("pointcloud", "output"),
     ("pointcloud", "csv")],
)
def test_directory_as_output_is_a_config_error(workdir, capsys, stage, which):
    # used to end in an IsADirectoryError traceback (exit 1)
    assert run_pipeline(workdir, workdir / "radar.cfg")[1] == 0
    capsys.readouterr()
    target = workdir / "taken"
    target.mkdir()
    code = cli.main(stage_argv(workdir, stage, **{which: target}))
    assert code == 2
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert target.is_dir() and not any(target.iterdir())


def test_file_as_pipeline_out_dir_is_a_config_error(workdir, capsys):
    # used to end in a FileExistsError traceback (exit 1)
    (workdir / "run").write_text("not a directory\n")
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 2
    assert "error: [Errno 17] File exists" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_unwritable_csv_leaves_no_pcd(workdir, capsys):
    # the PCD used to be written before --csv was opened, so a directory as
    # --csv exited 2 and left cloud.pcd behind
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    taken = workdir / "taken"
    taken.mkdir()
    pcd = workdir / "cloud.pcd"
    capsys.readouterr()
    code = cli.main(["pointcloud", str(out / "elevation.insarelv"), "--config", str(workdir / "radar.cfg"),
                     "-o", str(pcd), "--csv", str(taken)])
    assert code == 2
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert not pcd.exists()
    assert taken.is_dir() and not any(taken.iterdir())


@pytest.mark.parametrize("kind", ["same path", "symlink"])
def test_csv_over_the_pcd_is_a_config_error(workdir, capsys, kind):
    # each output replaces its path when done, so one would replace the
    # other; the CSV used to be written over the PCD at exit 0
    out, code = run_pipeline(workdir, workdir / "radar.cfg")
    assert code == 0
    pcd = workdir / "cloud.pcd"
    pcd.write_text("an earlier cloud\n")
    csv = pcd
    if kind == "symlink":
        csv = workdir / "link.csv"
        csv.symlink_to(pcd)
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    code = cli.main(["pointcloud", str(out / "elevation.insarelv"), "--config", str(workdir / "radar.cfg"),
                     "-o", str(pcd), "--csv", str(csv)])
    assert code == 2
    assert "is the -o output" in capsys.readouterr().err
    assert pcd.read_text() == "an earlier cloud\n"
    assert sorted(workdir.iterdir()) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_to_a_pipe_writes_the_capture_in_order(workdir, capsys):
    # the capture is made in a temporary file, whose bytes are copied into
    # the pipe when the stage is done: the bytes of a file output
    pipe = workdir / "pipe"
    os.mkfifo(pipe)
    received = []

    def drain():
        with open(pipe, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    argv = ["--seed", "2", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
            "--config", str(workdir / "radar.cfg"), "-o"]
    code = cli.main(argv + [str(pipe)])
    if reader.is_alive() and not received:  # the writer never opened the pipe
        os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
    reader.join(timeout=60)
    assert code == 0
    assert cli.main(argv + [str(workdir / "c.insarraw")]) == 0
    assert received == [(workdir / "c.insarraw").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)


def open_descriptors():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_stage_leaves_a_file_open(workdir, capsys):
    # the simulate and image stages keep the capture's samples in its file;
    # every handle they open is closed when the stage returns
    cfg = str(workdir / "radar.cfg")
    stages = [
        ["--seed", "1", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
         "--config", cfg, "-o", str(workdir / "c.insarraw")],
        ["image", str(workdir / "c.insarraw"), "--config", cfg, "-o", str(workdir / "s.insarimg")],
        ["elevate", str(workdir / "s.insarimg"), "-o", str(workdir / "m.insarelv")],
        ["pointcloud", str(workdir / "m.insarelv"), "--config", cfg, "-o", str(workdir / "p.pcd"),
         "--csv", str(workdir / "p.csv")],
    ]
    for argv in stages:
        before = open_descriptors()
        assert cli.main(argv) == 0
        assert open_descriptors() <= before, argv[0] if argv[0] != "--seed" else "simulate"


@pytest.mark.simd
class TestSimulateInItsFile:
    """The simulate stage synthesizes and noises its capture in its output
    file, a block at a time; the file holds the bytes of the same capture
    made in memory and written whole.  The float64 cos and sin of synthesis
    may differ between numpy SIMD paths, so this runs on each of them."""

    # 37 TDM cycles and 444 records: 2 whole 16-cycle blocks and 5 cycles,
    # 13 whole 32-row blocks and 28 rows
    PARTIAL = "capture_start_s = -0.02\ncapture_end_s = " + repr(-0.02 + 110.5 * 63.9e-6) + "\n"

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param("", id="default"),
            pytest.param("element_pattern_cos_power = 2.5\n", id="element pattern"),
            pytest.param("capture_start_s = -0.01\ncapture_end_s = 0.01\n", id="capture window"),
            pytest.param("per_sample_snr_db = inf\n", id="noiseless"),
            pytest.param(PARTIAL, id="partial blocks"),
        ],
    )
    def test_file_equals_the_capture_made_in_memory(self, workdir, capsys, extra):
        from insarmap import configio, simulate
        from insarmap.types import derive_chirp_params

        path = workdir / "radar.cfg"
        # a key given twice keeps its last value
        path.write_text(CONFIG + extra)
        out = workdir / "c.insarraw"
        code = cli.main(["--seed", "5", "simulate", str(workdir / "scene.csv"), str(workdir / "traj.csv"),
                         "--config", str(path), "-o", str(out)])
        assert code == 0

        cfg = configio.parse_kv_file(path)
        chirp = configio.load_chirp_config(cfg)
        array = configio.load_virtual_array(cfg, derive_chirp_params(chirp).wavelength_m)
        traj = configio.load_trajectory_csv(workdir / "traj.csv")
        window = None
        if "capture_start_s" in cfg:
            window = (float(cfg["capture_start_s"]), float(cfg["capture_end_s"]))
        pattern = cfg.get("element_pattern_cos_power")
        capture = simulate.synthesize_capture(
            configio.load_scene_csv(workdir / "scene.csv"), traj, chirp, array, window,
            pattern_cos_power=None if pattern is None else float(pattern),
        )
        assert isinstance(capture.samples, np.ndarray)
        if extra == self.PARTIAL:
            assert (capture.n_cycles % simulate._SYNTH_CYCLES, capture.n_records % simulate._NOISE_ROWS) == (5, 28)
        capture = simulate.add_noise(capture, float(cfg["per_sample_snr_db"]), seed=5)
        formats.write_capture(capture, workdir / "memory.insarraw")
        assert out.read_bytes() == (workdir / "memory.insarraw").read_bytes()


@pytest.mark.simd
class TestImageInItsFile:
    """The image stage adds its images into its output file, one pixel
    block at a time; the file holds the bytes of the same stack made in
    memory and written whole.  The float32 cos and sin of imaging may
    differ between numpy SIMD paths, so this runs on each of them."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "grid, n_blocks",
        [
            # 640 x 160 px: 7 blocks of whole rows
            pytest.param("grid_origin_m = (-6.4, 3.2)\ngrid_extent_m = (12.8, 3.2)\npixel_size_m = 0.02\n", 7,
                         id="whole rows"),
            # 2 x 20 000 px: 4 blocks, each half a row
            pytest.param("grid_extent_m = (0.004, 40.0)\npixel_size_m = 0.002\n", 4, id="parts of rows"),
        ],
    )
    def test_file_equals_the_stack_made_in_memory(self, workdir, capsys, grid, n_blocks, threads):
        from insarmap import configio, imaging

        path = workdir / "radar.cfg"
        # a key given twice keeps its last value; a 2 cm aperture holds 21
        # cycles, in 3 cycle batches
        path.write_text(CONFIG + "aperture_length_m = 0.02\n" + grid)
        capture = simulate_capture(workdir)
        out = workdir / "s.insarimg"
        code = cli.main(["--threads", str(threads), "image", str(capture), "--config", str(path), "-o", str(out)])
        assert code == 0

        cfg = configio.parse_kv_file(path)
        grid = configio.load_grid(cfg)
        aperture = configio.load_aperture(cfg)
        read = formats.read_capture(capture)
        stack = imaging.image_stack(read, grid, aperture, threads=threads, **configio.load_imaging_options(cfg))
        assert isinstance(stack.images, np.ndarray)
        formats.write_image_stack(stack, workdir / "memory.insarimg")
        assert out.read_bytes() == (workdir / "memory.insarimg").read_bytes()
        n_cycles = np.unique(read.cycle[imaging._select_aperture(read, aperture)[0]]).size
        assert n_cycles > 2 * imaging._CYCLE_BATCH
        n_px = grid.n_u * grid.n_v
        assert len(imaging._pixel_blocks(grid.n_u, grid.n_v, -(-n_px // imaging._BLOCK_PIXELS))) == n_blocks
