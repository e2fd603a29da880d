"""CLI behavior: stages, exit codes, reports, and reproducibility."""

import hashlib
import os
import random
import stat
import struct
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
    # damaged sample elsewhere is never read; a whole-capture read refuses it
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
        formats.read_capture(path)


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


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_failing_writer_leaves_a_non_regular_target_in_place(workdir, capsys, kind):
    # a writer that raises removes the regular file it made, but never a
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
