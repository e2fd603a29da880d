"""Flat key-value config files plus the CSV scene and trajectory formats.

Config files are one `key = value` per line in SI units, with `#` comments.
Values may be numbers, `inf`, bare words, or Python-literal tuples/lists
such as `[(0, 0, 0), (0.00774, 0, 0)]`.  Unknown keys are tolerated so one
file can feed several pipeline stages.

Trajectory CSV header: t,x,y,z,qw,qx,qy,qz
Scene CSV header:      x,y,z,amplitude
"""

from __future__ import annotations

import ast
import csv

import numpy as np

from .errors import ConfigError
from .imaging import Aperture, ImageGrid
from .pointcloud import FilterConfig
from .simulate import PointTarget, Scene
from .types import ChirpConfig, Pose, Trajectory, VirtualArray, build_virtual_array, default_virtual_array

CHIRP_KEYS = (
    "center_frequency_hz",
    "ramp_slope_hz_per_s",
    "samples_per_chirp",
    "sample_rate_sps",
    "pri_s",
    "chirps_per_tx_per_frame",
    "num_tx",
)
_INT_CHIRP_KEYS = ("samples_per_chirp", "chirps_per_tx_per_frame", "num_tx")


def _parse_value(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("inf", "+inf"):
        return float("inf")
    if lowered == "-inf":
        return float("-inf")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_kv_file(path) -> dict:
    """Parse a flat key-value config file; errors carry line numbers."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            values[key] = _parse_value(value)
    return values


def _number(cfg: dict, key: str, default=None, *, integer: bool = False, source=""):
    """cfg[key], or default when the key is absent, as a float (an int when
    integer is set).  Returns None when both are absent.  Anything that is
    not a number, NaN, and a non-integral value for an integer key raise
    ConfigError."""
    value = cfg.get(key, default)
    if value is None:
        return None
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and value == value
    if ok and integer:
        ok = float(value).is_integer()
    if not ok:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{source or 'config'}: {key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def load_chirp_config(cfg: dict, source="") -> ChirpConfig:
    missing = [key for key in CHIRP_KEYS if key not in cfg]
    if missing:
        raise ConfigError(f"{source or 'config'}: missing required key {missing[0]!r}")
    return ChirpConfig(
        **{key: _number(cfg, key, integer=key in _INT_CHIRP_KEYS, source=source) for key in CHIRP_KEYS}
    )


def load_virtual_array(cfg: dict, wavelength_m: float) -> VirtualArray:
    """Element positions from config, or the default two-layer layout."""
    tx = cfg.get("tx_positions_m")
    rx = cfg.get("rx_positions_m")
    if tx is None and rx is None:
        return default_virtual_array(wavelength_m)
    if tx is None or rx is None:
        raise ConfigError("tx_positions_m and rx_positions_m must be given together")
    return build_virtual_array(np.asarray(tx, float), np.asarray(rx, float))


def load_grid(cfg: dict) -> ImageGrid:
    origin = cfg.get("grid_origin_m", (-15.0, 0.0))
    extent = cfg.get("grid_extent_m", (30.0, 30.0))
    pixel = _number(cfg, "pixel_size_m", 0.04)
    try:
        return ImageGrid(
            origin_m=np.asarray(origin, float).reshape(2),
            extent_m=np.asarray(extent, float).reshape(2),
            pixel_size_m=pixel,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid configuration: {exc}") from exc


def load_aperture(cfg: dict) -> Aperture:
    return Aperture(
        length_m=_number(cfg, "aperture_length_m", 1.0),
        center_time_s=_number(cfg, "aperture_center_time_s"),
    )


def load_imaging_options(cfg: dict) -> dict:
    return {
        "oversample_factor": _number(cfg, "oversample_factor", 4, integer=True),
        "window": str(cfg.get("range_window", "rectangular")),
        "interpolation": str(cfg.get("interpolation", "linear")),
        "image_height_m": _number(cfg, "image_height_m", 0.0),
    }


def load_filter_config(cfg: dict) -> FilterConfig:
    defaults = FilterConfig()
    return FilterConfig(
        **{
            key: _number(cfg, key, getattr(defaults, key))
            for key in (
                "snr_threshold_db",
                "max_elevation_angle_deg",
                "min_radius_m",
                "front_azimuth_halfwidth_deg",
                "front_azimuth_deg",
                "max_circular_variance",
                "sensor_height_m",
            )
        },
        min_z_m=_number(cfg, "min_z_m"),
    )


def _read_csv_rows(path, expected_header: list[str]):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if header != expected_header:
            raise ConfigError(
                f"{path}:1: expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ConfigError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return rows


def load_trajectory_csv(path) -> Trajectory:
    rows = _read_csv_rows(path, ["t", "x", "y", "z", "qw", "qx", "qy", "qz"])
    if not rows:
        raise ConfigError(f"{path}: trajectory has no samples")
    poses = [
        Pose(time_s=r[0], position=np.array(r[1:4]), quaternion=np.array(r[4:8]))
        for r in rows
    ]
    return Trajectory(poses=tuple(poses))


def load_scene_csv(path) -> Scene:
    rows = _read_csv_rows(path, ["x", "y", "z", "amplitude"])
    if not rows:
        raise ConfigError(f"{path}: scene has no targets")
    targets = [PointTarget(position=np.array(r[0:3]), amplitude=r[3]) for r in rows]
    return Scene(targets=tuple(targets))


def write_scene_csv(scene: Scene, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,z,amplitude\n")
        for t in scene.targets:
            fh.write(f"{t.position[0]:.9g},{t.position[1]:.9g},{t.position[2]:.9g},{t.amplitude:.9g}\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x,y,z,qw,qx,qy,qz\n")
        for p in traj.poses:
            fields = [p.time_s, *p.position, *p.quaternion]
            fh.write(",".join(f"{v:.12g}" for v in fields) + "\n")
