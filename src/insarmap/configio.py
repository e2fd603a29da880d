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
import dataclasses
import typing
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError
from .imaging import Aperture, ImageGrid
from .pointcloud import FilterConfig
from .simulate import PointTarget, Scene
from .types import ChirpConfig, Pose, Trajectory, VirtualArray, build_virtual_array, default_virtual_array

def _parse_value(text: str):
    text = text.strip()
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


@contextmanager
def _text_file(path, **open_args):
    """Open path as UTF-8 text.  Bytes that do not decode raise ConfigError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8", **open_args) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def parse_kv_file(path) -> dict:
    """Parse a flat key-value config file; errors carry line numbers."""
    values: dict = {}
    with _text_file(path) as fh:
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
    not a number, NaN, an integer literal beyond float's range, and a
    non-integral value for an integer key raise ConfigError."""
    value = cfg.get(key, default)
    if value is None:
        return None
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and value == value
    try:
        number = float(value) if ok else None
    except OverflowError:  # an int that no float holds
        raise ConfigError(f"{source or 'config'}: {key} is beyond float range") from None
    if ok and integer:
        ok = number.is_integer()
    if not ok:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{source or 'config'}: {key} must be {kind}, got {value!r}")
    return int(value) if integer else number


def load_chirp_config(cfg: dict, source="") -> ChirpConfig:
    """Every ChirpConfig field is a required key; int fields take integers."""
    keys = [f.name for f in dataclasses.fields(ChirpConfig)]
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ConfigError(f"{source or 'config'}: missing required key {missing[0]!r}")
    hints = typing.get_type_hints(ChirpConfig)
    return ChirpConfig(**{key: _number(cfg, key, integer=hints[key] is int, source=source) for key in keys})


def load_virtual_array(cfg: dict, wavelength_m: float) -> VirtualArray:
    """Element positions from config, or the default two-layer layout."""
    tx = cfg.get("tx_positions_m")
    rx = cfg.get("rx_positions_m")
    if tx is None and rx is None:
        return default_virtual_array(wavelength_m)
    if tx is None or rx is None:
        raise ConfigError("tx_positions_m and rx_positions_m must be given together")
    try:
        tx, rx = np.asarray(tx, float), np.asarray(rx, float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad element positions: {exc}") from exc
    return build_virtual_array(tx, rx)


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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid configuration: {exc}") from exc


def load_aperture(cfg: dict) -> Aperture:
    return Aperture(
        length_m=_number(cfg, "aperture_length_m", Aperture.length_m),
        center_time_s=_number(cfg, "aperture_center_time_s"),
    )


def load_imaging_options(cfg: dict) -> dict:
    """image_stack's keyword options, of the keys cfg sets, so image_stack's
    own defaults apply to the rest.  The interpolation key may only be
    linear, the kernel's one interpolator, as it is when absent."""
    interpolation = cfg.get("interpolation", "linear")
    if interpolation != "linear":
        raise ConfigError(
            f"interpolation must be 'linear', got {interpolation!r}; "
            "raise oversample_factor for finer interpolation"
        )
    options = {}
    if "oversample_factor" in cfg:
        options["oversample_factor"] = _number(cfg, "oversample_factor", integer=True)
    if "range_window" in cfg:
        options["window"] = str(cfg["range_window"])
    if "image_height_m" in cfg:
        options["image_height_m"] = _number(cfg, "image_height_m")
    return options


def load_filter_config(cfg: dict) -> FilterConfig:
    """Every FilterConfig field is an optional key with the field's default."""
    return FilterConfig(**{f.name: _number(cfg, f.name, f.default) for f in dataclasses.fields(FilterConfig)})


def _read_csv_rows(path, expected_header: list[str]):
    with _text_file(path, newline="") as fh:
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
