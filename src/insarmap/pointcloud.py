"""Filtering chain and 3D de-projection from elevation maps to point clouds.

A SAR image stores every source at its slant range (rotational invariance
about the aperture axis projects elevated sources outward).  De-projection
therefore reads each pixel as (r, theta) about the aperture axis and folds
the interferometric elevation back in:

    s_x = r*cos(theta),  s_y = r*sin(theta)*cos(phi),  s_z = r*sin(theta)*sin(phi)

Coordinates are relative to the phase center; theta is the cone angle
measured from the along-track axis, phi the elevation about that axis.

A vertical baseline measures the direction cosine sin(eps) = s_z / r of a
source, where eps, the map's elevation, is the angle above the sensor
plane.  So phi = arcsin(sin(eps) / sin(theta)), and s_z = r*sin(eps).
Where |sin(eps)| > |sin(theta)| no direction on the pixel's range circle
has that height: phi is NaN and the pixel has no elevation.

filter_points works one block of grid rows at a time, so besides the map's
planes it holds one block's temporaries and the kept points.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .formats import _replacing
from .imaging import _row_blocks
from .interferometry import ElevationMap


# points formatted per write in write_pcd and write_csv
_FORMAT_ROWS = 128


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds of the point-extraction filter chain.

    min_z_m defaults to minus the sensor mount height, which puts the
    underground cutoff at ground level.  front_azimuth_deg sets the cone
    axis used for the close-range forward exclusion (90 = boresight).
    """

    snr_threshold_db: float = 15.0
    max_elevation_angle_deg: float = 45.0
    min_radius_m: float = 2.0
    front_azimuth_halfwidth_deg: float = 15.0
    front_azimuth_deg: float = 90.0
    max_circular_variance: float = 0.1
    sensor_height_m: float = 0.0
    min_z_m: float | None = None

    def __post_init__(self) -> None:
        # +inf snr_threshold_db is the documented "reject everything" flag;
        # every other threshold must be a real number.
        if math.isnan(self.snr_threshold_db):
            raise ConfigError("FilterConfig.snr_threshold_db must not be NaN")
        for name in ("min_radius_m", "front_azimuth_deg", "max_circular_variance", "sensor_height_m"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"FilterConfig.{name} must be finite")
        for name in ("max_elevation_angle_deg", "front_azimuth_halfwidth_deg"):
            value = getattr(self, name)
            if not (0.0 < value <= 90.0):
                raise ConfigError(f"FilterConfig.{name} must be in (0, 90] degrees, got {value!r}")
        if self.min_z_m is not None and not math.isfinite(self.min_z_m):
            raise ConfigError("FilterConfig.min_z_m must be finite")

    @property
    def resolved_min_z_m(self) -> float:
        return -self.sensor_height_m if self.min_z_m is None else self.min_z_m


def spherical_to_cartesian(r: float, theta: float, phi: float):
    """Map (range, cone angle, elevation) to SAR Cartesian coordinates."""
    if np.any(np.asarray(r) < 0):
        raise ConfigError("range must be >= 0")
    s_x = r * np.cos(theta)
    s_y = r * np.sin(theta) * np.cos(phi)
    s_z = r * np.sin(theta) * np.sin(phi)
    return s_x, s_y, s_z


@dataclass(frozen=True)
class FilterStats:
    """Per-predicate accounting over all grid pixels."""

    candidates: int
    kept: int
    rejected: dict[str, int]


@dataclass(frozen=True, eq=False)
class ElevationPointCloud:
    """Filtered 3D points (phase-center-relative SAR Cartesian coordinates)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    intensity: np.ndarray
    snr_db: np.ndarray
    circular_variance: np.ndarray
    stats: FilterStats

    def __len__(self) -> int:
        return self.x.shape[0]


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


# the filter's rejection counts, in report order
_REJECTIONS = ("no_elevation", "snr", "circular_variance", "elevation_angle", "front_cone", "underground")


def _filter_rows(emap: ElevationMap, cfg: FilterConfig, rows: slice):
    """The kept points of a block of grid rows, as (x, y, z, intensity,
    snr_db, circular_variance) in grid order, and the number of its pixels
    each predicate of _REJECTIONS rejects.  Its own function, so a block's
    temporaries are freed before the next block's are made."""
    grid = emap.grid
    intf = emap.interferogram
    pc = emap.phase_center

    du = grid.u_centers()[rows, None] - pc[0]
    dv = grid.v_centers()[None, :] - pc[1]
    r = np.hypot(du, dv)
    theta = np.arctan2(dv, du)
    eps = emap.elevation[rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arcsin(np.sin(eps) / np.sin(theta))
    s_x, s_y, s_z = spherical_to_cartesian(r, theta, phi)

    max_elev = np.deg2rad(cfg.max_elevation_angle_deg)
    front = np.deg2rad(cfg.front_azimuth_deg)
    halfwidth = np.deg2rad(cfg.front_azimuth_halfwidth_deg)
    min_z = cfg.resolved_min_z_m
    snr, variance = intf.snr_db[rows], intf.circular_variance[rows]

    has_phi = np.isfinite(phi)
    ok_snr = snr >= cfg.snr_threshold_db
    ok_var = variance <= cfg.max_circular_variance
    with np.errstate(invalid="ignore"):
        ok_elev = np.abs(eps) <= max_elev
        in_front_cone = (r < cfg.min_radius_m) & (np.abs(_wrap_angle(theta - front)) <= halfwidth)
        ok_z = s_z >= min_z
    keep = has_phi & ok_snr & ok_var & ok_elev & ~in_front_cone & ok_z
    rejected = (~has_phi, ~ok_snr, ~ok_var, has_phi & ~ok_elev, in_front_cone, has_phi & ~ok_z)
    points = [c[keep] for c in (s_x, s_y, s_z, intf.combined_magnitude[rows], snr, variance)]
    return points, [int(np.count_nonzero(mask)) for mask in rejected]


def filter_points(emap: ElevationMap, cfg: FilterConfig | None = None) -> ElevationPointCloud:
    """Apply the filter chain and de-project the surviving pixels.

    A pixel survives iff its elevation is recoverable and de-projects (see
    the module docstring), SNR >= threshold, circular variance <= maximum,
    |elevation| <= maximum angle, it is not in the close-range forward cone
    (r < min radius AND within the front azimuth window), and its height
    clears the underground cutoff.  The maximum angle bounds the measured
    elevation eps, the angle above the sensor plane, not phi.  An empty
    cloud is a legal result.

    The predicates and the de-projection run one block of grid rows at a
    time (imaging._row_blocks), so the temporaries are one block's, and
    the per-pixel operations, and so the floats, do not depend on the
    blocks; the kept points are joined in grid order, and the counts added
    up over the blocks.
    """
    if cfg is None:
        cfg = FilterConfig()
    points, counts = zip(*(_filter_rows(emap, cfg, rows) for rows in _row_blocks(emap.grid)))
    x, y, z, intensity, snr_db, circular_variance = (np.concatenate(c) for c in zip(*points))
    return ElevationPointCloud(
        x=x,
        y=y,
        z=z,
        intensity=intensity,
        snr_db=snr_db,
        circular_variance=circular_variance,
        stats=FilterStats(
            candidates=emap.grid.n_u * emap.grid.n_v,
            kept=len(x),
            rejected=dict(zip(_REJECTIONS, np.sum(counts, axis=0).tolist())),
        ),
    )


def _write_rows(fh, row: str, columns) -> None:
    """Write one row per point, by one % format per block of _FORMAT_ROWS
    points: row holds one conversion per column, and the text is the same
    as formatting each value on its own.  The block bounds the Python
    floats and text alive at once."""
    for lo in range(0, len(columns[0]), _FORMAT_ROWS):
        values = np.column_stack([c[lo : lo + _FORMAT_ROWS] for c in columns]).ravel().tolist()
        fh.write((row * (len(values) // len(columns))) % tuple(values))


def _open_output(path):
    """path opened for ASCII text by formats._replacing, so a writer that
    fails leaves the output as it was."""
    return _replacing(path, "t", encoding="ascii", newline="\n")


def _output(path):
    """A writer's output: path opened by _open_output, or path itself when
    it is a text file already open for writing."""
    return nullcontext(path) if hasattr(path, "write") else _open_output(path)


def write_pcd(cloud: ElevationPointCloud, path) -> None:
    """Write an ASCII PCD v0.7 file with x/y/z/intensity fields.  path is a
    path, or a text file open for writing.  A write to a path that fails
    leaves the output as it was, as formats' writers do."""
    n = len(cloud)
    for arr in (cloud.x, cloud.y, cloud.z, cloud.intensity):
        if not np.isfinite(arr).all():
            raise ConfigError("point cloud contains non-finite values")
    lines = [
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        "FIELDS x y z intensity",
        "SIZE 4 4 4 4",
        "TYPE F F F F",
        "COUNT 1 1 1 1",
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        "DATA ascii",
    ]
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")
        _write_rows(fh, "%.6g %.6g %.6g %.6g\n", (cloud.x, cloud.y, cloud.z, cloud.intensity))


def read_pcd(path) -> dict[str, np.ndarray]:
    """Parse an ASCII PCD written by write_pcd; returns field arrays.

    Raises DataFormatError, naming the file, for one that is not such a
    PCD: non-ASCII bytes, a malformed header, a POINTS count that is not an
    integer or not the number of data rows, or a row that does not hold
    one number per field."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: non-ASCII bytes in an ASCII PCD") from None
    fields: list[str] = []
    n_points = None
    data_start = None
    for i, ln in enumerate(lines):
        if ln.startswith("#") or not ln.strip():
            continue
        key, _, value = ln.partition(" ")
        if key == "FIELDS":
            fields = value.split()
        elif key == "POINTS":
            try:
                n_points = int(value)
            except ValueError:
                raise DataFormatError(f"{path}: PCD POINTS {value!r} is not an integer") from None
        elif key == "DATA":
            if value.strip() != "ascii":
                raise DataFormatError(f"{path}: unsupported PCD data mode {value!r}")
            data_start = i + 1
            break
    if not fields or n_points is None or data_start is None:
        raise DataFormatError(f"malformed PCD header in {path}")
    rows = [ln.split() for ln in lines[data_start:] if ln.strip()]
    if len(rows) != n_points:
        raise DataFormatError(f"{path}: PCD declares {n_points} points but has {len(rows)} rows")
    for k, row in enumerate(rows):
        if len(row) != len(fields):
            raise DataFormatError(f"{path}: PCD point {k} has {len(row)} values for {len(fields)} fields")
    try:
        data = np.array(rows, dtype=float).reshape(n_points, len(fields))
    except ValueError as exc:
        raise DataFormatError(f"{path}: PCD data {exc}") from None
    return {name: data[:, k] for k, name in enumerate(fields)}


def write_csv(cloud: ElevationPointCloud, path) -> None:
    """CSV export with the quality attributes kept for analysis.  path is a
    path, or a text file open for writing.  A write to a path that fails
    leaves the output as it was, as formats' writers do."""
    columns = (cloud.x, cloud.y, cloud.z, cloud.intensity, cloud.snr_db, cloud.circular_variance)
    with _output(path) as fh:
        fh.write("x,y,z,intensity,snr_db,circ_var\n")
        _write_rows(fh, "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n", columns)
