"""Workload definitions: seeded inputs, reference targets and correctness gates.

Two workloads, each chosen to sit on a different side of the pipeline's
performance levers; both run the `insarmap pipeline` CLI in a subprocess, so
both pay for process start, import and a write plus read of every artifact:

- demo: the README quickstart on the pinned demo inputs.  3 756 pulses per
  pixel, so it is pulse-heavy and imaging-bound.
- street: a generated 24-target street scene with a 5 cm aperture and a
  12 m x 12 m grid.  It is scatterer-heavy with 396 pulses per pixel, so
  synthesis dominates and imaging is a minor share.

The workload seed is the noise seed, so one seed always yields the same
inputs.  Scenes are fixed; see Street.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Reference 77 GHz 3 TX x 4 RX chirp (criterion 1 and demo/radar.cfg).
CHIRP = {
    "center_frequency_hz": 77.4e9,
    "ramp_slope_hz_per_s": 30e12,
    "samples_per_chirp": 512,
    "sample_rate_sps": 18.75e6,
    "pri_s": 63.9e-6,
    "chirps_per_tx_per_frame": 256,
    "num_tx": 3,
}
FILTER_KEYS = {
    "snr_threshold_db": 15,
    "max_elevation_angle_deg": 45,
    "min_radius_m": 2,
    "front_azimuth_halfwidth_deg": 15,
    "max_circular_variance": 0.1,
}
# Measured runs image on one thread.  On a 2-vCPU shared host, image_stack
# on demo took 3.7 s of wall and 6.2 s of CPU at 2 threads against 4.1 s at
# 1, and 2-thread wall times followed whatever else the host ran.  The
# traced run's probe still times image_stack at 2 threads.
THREADS = 1
RECOVERY_WINDOW_M = 0.25  # criterion 1's along-track and slant-range window


class Workload:
    """One benchmark workload.

    prepare returns the child-run spec: the argv of an `insarmap pipeline`
    command and what its outputs are checked against.
    """

    name = ""
    bottleneck = "imaging"  # the layer with the largest self time

    def prepare(self, workdir: Path, seed: int) -> dict:
        """Write the inputs for seed under workdir; return the run spec."""
        raise NotImplementedError

    def gate(self, errors_cm: list[float | None]) -> str | None:
        """Return None if the recovered heights pass, else the reason."""
        raise NotImplementedError


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return repr(value)


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in values.items()), encoding="ascii")


def write_scene(path: Path, targets: list[tuple[float, float, float, float]]) -> None:
    rows = ["x,y,z,amplitude"] + [",".join(repr(float(v)) for v in t) for t in targets]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


def write_rail(path: Path, t0: float, t1: float, speed: float, height: float) -> None:
    """Straight rail along +x at constant speed with identity orientation."""
    rows = ["t,x,y,z,qw,qx,qy,qz"]
    for t in (t0, t1):
        rows.append(",".join(repr(float(v)) for v in (t, speed * t, 0.0, height, 1.0, 0.0, 0.0, 0.0)))
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


def read_scene(path: Path) -> list[tuple[float, ...]]:
    lines = path.read_text(encoding="ascii").split()
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]


def _cli_spec(name: str, workdir: Path, seed: int, reference) -> dict:
    out = workdir / "out"
    return {
        "workload": name,
        "seed": seed,
        "argv": [
            "--seed", str(seed), "--threads", str(THREADS), "pipeline",
            str(workdir / "scene.csv"), str(workdir / "trajectory.csv"),
            "--config", str(workdir / "radar.cfg"), "--out-dir", str(out),
        ],
        "scene": str(workdir / "scene.csv"),
        "config": str(workdir / "radar.cfg"),
        "out_dir": str(out),
        "reference": reference,
    }


class Demo(Workload):
    """The README quickstart on the pinned copy of demo/: three reflectors,
    5 004 records (3 756 in the 0.3 m aperture), 150 x 150 px."""

    name = "demo"
    # At the seed commit the three errors are +1.54, +0.61 and -1.90 cm.
    max_abs_err_cm = 2.5

    def prepare(self, workdir: Path, seed: int) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        for name in ("scene.csv", "trajectory.csv", "radar.cfg"):
            shutil.copyfile(HERE / "inputs" / "demo" / name, workdir / name)
        reference = [list(t[:3]) for t in read_scene(workdir / "scene.csv")]
        return _cli_spec(self.name, workdir, seed, reference)

    def gate(self, errors_cm):
        if any(e is None for e in errors_cm):
            return f"reflector not found: {errors_cm}"
        if max(abs(e) for e in errors_cm) > self.max_abs_err_cm:
            return f"height error beyond {self.max_abs_err_cm} cm: {errors_cm}"
        return None


class Street(Workload):
    """24 point targets on a jittered 6 x 4 lattice over x = +-4.5 m,
    y = 4..11 m, heights -0.3..1.5 m about a 0.5 m sensor; an 8 m/s pass of
    0.06 s (3 756 records, 396 of them in the 5 cm aperture) imaged on a
    12 m x 12 m grid."""

    name = "street"
    bottleneck = "simulate"
    sensor_height_m = 0.5
    speed_mps = 8.0
    half_time_s = 0.03
    cols, rows = 6, 4
    x_span = (-4.5, 4.5)
    y_span = (4.0, 11.0)
    height_span = (-0.3, 1.5)
    jitter_m = 0.05
    # The layout is fixed: the per-target errors change by centimeters when
    # a target moves by millimeters (neighbour sidelobes interfere at the
    # 3.9 mm wavelength), so a seeded layout would make the accuracy
    # metrics vary with the seed far beyond any bound.
    layout_seed = 0
    min_found = 22
    max_median_err_cm = 3.0

    def targets(self) -> list[tuple[float, float, float, float]]:
        """Lattice nodes at cell centers, heights on a fixed ramp spread over
        the lattice in a scrambled order, each jittered by up to 5 cm."""
        rng = random.Random(self.layout_seed)
        dx = (self.x_span[1] - self.x_span[0]) / self.cols
        dy = (self.y_span[1] - self.y_span[0]) / self.rows
        n = self.cols * self.rows
        lo, hi = self.height_span[0] + self.jitter_m, self.height_span[1] - self.jitter_m
        out = []
        for j in range(self.rows):
            for i in range(self.cols):
                k = j * self.cols + i
                x = self.x_span[0] + (i + 0.5) * dx + rng.uniform(-self.jitter_m, self.jitter_m)
                y = self.y_span[0] + (j + 0.5) * dy + rng.uniform(-self.jitter_m, self.jitter_m)
                h = lo + (hi - lo) * ((7 * k) % n) / (n - 1) + rng.uniform(-self.jitter_m, self.jitter_m)
                out.append((x, y, self.sensor_height_m + h, 1.0))
        return out

    def prepare(self, workdir: Path, seed: int) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        targets = self.targets()
        write_scene(workdir / "scene.csv", targets)
        write_rail(
            workdir / "trajectory.csv",
            -self.half_time_s, self.half_time_s, self.speed_mps, self.sensor_height_m,
        )
        write_config(
            workdir / "radar.cfg",
            {
                **CHIRP,
                "per_sample_snr_db": 20,
                "grid_origin_m": (-6.0, 0.0),
                "grid_extent_m": (12.0, 12.0),
                "pixel_size_m": 0.04,
                "aperture_length_m": 0.05,
                "oversample_factor": 4,
                "range_window": "rectangular",
                "interpolation": "linear",
                **FILTER_KEYS,
                "sensor_height_m": self.sensor_height_m,
            },
        )
        return _cli_spec(self.name, workdir, seed, [list(t[:3]) for t in targets])

    def gate(self, errors_cm):
        found = [abs(e) for e in errors_cm if e is not None]
        if len(found) < self.min_found:
            return f"only {len(found)} of {len(errors_cm)} targets found"
        med = median(found)
        if med > self.max_median_err_cm:
            return f"median height error {med:.2f} cm beyond {self.max_median_err_cm} cm"
        return None


WORKLOADS = {w.name: w for w in (Demo(), Street())}


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def recover_heights(points, phase_center, reference) -> list[float | None]:
    """Criterion 1's rule: per reference target, the brightest cloud point
    within 25 cm along-track and in slant range; returns the height error in
    cm (recovered - true), or None where no point qualifies.

    points is an (n, 4) array of x, y, z, intensity relative to the phase
    center.
    """
    x, y, z, intensity = np.asarray(points, dtype=float).reshape(-1, 4).T
    pc = np.asarray(phase_center, dtype=float)
    slant_pts = np.hypot(y, z)
    errors: list[float | None] = []
    for target in np.asarray(reference, dtype=float):
        rel = target - pc
        slant = np.hypot(rel[1], rel[2])
        near = (np.abs(x - rel[0]) < RECOVERY_WINDOW_M) & (np.abs(slant_pts - slant) < RECOVERY_WINDOW_M)
        if not near.any():
            errors.append(None)
            continue
        best = np.flatnonzero(near)[np.argmax(intensity[near])]
        errors.append(float(100.0 * (z[best] + pc[2] - target[2])))
    return errors
