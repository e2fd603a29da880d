"""Command-line pipeline: simulate -> image -> elevate -> pointcloud.

Every stage materializes its artifact as a file, so the one-shot `pipeline`
command is exactly the four stages run back to back on those files.  Exit
codes: 0 success, 2 config/parse or file error (a missing, unreadable or
undecodable file, or a directory where a file belongs), 3 data-format
error, 4 numerical-domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import configio, formats, imaging, interferometry, pointcloud, simulate
from .errors import ConfigError, DataFormatError, DomainError
from .types import derive_chirp_params


def _load_config(path) -> dict:
    return configio.parse_kv_file(path) if path else {}


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise ConfigError("simulate requires --config with the chirp parameters")
    chirp = configio.load_chirp_config(cfg, source=str(args.config))
    derived = derive_chirp_params(chirp)
    array = configio.load_virtual_array(cfg, derived.wavelength_m)
    scene = configio.load_scene_csv(args.scene)
    # surface the trajectory speed warning on stderr instead of the warning
    # machinery, so scripts see it regardless of -W settings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = configio.load_trajectory_csv(args.trajectory)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    window = None
    if "capture_start_s" in cfg or "capture_end_s" in cfg:
        window = (
            configio._number(cfg, "capture_start_s", traj.start_time_s),
            configio._number(cfg, "capture_end_s", traj.end_time_s),
        )
    pattern_cos_power = configio._number(cfg, "element_pattern_cos_power")
    snr_db = configio._number(cfg, "per_sample_snr_db", float("inf"))
    # the capture is synthesized and noised in its output file, which holds
    # its samples; a failure leaves the output as it was
    with formats.capture_file(args.output) as samples:
        capture = simulate.synthesize_capture(
            scene, traj, chirp, array, window, pattern_cos_power=pattern_cos_power, samples=samples
        )
        capture = simulate.add_noise(capture, snr_db, seed=args.seed)
        formats.write_capture(capture, args.output)
    print(f"[simulate] wrote {args.output}")
    print(
        f"[simulate] pulses: {capture.n_records} records over {capture.n_cycles} TDM cycles, "
        f"duration {capture.duration_s():.4f} s, {array.n_vx} VX"
    )
    return 0


def _peak_magnitude(images: np.ndarray) -> float:
    """The largest |pixel| of a stack, one plane at a time: np.abs of the
    whole stack would be a float32 temporary of its size."""
    return max(float(np.abs(plane).max()) for plane in images)


def _cmd_image(args) -> int:
    # the PGMs are written before the stack replaces -o: a --pgm-dir in -o
    # would be made, and then fail the stage
    output = os.path.realpath(args.output)
    if args.pgm_dir and os.path.commonpath([os.path.realpath(args.pgm_dir), output]) == output:
        raise ConfigError(f"--pgm-dir {args.pgm_dir} is or lies in the -o output")
    cfg = _load_config(args.config)
    grid = configio.load_grid(cfg)
    aperture = configio.load_aperture(cfg)
    options = configio.load_imaging_options(cfg)
    # the samples stay in the file: image_stack reads the aperture's records
    # a cycle batch at a time, and adds them into the stack in its output
    # file a pixel block at a time; a failure, the PGMs' included, leaves
    # the output as it was
    capture = formats.read_capture(args.capture)
    with formats.stack_file(args.output) as images:
        stack = imaging.image_stack(capture, grid, aperture, threads=args.threads, images=images, **options)
        formats.write_image_stack(stack, args.output)
        if args.pgm_dir:
            pgm_dir = Path(args.pgm_dir)
            pgm_dir.mkdir(parents=True, exist_ok=True)
            for k in range(stack.array.n_vx):
                formats.write_pgm(stack.images[k], pgm_dir / f"vx{k:02d}.pgm")
        peak = _peak_magnitude(stack.images)  # a device output cannot be read after the block
    print(f"[image] wrote {args.output}")
    print(
        f"[image] {stack.array.n_vx} VX images of {grid.n_u}x{grid.n_v} px "
        f"({grid.extent_m[0]:.2f} m x {grid.extent_m[1]:.2f} m at {grid.pixel_size_m:.3f} m), "
        f"peak |I| = {peak:.4g}"
    )
    if args.pgm_dir:
        print(f"[image] dumped {stack.array.n_vx} log-magnitude PGMs to {pgm_dir}")
    return 0


def _cmd_elevate(args) -> int:
    stack = formats.read_image_stack(args.stack)
    emap = interferometry.build_elevation_map(stack)
    formats.write_elevation_map(emap, args.output)
    valid = np.isfinite(emap.elevation)
    print(f"[elevate] wrote {args.output}")
    if valid.any():
        deg = np.degrees(emap.elevation[valid])
        print(
            f"[elevate] elevation recovered on {int(valid.sum())}/{valid.size} px, "
            f"range [{deg.min():.2f}, {deg.max():.2f}] deg, baseline {emap.baseline_m * 1e3:.4f} mm"
        )
    else:
        print("[elevate] no pixel has a recoverable elevation")
    return 0


def _filter_report(cloud: pointcloud.ElevationPointCloud, cfg: pointcloud.FilterConfig) -> list[str]:
    stats = cloud.stats
    total = max(stats.candidates, 1)
    labels = {
        "no_elevation": "no recoverable elevation",
        "snr": f"snr < {cfg.snr_threshold_db:g} dB",
        "circular_variance": f"circular variance > {cfg.max_circular_variance:g}",
        "elevation_angle": f"|elevation| > {cfg.max_elevation_angle_deg:g} deg",
        "front_cone": (
            f"front cone (r < {cfg.min_radius_m:g} m, "
            f"|az - {cfg.front_azimuth_deg:g}| <= {cfg.front_azimuth_halfwidth_deg:g} deg)"
        ),
        "underground": f"underground (z < {cfg.resolved_min_z_m:g} m)",
    }
    lines = [f"[filter] candidates: {stats.candidates}"]
    for key, count in stats.rejected.items():
        lines.append(f"[filter] rejected {labels[key]}: {count} ({100.0 * count / total:.1f}%)")
    lines.append(f"[filter] kept: {stats.kept}")
    if len(cloud):
        z = cloud.z
        # the elevation the filter bounds: the angle above the sensor plane
        r = np.sqrt(cloud.x**2 + cloud.y**2 + z**2)
        eps = np.degrees(np.arcsin(np.clip(z / np.maximum(r, 1e-30), -1, 1)))
        lines.append(
            f"[filter] elevation deg: min={eps.min():.2f} max={eps.max():.2f} mean={eps.mean():.2f}"
        )
        lines.append(
            f"[filter] z range: [{z.min():.3f}, {z.max():.3f}] m relative to phase center"
        )
    return lines


def _cmd_pointcloud(args) -> int:
    # each output replaces its path when done, so one would silently replace
    # the other
    if args.csv and os.path.realpath(args.csv) == os.path.realpath(args.output):
        raise ConfigError(f"--csv {args.csv} is the -o output")
    cfg = _load_config(args.config)
    emap = formats.read_elevation_map(args.map)
    fcfg = configio.load_filter_config(cfg)
    cloud = pointcloud.filter_points(emap, fcfg)
    # every output is opened before any is written, so one that cannot be
    # opened or written leaves every output as it was
    with contextlib.ExitStack() as outputs:
        pcd, csv = [
            outputs.enter_context(pointcloud._open_output(p)) if p else None for p in (args.output, args.csv)
        ]
        pointcloud.write_pcd(cloud, pcd)
        if csv is not None:
            pointcloud.write_csv(cloud, csv)
    print(f"[pointcloud] wrote {args.output} ({len(cloud)} points)")
    if args.csv:
        print(f"[pointcloud] wrote {args.csv}")
    for line in _filter_report(cloud, fcfg):
        print(line)
    return 0


def _cmd_report(args) -> int:
    cfg = _load_config(args.config)
    emap = formats.read_elevation_map(args.map)
    fcfg = configio.load_filter_config(cfg)
    cloud = pointcloud.filter_points(emap, fcfg)
    for line in _filter_report(cloud, fcfg):
        print(line)
    return 0


def _cmd_pipeline(args) -> int:
    """Run all four stages back to back, materializing every artifact."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    capture = out_dir / "capture.insarraw"
    stack = out_dir / "stack.insarimg"
    emap = out_dir / "elevation.insarelv"
    # built per call, so a handler replaced on the module (say, wrapped by a
    # tracer) is the one that runs
    stages = (
        ("simulate", _cmd_simulate, dict(scene=args.scene, trajectory=args.trajectory, output=capture)),
        ("image", _cmd_image, dict(capture=capture, threads=args.threads, output=stack, pgm_dir=None)),
        ("elevate", _cmd_elevate, dict(stack=stack, output=emap)),
        ("pointcloud", _cmd_pointcloud, dict(map=emap, output=out_dir / "cloud.pcd", csv=out_dir / "cloud.csv")),
    )
    for name, handler, stage_args in stages:
        t0 = time.monotonic()
        handler(argparse.Namespace(config=args.config, seed=args.seed, **stage_args))
        print(f"[pipeline] stage {name}: {time.monotonic() - t0:.2f} s")
    print(f"[pipeline] artifacts in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insarmap",
        description="Interferometric SAR elevation mapping pipeline",
    )
    # global flags; --config and --out-dir may equally be given after the
    # subcommand (SUPPRESS keeps the subparser from clobbering the global)
    parser.add_argument("--config", default=None, help="key-value config file")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for noise synthesis")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for imaging")
    parser.add_argument("--out-dir", default=".", help="directory for pipeline artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_opt(p):
        p.add_argument("--config", default=argparse.SUPPRESS, help="key-value config file")

    p = sub.add_parser("simulate", help="synthesize a raw capture for a point-target scene")
    p.add_argument("scene", help="scene CSV (x,y,z,amplitude)")
    p.add_argument("trajectory", help="trajectory CSV (t,x,y,z,qw,qx,qy,qz)")
    config_opt(p)
    p.add_argument("-o", "--output", required=True, help="output .insarraw path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("image", help="form per-VX SAR images by backprojection")
    p.add_argument("capture", help="input .insarraw capture")
    config_opt(p)
    p.add_argument("-o", "--output", required=True, help="output .insarimg path")
    p.add_argument("--pgm-dir", help="also dump per-VX log-magnitude PGMs here")
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("elevate", help="extract the interferometric elevation map")
    p.add_argument("stack", help="input .insarimg image stack")
    p.add_argument("-o", "--output", required=True, help="output .insarelv path")
    p.set_defaults(func=_cmd_elevate)

    p = sub.add_parser("pointcloud", help="filter and de-project to a 3D point cloud")
    p.add_argument("map", help="input .insarelv elevation map")
    config_opt(p)
    p.add_argument("-o", "--output", required=True, help="output .pcd path")
    p.add_argument("--csv", help="also write a CSV export with quality attributes")
    p.set_defaults(func=_cmd_pointcloud)

    p = sub.add_parser("pipeline", help="run all stages, materializing each artifact")
    p.add_argument("scene")
    p.add_argument("trajectory")
    config_opt(p)
    p.add_argument("--out-dir", default=argparse.SUPPRESS, help="directory for all artifacts")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="print the filter accounting for an elevation map")
    p.add_argument("map", help="input .insarelv elevation map")
    config_opt(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a missing or unreadable file, or a directory given as one
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
