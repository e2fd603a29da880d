"""One workload execution in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON RESULT_JSON T_SPAWN

T_SPAWN is the parent's time.monotonic() taken just before it started this
process, so set-up time runs from process start to the first stage call
(simulate.synthesize_capture).  The spec selects:

- argv: the arguments of insarmap.cli.main, as `insarmap` runs it;
- setup_only: stop at the first stage call;
- trace: record a span around every call into a layer's public function;
- probe: after the run, time image_stack at 2 and 1 threads and
  range_compress on the run's capture, and check the two images are
  bitwise equal; the run itself uses the --threads of its argv.

The result JSON holds the exit status, monotonic and CPU times, peak RSS,
counts and spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


class SetupDone(Exception):
    """Raised at the first stage call of a set-up-only run."""


def hook_first_stage(result: dict, setup_only: bool) -> None:
    from insarmap import simulate

    stage = simulate.synthesize_capture

    def first_stage(*args, **kwargs):
        if "t_first" not in result:
            result["t_first"] = time.monotonic()
            result["cpu_first"] = time.process_time()
            if setup_only:
                raise SetupDone
        return stage(*args, **kwargs)

    simulate.synthesize_capture = first_stage


def mark_end(result: dict) -> None:
    result["t_end"] = time.monotonic()
    result["cpu_end"] = time.process_time()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def in_aperture_records(capture, aperture) -> int:
    """Records whose cycle pose lies within +-L/2 along-track of the pose of
    the cycle nearest the aperture center time (the documented gate)."""
    import numpy as np

    anchors: dict = {}
    for rec in capture.records:
        anchors.setdefault(rec.cycle, rec.pose)
    cycles = sorted(anchors)
    times = np.array([anchors[c].time_s for c in cycles])
    center_time = aperture.center_time_s
    if center_time is None:
        center_time = 0.5 * (times[0] + times[-1])
    center = anchors[cycles[int(np.argmin(np.abs(times - center_time)))]].position
    motion = anchors[cycles[-1]].position - anchors[cycles[0]].position
    u_hat = motion / np.linalg.norm(motion)
    half = aperture.length_m / 2.0
    return sum(
        1 for rec in capture.records if abs(float(np.dot(rec.pose.position - center, u_hat))) <= half
    )


def imaging_probe(capture, grid, aperture, options: dict) -> dict:
    from insarmap import imaging

    timed = {}
    cpu = {}
    images = {}
    for n in (2, 1):
        t0, c0 = time.monotonic(), time.process_time()
        stack = imaging.image_stack(capture, grid, aperture, threads=n, **options)
        timed[n], cpu[n] = time.monotonic() - t0, time.process_time() - c0
        images[n] = stack.images
    t0 = time.monotonic()
    imaging.range_compress(
        capture,
        oversample_factor=options.get("oversample_factor", 4),
        window=options.get("window", "rectangular"),
    )
    t_rc = time.monotonic() - t0
    return {
        "image_stack_2threads_s": timed[2],
        "image_stack_2threads_cpu_s": cpu[2],
        "image_stack_1thread_s": timed[1],
        "threads_bitwise_equal": images[2].tobytes() == images[1].tobytes(),
        "range_compress_s": t_rc,
    }


def counts(capture, n_targets: int, aperture, grid, emap, cloud) -> dict:
    import numpy as np

    return {
        "records": capture.n_records,
        "targets": n_targets,
        "in_aperture": in_aperture_records(capture, aperture),
        "pixels": grid.n_u * grid.n_v,
        "valid_px": int(np.isfinite(emap.elevation).sum()),
        "kept": cloud.stats.kept,
        "candidates": cloud.stats.candidates,
    }


def run_cli(spec: dict, result: dict) -> None:
    from insarmap import cli

    result["rc"] = cli.main(spec["argv"])
    mark_end(result)
    if spec.get("probe") and result["rc"] == 0:
        from insarmap import configio, formats, pointcloud

        out = Path(spec["out_dir"])
        cfg = configio.parse_kv_file(spec["config"])
        capture = formats.read_capture(out / "capture.insarraw")
        grid = configio.load_grid(cfg)
        aperture = configio.load_aperture(cfg)
        options = configio.load_imaging_options(cfg)
        result["probe"] = imaging_probe(capture, grid, aperture, options)
        emap = formats.read_elevation_map(out / "elevation.insarelv")
        cloud = pointcloud.filter_points(emap, configio.load_filter_config(cfg))
        n_targets = len(configio.load_scene_csv(spec["scene"]))
        result["counts"] = counts(capture, n_targets, aperture, grid, emap, cloud)


def main() -> int:
    spec_path, result_path, t_spawn = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {"t_spawn": t_spawn}
    recorder = None
    status = 0
    try:
        if spec.get("trace"):
            from spans import Recorder

            recorder = Recorder()
            recorder.instrument()
        hook_first_stage(result, bool(spec.get("setup_only")))
        run_cli(spec, result)
    except SetupDone:
        pass
    except Exception:  # reported to the parent, which counts the run as failed
        result["error"] = traceback.format_exc()
        status = 1
    if recorder is not None:
        result["spans"] = recorder.spans
    sys.stdout.flush()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
