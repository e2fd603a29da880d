"""insarmap benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload {demo,street} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from the
checkout's src/ tree, so nothing is installed.  Every execution of the
workload happens in a fresh child process (perfbench/child.py) at one imaging
thread, with the BLAS and OpenMP pools pinned to one thread.

--trace 0 measures the end-to-end metrics for S seconds: a closed loop of
pipeline runs, each preceded by a timed reference kernel and a set-up-only
run, reporting medians of host-speed-scaled times.
--trace 1 makes one untraced run with the imaging probe and one traced run,
and reports the per-layer metrics.

Every run is checked: exit status, the workload's height gate, artifact
hashes equal across the runs of one source tree and seed (kept in a ledger
under .perfbench-work/), and, in the probe, image_stack at 1 and 2 threads
bitwise equal.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from workloads import THREADS, WORKLOADS, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
LEDGER = WORK_ROOT / "ledger.json"

REALIZATIONS = 3  # noise realizations per run; each runs at least once
REFERENCE_S = 0.3  # nominal reference.py time that reported times are scaled to
RUN_LIMIT_S = 165.0  # measured from the start of the run
HELD_OUT_SEED = 90210  # never used while tuning; re-check gain claims on it
LOAD_FNS = ("configio.parse_kv_file", "configio.load_scene_csv", "configio.load_trajectory_csv")
FORMAT_FNS = (
    "write_capture", "read_capture", "write_image_stack", "read_image_stack",
    "write_elevation_map", "read_elevation_map",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns child runs and checks them; counts attempts and failures."""

    def __init__(self, workdir: Path, source_digest: str) -> None:
        self.workdir = workdir
        self.source_digest = source_digest
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0
        # no child may outlive this, so the whole run ends within 180 s
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, spec: dict) -> dict:
        self._n += 1
        spec_path = self.workdir / f"run{self._n}.spec.json"
        result_path = self.workdir / f"run{self._n}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), repr(t_spawn)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic()
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
        result.update(returncode=proc.returncode, stdout=out, stderr=err, t_exit=t_exit)
        return result

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def reference(self) -> float:
        """Seconds from spawning reference.py to the end of its work."""
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "reference.py")], cwd=ROOT, env=self.env,
            capture_output=True, text=True, check=True, timeout=max(1.0, self.deadline - t0),
        )
        return float(out.stdout.split()[-1]) - t0

    def setup_probe(self, spec: dict) -> float | None:
        self.attempted += 1
        res = self.spawn({**spec, "setup_only": True})
        if res["returncode"] != 0 or "t_first" not in res:
            self.fail(f"set-up run exited {res['returncode']}: {res.get('error') or res['stderr'][-2000:]}")
            return None
        return res["t_first"] - res["t_spawn"]

    def execute(self, workload, spec: dict, expect: dict | None = None, **flags) -> dict | None:
        """One full run; returns the result with artifacts and errors, or
        None if it failed any check."""
        self.attempted += 1
        res = self.spawn({**spec, **flags})
        label = f"{spec['workload']} (seed {spec['seed']}, {flags or 'plain'})"
        if res["returncode"] != 0 or "error" in res or res.get("rc", 0) != 0 or "t_end" not in res:
            self.fail(f"{label} exited {res['returncode']}/{res.get('rc')}: "
                      f"{res.get('error') or res['stderr'][-2000:]}")
            return None
        out = Path(spec["out_dir"])
        try:
            res["artifacts"] = {p.name: file_digest(p) for p in sorted(out.iterdir())}
            res["errors_cm"] = cli_height_errors(out, spec["reference"])
        except (OSError, ValueError) as exc:
            self.fail(f"{label}: unreadable artifacts: {exc}")
            return None
        reason = workload.gate(res["errors_cm"])
        if reason is None and expect is not None and res["artifacts"] != expect:
            reason = "artifacts differ between runs of one seed"
        if reason is None:
            reason = self.ledger_check(f"{spec['workload']}/{spec['seed']}", res["artifacts"])
        probe = res.get("probe")
        if reason is None and probe is not None and not probe["threads_bitwise_equal"]:
            reason = "image_stack at 1 thread differs bitwise from 2 threads"
        if reason is not None:
            self.fail(f"{label}: {reason}")
            return None
        return res

    def ledger_check(self, key: str, artifacts: dict) -> str | None:
        """Artifacts of one source tree and seed must repeat across runs."""
        ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
        key = f"{self.source_digest}/{key}"
        if key in ledger:
            return None if ledger[key] == artifacts else "artifacts differ from an earlier run"
        ledger[key] = artifacts
        tmp = LEDGER.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, LEDGER)
        return None


def file_digest(path: Path) -> list:
    data = path.read_bytes()
    return [hashlib.sha256(data).hexdigest(), len(data)]


def cli_height_errors(out: Path, reference) -> list:
    """Height errors from cloud.csv, with the phase center read from the
    INSARELV header (magic, u32 version, 5 f64 grid, 3 f64 phase center)."""
    with open(out / "elevation.insarelv", "rb") as fh:
        head = fh.read(76)
    if head[:8] != b"INSARELV":
        raise ValueError("elevation.insarelv has a bad magic")
    phase_center = struct.unpack("<3d", head[52:76])
    cloud = np.loadtxt(out / "cloud.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    from workloads import recover_heights

    return recover_heights(cloud, phase_center, reference)


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources: the ledger key."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": THREADS,
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)} value={values[0] if values else None}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={median(values):.4g} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


def noise_seeds(seed: int) -> list[int]:
    """The run's noise realizations; the first is the workload seed itself."""
    return [seed + r * 1_000_000 for r in range(REALIZATIONS)]


def accuracy(errors_by_realization) -> tuple[float, int]:
    """RMS height error over every found target of every realization, and the
    fewest targets found in any realization."""
    found = [e for errors in errors_by_realization for e in errors if e is not None]
    rms = (sum(e * e for e in found) / len(found)) ** 0.5 if found else float("nan")
    return rms, min(sum(e is not None for e in errors) for errors in errors_by_realization)


def measure(runner: Runner, workload, seed: int, seconds: float) -> dict | None:
    """Closed loop of untraced runs for the given seconds, cycling through the
    noise realizations; end-to-end metrics.

    Each cycle times reference.py, then a set-up-only run, then a full run.
    The host this was written on changed speed by up to 70% over minutes;
    the middle half of ten run medians of one code then spread by a third
    of their median, and the reference's median moved with them.  So each
    reported time is the run's median scaled by REFERENCE_S over the run's
    median reference time: the time on a host on which the reference takes
    REFERENCE_S.  Scaling each sample by its own cycle's reference instead
    was noisier.  The raw medians are printed too."""
    specs = [workload.prepare(runner.workdir / f"inputs{r}", s) for r, s in enumerate(noise_seeds(seed))]
    t_begin = time.monotonic()
    deadline = t_begin + seconds
    times = {"wall_s": [], "cpu_s": [], "setup_s": []}
    refs, rss, cycle_s = [], [], []
    artifacts: dict[int, dict] = {}
    errors: dict[int, list] = {}
    while True:
        t_cycle = time.monotonic()
        r = len(cycle_s) % REALIZATIONS
        refs.append(runner.reference())
        s = runner.setup_probe(specs[r])
        if s is not None:
            times["setup_s"].append(s)
        res = runner.execute(workload, specs[r], artifacts.get(r))
        if res is not None:
            artifacts[r] = res["artifacts"]
            errors[r] = res["errors_cm"]
            times["setup_s"].append(res["t_first"] - res["t_spawn"])
            times["wall_s"].append(res["t_end"] - res["t_first"])
            times["cpu_s"].append(res["cpu_end"] - res["cpu_first"])
            rss.append(res["maxrss_kib"] / 1024.0)
        now = time.monotonic()
        cycle_s.append(now - t_cycle)
        if len(cycle_s) >= REALIZATIONS and now + median(cycle_s) > deadline:
            break
        if now + median(cycle_s) > runner.deadline - 15.0:
            break
    if not rss:
        return None
    scale = REFERENCE_S / median(refs)
    print(f"reference_s {spread(refs)} scale={scale:.4f}")
    for name, values in times.items():
        print(f"{name} raw {spread(values)}")
    print(f"peak_rss_mb {spread(rss)}")
    for r in sorted(errors):
        print(f"height_errors_cm[{r}] {errors[r]}")
    rms, found = accuracy(errors.values())
    return {
        "wall_s": metric(median(times["wall_s"]) * scale, "s"),
        "cpu_s": metric(median(times["cpu_s"]) * scale, "s"),
        "peak_rss_mb": metric(median(rss), "MiB"),
        "setup_s": metric(median(times["setup_s"]) * scale, "s"),
        "height_rms_cm": metric(rms, "cm"),
        "targets_found": metric(found, "count"),
    }


def trace(runner: Runner, workload, spec: dict) -> dict | None:
    """Untraced run with the imaging probe, then a traced run; per-layer metrics."""
    base = runner.execute(workload, spec, probe=True)
    if base is None:
        return None
    traced = runner.execute(workload, spec, base["artifacts"], trace=True)
    if traced is None:
        return None
    traced_spans = traced["spans"]
    probe, counts = base["probe"], base["counts"]

    problems = []

    def wall(name, field="wall"):
        value = spans.total(traced_spans, name, field)
        if value is None:
            problems.append(f"no span {name}")
            return float("nan")
        return value

    m = {}
    img = wall("imaging.image_stack")
    img_cpu = wall("imaging.image_stack", field="cpu")
    pixel_pulses = counts["in_aperture"] * counts["pixels"]
    m["imaging.image_stack.wall_s"] = metric(img, "s")
    m["imaging.image_stack.cpu_s"] = metric(img_cpu, "s")
    # the runs image on one thread; the probe's 2-thread call shows how
    # image_stack uses a second one
    m["imaging.parallelism"] = metric(probe["image_stack_2threads_cpu_s"] / probe["image_stack_2threads_s"], "ratio")
    m["imaging.speedup_2t"] = metric(probe["image_stack_1thread_s"] / probe["image_stack_2threads_s"], "ratio")
    m["imaging.pixel_pulses"] = metric(pixel_pulses, "count")
    m["imaging.pixel_pulses_per_s"] = metric(pixel_pulses / img, "1/s")
    m["imaging.range_compress.wall_s"] = metric(probe["range_compress_s"], "s")

    synth = wall("simulate.synthesize_capture")
    m["simulate.synthesize_capture.wall_s"] = metric(synth, "s")
    m["simulate.target_chirps_per_s"] = metric(counts["records"] * counts["targets"] / synth, "1/s")
    m["simulate.add_noise.wall_s"] = metric(wall("simulate.add_noise"), "s")
    m["simulate.records"] = metric(counts["records"], "count")

    for fn in FORMAT_FNS:
        m[f"formats.{fn}.wall_s"] = metric(wall(f"formats.{fn}"), "s")
    capture_mb = traced["artifacts"]["capture.insarraw"][1] / 1e6
    m["formats.capture_mb"] = metric(capture_mb, "MB")
    m["formats.read_capture.mb_per_s"] = metric(capture_mb / m["formats.read_capture.wall_s"]["value"], "MB/s")

    m["interferometry.build_elevation_map.wall_s"] = metric(wall("interferometry.build_elevation_map"), "s")
    m["interferometry.valid_px"] = metric(counts["valid_px"], "count")

    m["pointcloud.filter_points.wall_s"] = metric(wall("pointcloud.filter_points"), "s")
    m["pointcloud.write_pcd.wall_s"] = metric(wall("pointcloud.write_pcd"), "s")
    m["pointcloud.write_csv.wall_s"] = metric(wall("pointcloud.write_csv"), "s")
    m["pointcloud.points_kept"] = metric(counts["kept"], "count")
    m["pointcloud.kept_ratio"] = metric(counts["kept"] / counts["candidates"], "ratio")

    stages = [wall(f"cli.stage.{name}") for name in spans.CLI_STAGES]
    for name, seconds in zip(spans.CLI_STAGES, stages):
        m[f"cli.stage.{name}.wall_s"] = metric(seconds, "s")
    m["cli.overhead_s"] = metric(traced["t_exit"] - traced["t_spawn"] - sum(stages), "s")
    m["configio.load.wall_s"] = metric(sum(wall(fn) for fn in LOAD_FNS), "s")

    self_times = spans.layer_self_times(traced_spans)
    for layer in ("simulate", "imaging", "interferometry", "pointcloud"):
        m[f"{layer}.self_s"] = metric(self_times[layer], "s")
    m["trace.overhead_s"] = metric(
        (traced["t_end"] - traced["t_first"]) - (base["t_end"] - base["t_first"]), "s"
    )

    print("self_s " + json.dumps({k: round(v, 4) for k, v in self_times.items()}))
    expected = workload.bottleneck
    largest = max(self_times, key=self_times.get)
    if largest != expected:
        problems.append(f"largest self time is {largest}, expected {expected}")
    if problems:
        runner.fail("traced run: " + "; ".join(problems))
    print(f"probe {json.dumps(probe)}")
    print(f"counts {json.dumps(counts)}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "insarmap" / "__init__.py").is_file():
        print(f"error: no insarmap sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    info = provenance(args)
    print("provenance " + json.dumps(info))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, info["source_sha256"])
        if args.trace:
            metrics = trace(runner, workload, workload.prepare(workdir / "inputs0", args.seed))
        else:
            metrics = measure(runner, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
