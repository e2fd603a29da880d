"""Shared fixtures: the production-scale chirp config and a small end-to-end scene."""

import dataclasses
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

import insarmap as im


def make_rail_trajectory(speed_mps, t_half_s, height_m, margin_s=0.0):
    """Straight rail along +x at constant speed, identity orientation."""
    t0, t1 = -t_half_s, t_half_s + margin_s
    return im.Trajectory(
        (
            im.Pose(t0, np.array([speed_mps * t0, 0.0, height_m]), np.array([1.0, 0, 0, 0])),
            im.Pose(t1, np.array([speed_mps * t1, 0.0, height_m]), np.array([1.0, 0, 0, 0])),
        )
    )


def own_samples(capture):
    """The capture on a copy of its samples: add_noise consumes the capture
    it is given, so a fixture's capture is noised through a copy."""
    return dataclasses.replace(capture, samples=capture.samples.copy())


@contextmanager
def output_pipe(path):
    """Make a named pipe at path, and yield a bytearray that holds, when the
    block ends, every byte written into the pipe in the block.  A thread
    reads the pipe as bytes come, so a writer never blocks on a full pipe;
    a write end held open until the block ends keeps the reader from
    reading end-of-file before the block's writer opens the pipe."""
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    os.set_blocking(reader, True)
    keeper = os.open(path, os.O_WRONLY)
    chunks = []

    def drain():
        while chunk := os.read(reader, 1 << 16):
            chunks.append(chunk)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    received = bytearray()
    try:
        yield received
    finally:
        os.close(keeper)
        thread.join(timeout=60)
        os.close(reader)
        assert not thread.is_alive(), "a writer still holds the pipe open"
        received.extend(b"".join(chunks))


@pytest.fixture(scope="session")
def reference_chirp():
    return im.ChirpConfig(
        center_frequency_hz=77.4e9,
        ramp_slope_hz_per_s=30e12,
        samples_per_chirp=512,
        sample_rate_sps=18.75e6,
        pri_s=63.9e-6,
        chirps_per_tx_per_frame=256,
        num_tx=3,
    )


@pytest.fixture(scope="session")
def small_chirp():
    """Production chirp timing with fewer fast-time samples, for quick runs."""
    return im.ChirpConfig(
        center_frequency_hz=77.4e9,
        ramp_slope_hz_per_s=30e12,
        samples_per_chirp=256,
        sample_rate_sps=18.75e6,
        pri_s=63.9e-6,
        chirps_per_tx_per_frame=256,
        num_tx=3,
    )


@pytest.fixture(scope="session")
def small_scene_truth():
    """Two point targets: one in the sensor plane, one at 10 deg elevation."""
    dz = 5.0 * np.tan(np.radians(10.0))  # 10 deg about the aperture axis
    return (
        {"position": np.array([0.0, 4.0, 0.5]), "amplitude": 1.0},
        {"position": np.array([-0.3, 5.0, 0.5 + dz]), "amplitude": 1.0},
    )


@pytest.fixture(scope="session")
def small_e2e(small_chirp, small_scene_truth):
    """Noiseless simulated capture, image stack, and elevation map.

    Sensor on a rail at z = 0.5 m moving at 5 m/s; 0.4 m aperture; grid
    covering both targets at the standard 4 cm pixels.
    """
    derived = im.derive_chirp_params(small_chirp)
    array = im.default_virtual_array(derived.wavelength_m)
    traj = make_rail_trajectory(5.0, 0.05, 0.5)
    scene = im.Scene(
        tuple(im.PointTarget(t["position"], t["amplitude"]) for t in small_scene_truth)
    )
    capture = im.synthesize_capture(scene, traj, small_chirp, array)
    grid = im.ImageGrid(np.array([-1.5, 2.5]), np.array([3.0, 4.0]), 0.04)
    aperture = im.Aperture(length_m=0.4)
    stack = im.image_stack(capture, grid, aperture, threads=2)
    emap = im.build_elevation_map(stack)
    return {
        "config": small_chirp,
        "array": array,
        "trajectory": traj,
        "scene": scene,
        "capture": capture,
        "grid": grid,
        "aperture": aperture,
        "stack": stack,
        "map": emap,
    }


def peak_pixel(stack):
    """Index of the brightest pixel of the combined magnitude."""
    mag = np.abs(stack.images).mean(axis=0)
    return np.unravel_index(np.argmax(mag), mag.shape)


def peak_near(stack, u, v, window_m=0.3):
    """Brightest pixel within a window around world (u, v)."""
    grid = stack.grid
    mag = np.abs(stack.images).mean(axis=0)
    mu = np.abs(grid.u_centers() - u) <= window_m
    mv = np.abs(grid.v_centers() - v) <= window_m
    sub = mag[np.ix_(mu, mv)]
    k = np.unravel_index(np.argmax(sub), sub.shape)
    return np.flatnonzero(mu)[k[0]], np.flatnonzero(mv)[k[1]]
