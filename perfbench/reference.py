"""A fixed piece of work in a fresh interpreter, independent of insarmap.

    python3 perfbench/reference.py

The benchmark times this process between the workload's runs, from spawn to
the end of its work, whose time.monotonic() it prints.  It starts an interpreter, imports numpy, touches fresh memory and
runs a small FFT, transcendental and interpreter loop, the same kinds of
work as a pipeline run, so its time follows how fast the host runs at that
moment.
"""

import time

import numpy as np

x = np.linspace(0.0, 1.0, 1 << 20)
acc = 0.0
for _ in range(2):
    z = np.exp(2j * np.pi * x)
    acc += float(np.abs(np.fft.fft(z.reshape(512, -1), axis=1)).sum())
total = 0
for i in range(100_000):
    total += i * i
assert acc > 0 and total > 0
print(time.monotonic())
