"""Per-CPU speed sampling, so that runs made at different times compare.

On a 2-core Intel Xeon VM that shares its cores with other tenants,
their load changes how fast our code runs, CPU by CPU and
within a second: a fixed 0.5 ms loop alternates between ~0.36 ms and
~0.55 ms of CPU time.  Some phases stay slow for many minutes.  The same
``repro.mine()`` call took 1.9 s, and 3.6 s four minutes later, with
nothing else of ours running.  CPU time tracks wall time, so the
contention cannot be read off the op itself, and a median over one run
removes neither.

So while a run measures, one sampler process per CPU of interest wakes
every ``INTERVAL_S``, runs ``micro_loop`` pinned to its CPU and records
the CPU time it took (thread CPU time: a wait for the CPU is not
counted).  An op is scaled by the samples taken during it:

    scaled = measured * REFERENCE_S / mean(samples during the op)

i.e. the seconds the op takes at the speed where the loop takes
``REFERENCE_S``.  The loop is the benchmark's own code, so no change to
the program moves it.  The samplers cost each CPU about 1%.

Run as a script, this file is the sampler:
``python3 speed.py CPU FILE INTERVAL``; it exits when its parent does.
"""

from __future__ import annotations

import os
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds ``micro_loop`` takes on the 2-core Intel Xeon VM in its
#: fast state.
REFERENCE_S = 0.00036
INTERVAL_S = 0.05
_RECORD = struct.Struct("dd")  # perf_counter at start, CPU seconds


def micro_loop() -> int:
    value = 0x5DEECE66D
    acc = 0
    for i in range(1500):
        value = (value * 0x9E3779B97F4A7C15 + i) & 0xFFFFFFFFFFFFFFFF
        acc ^= value >> 7
    return acc


def sample_forever(cpu: int, path: str, interval: float) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "ab", buffering=0) as out:
        while os.getppid() == parent:
            time.sleep(interval)
            start = time.perf_counter()
            cpu_start = time.thread_time()
            micro_loop()
            out.write(_RECORD.pack(start, time.thread_time() - cpu_start))


class SpeedProbe:
    """Samplers on ``cpus``; scales op times by the samples taken during them."""

    def __init__(self, cpus, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [workdir / f"speed-cpu{cpu}.bin" for cpu in cpus]
        self.processes = [
            subprocess.Popen(
                [sys.executable, __file__, str(cpu), str(path), str(INTERVAL_S)]
            )
            for cpu, path in zip(cpus, self.paths)
        ]

    def samples(self, start: float = 0.0, end: float = float("inf")) -> list[float]:
        out = []
        for path in self.paths:
            data = path.read_bytes() if path.exists() else b""
            for at, seconds in _RECORD.iter_unpack(data[: len(data) - len(data) % _RECORD.size]):
                if start <= at <= end:
                    out.append(seconds)
        return out

    def slowdown(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean sample over ``REFERENCE_S`` in a window (1.0 = fast state).

        A window too short to hold a sample is widened until it does.
        """
        widen = 0.0
        while True:
            found = self.samples(start - widen, end + widen)
            if found:
                return statistics.fmean(found) / REFERENCE_S
            if widen > 5.0:
                raise RuntimeError("speed samplers recorded nothing")
            time.sleep(INTERVAL_S)
            widen += INTERVAL_S

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.slowdown(start, end)

    def close(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.wait()


if __name__ == "__main__":
    sample_forever(int(sys.argv[1]), sys.argv[2], float(sys.argv[3]))
