"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of the same code drifts by tens of percent
within a minute. The benchmark runs this kernel between operations and
rescales each operation's wall time to the speed at which the kernel takes
REF_S seconds. The kernel mixes the kinds of work qcomm does (interpreter
loops, dict and JSON handling, small dense BLAS and LAPACK calls, a sort of
a few MB) and never calls qcomm, so a change to qcomm cannot move it.
"""

import json
import time

import numpy as np

# Kernel wall time at the reference speed (a 2-vCPU Xeon VM, one BLAS thread).
REF_S = 0.016


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 128)) + 0j
        self.e = rng.standard_normal((64, 64)) + 0j
        self.big = rng.standard_normal(400_000)

    def __call__(self):
        """Wall time of one run of the kernel, in seconds."""
        t0 = time.perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i
        json.dumps({str(i): [i, i * 0.5] for i in range(5_000)})
        for _ in range(4):
            self.a @ self.a
        np.linalg.eigvals(self.e)
        np.sort(self.big)
        return time.perf_counter() - t0
