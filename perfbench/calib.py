"""Machine-speed calibration for the timing metrics.

On a shared host the speed of a core changes by up to 2x within a second
and the change lasts from seconds to minutes; the process's CPU time
changes with its wall time, so the cause is contention for the core
itself, and no length of run that fits the benchmark averages it away.
The operation loop therefore times a fixed reference kernel around the
operations and reports their times and work rate scaled to one speed:

    scaled = measured * REF_S / (kernel time measured alongside)

that is, the time on a core that runs the kernel in REF_S seconds. The
kernel runs the same kind of work as the program, interpreter bytecode
and numpy calls on short vectors, but none of the program's code: a
change to the program moves the scaled figures, a change of machine
speed mostly does not. The kernel is timed outside every timed interval.
Fresh set-up and CLI processes are scaled by a reference process instead
(run.py, REF_PROCESS).
"""

from __future__ import annotations

import time

import numpy as np

# A round figure within the kernel's time on the machine the reference
# figures come from: about 0.6 ms on an idle core, up to 1.5 ms under
# contention.
REF_S = 1.0e-3

_ROWS = np.linspace(-1.0, 1.0, 16).reshape(2, 8)


def kernel() -> float:
    """Fixed work of about a millisecond: small-vector rounding and
    argmin searches, as in a nearest-point search, and plain Python."""
    acc = 0.0
    for i in range(100):
        v = _ROWS[i & 1] * (0.5 + 0.01 * i)
        d = v - np.round(v)
        acc += float(d @ d) + int(np.argmin(d))
        acc += sum(k * 0.5 for k in range(12))
    return acc


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured next to ``kernel_s`` into a time
    at the reference speed."""
    return REF_S / kernel_s
