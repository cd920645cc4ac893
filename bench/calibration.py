"""Machine-speed calibration, so that times measured at different moments compare.

Other tenants of the benchmark machine slow a process by up to 2x, in
phases that last from a second to a minute, so a whole run of 25 s can land
in a slow phase.  Every measured time is therefore divided by the time of a
fixed reference task taken around it and multiplied by ``REF_S``, the
task's time between ops on the reference machine (2 vCPUs at 2.1 GHz) in a
quiet phase.  So the benchmark reports seconds at reference speed.

The task mixes what the library's hot paths do: Python-level allocation and
arithmetic, a pass over an array larger than the L2 cache, and a sort.  It
follows the slow phases better than a pure-Python loop does (on the
reference machine the spread left after scaling was about half as large).
"""

import math
import time

import numpy as np

_ARRAY = np.random.default_rng(0).random(1 << 19)  # 4 MiB
REF_S = 0.0018


def _task() -> None:
    table = {}
    for i in range(6000):
        table[i] = (i * 0.5, math.sqrt(i))
    _ARRAY.sum()
    np.sort(_ARRAY[:50_000])


def calibrate() -> float:
    """Time of the reference task now, in seconds.

    The task runs twice and the second run is timed, so the result does
    not depend on what the previous op left in the caches, or on whether
    this is the process's first call.
    """
    _task()
    t = time.perf_counter()
    _task()
    return time.perf_counter() - t
