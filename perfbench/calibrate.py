"""A fixed probe of how fast this machine runs Python right now.

On a shared machine the same command runs up to 1.7 times slower in phases
that last from seconds to minutes, and CPU time slows with wall time, so
neither can be compared across runs as it stands. The benchmark runs this
probe next to every timed command and scales the command's time by
``REFERENCE_S / probe time``: the time the command would take while the
probe runs at its reference speed.

The probe is pure Python with the program's instruction mix: Fraction
elimination, integer arithmetic on numbers of a few thousand bits, and
list and dict work. It imports nothing from polobstruct, so a change to
the program cannot change it.
"""

import statistics
import time
from fractions import Fraction

# a typical probe time on a two-vCPU KVM guest of an Intel Xeon (family 6,
# model 207) with Python 3.11.7, where it read 1.2 ms to 2.5 ms; scaled
# metrics read as seconds at this speed
REFERENCE_S = 0.0020
REPS = 3
_MODULUS = 1 << 3000


def _work():
    n = 6
    a = [[Fraction((i * 7 + j * 13) % 17 - 8 + 40 * (i == j), 1 + (i + j) % 3)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x = 1
    for i in range(1, 800):
        x = (x * (i | 1) + i) % _MODULUS
    d = {}
    for i in range(6000):
        d[i % 331] = d.get(i % 331, 0) + i
    return a[-1][-1], x, len(d)


def probe():
    """Median wall and CPU seconds of one unit of probe work, over REPS."""
    walls, cpus = [], []
    for _ in range(REPS):
        c0 = time.process_time()
        t0 = time.perf_counter()
        _work()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def scale(times, probes):
    """Each time as it would read with the probe at its reference speed."""
    return [t * REFERENCE_S / p for t, p in zip(times, probes)]


def warm_up():
    """Run the probe until the interpreter has specialised its code."""
    for _ in range(5):
        _work()
