"""A fixed reference loop that measures how fast the machine is right now.

The benchmark runs on a shared host whose speed drifts by tens of percent
within seconds and over minutes, as neighbours come and go, and the program
slows down with it.  ``sample()`` times a fixed piece of work that touches
none of ``webly`` and mixes, in about equal parts of time, the kinds of work
the program does: Python objects through ``json`` and ``csv`` (the data
files), small numpy calls in a loop (the per-step cost of SGD), numpy over
large arrays (big batches, evaluation, noise scoring) and plain Python
arithmetic (the interpreter).  ``run.py`` takes a sample before and after
each measured stretch and multiplies the stretch's wall time by
``NOMINAL_S`` over the mean of the two samples: the time the stretch would
have taken with the machine at the speed where the loop takes
``NOMINAL_S``.  A change of the program moves the stretch and not the loop,
so it moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import csv
import io
import json
import random
import statistics
import time

# sample() on a 2-vCPU x86-64 virtual machine (Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4 with one BLAS thread) while its host was quiet.
NOMINAL_S = 0.055
REPS = 3


def _work() -> None:
    # Imported here, after run.py has pinned the BLAS threads.
    import numpy as np

    py = random.Random(0)
    rows = [{"id": i, "x": [py.random() for _ in range(8)], "y": i % 5}
            for i in range(500)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in json.loads(json.dumps(rows)):
        writer.writerow([row["id"], *row["x"], row["y"]])
    sum(float(r[1]) for r in csv.reader(io.StringIO(buf.getvalue())))

    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((8, 16))
    w2 = rng.standard_normal((16, 16))
    w3 = rng.standard_normal((16, 5))
    x = rng.standard_normal((8192, 8))
    for i in list(range(0, len(x), 32)) * 2:
        h = np.maximum(x[i:i + 32] @ w1, 0.0)
        h = np.maximum(h @ w2, 0.0)
        z = h @ w3
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        w3 -= 1e-3 * (h.T @ p)

    for _ in range(10):
        float((np.maximum(x @ w1, 0.0) @ w2).sum())

    total = 0
    for i in range(90_000):
        total += (i * 7) % 13


def sample() -> float:
    """Median wall time of ``REPS`` runs of the reference work, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
