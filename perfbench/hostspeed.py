"""How fast the host runs python right now, from a fixed probe.

The shared host this benchmark was built on runs the same code at
three speeds, in stretches of 10 to 60 s: a call that takes 1.4 ms in
the fast stretches takes 2.2 or 2.7 ms in the others, every call of the
stretch, with the process's CPU time equal to its wall time.  A run of
20 s can fall wholly in a slow stretch, so neither longer runs nor the
shortest of many calls take it out.

The probe is fixed work in the benchmark's own code that the package
under test never touches, of three kinds that the package's calls are
made of: a breadth-first search over a random graph of 3000 vertices in
lists and a dict, building a dart index and its successor permutation
from a rotation system in tuples and a dict, and integer arithmetic.
On that host no one kind moved with every workload, but their sum moved
with the package's calls to within about 5% across the three speeds
(windows of 8 s), where the calls themselves moved by 1.3 to 1.7x.
``scale`` turns a time measured now into the time it would have taken
when the probe takes ``NOMINAL_S``, the probe's time in the fast
stretches of that host.
"""

from __future__ import annotations

import random
from time import perf_counter

NOMINAL_S = 3.6e-3
REPS = 3  # each kind of work is timed as the shortest of this many runs

_N = 3000
_rng = random.Random(20231015)
_ADJ = [[_rng.randrange(_N) for _ in range(5)] for _ in range(_N)]
_ROT = [sorted(set(nbrs)) for nbrs in _ADJ[:600]]


def _search() -> int:
    seen = {0: 0}
    queue = [0]
    for v in queue:
        d = seen[v] + 1
        for w in _ADJ[v]:
            if w not in seen:
                seen[w] = d
                queue.append(w)
    return len(seen)


def _darts() -> int:
    index = {}
    for u, nbrs in enumerate(_ROT):
        for v in nbrs:
            index[(u, v)] = len(index)
    succ = [0] * len(index)
    for (u, v), k in index.items():
        nbrs = _ROT[u]
        succ[k] = index[(u, nbrs[(nbrs.index(v) + 1) % len(nbrs)])]
    return sum(succ)


def _arith() -> int:
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s


def probe() -> float:
    """Seconds of one probe at the host's current speed."""
    total = 0.0
    for work in (_search, _darts, _arith):
        best = float("inf")
        for _ in range(REPS):
            t0 = perf_counter()
            work()
            best = min(best, perf_counter() - t0)
        total += best
    return total


def scale(*probes: float) -> float:
    """Factor from seconds measured between ``probes`` to nominal seconds."""
    return NOMINAL_S * len(probes) / sum(probes)
