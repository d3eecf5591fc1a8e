"""Machine-speed calibration for timings taken on a shared, noisy machine.

The benchmark runs on machines whose speed for pure-Python work drifts by
tens of percent within seconds and between minutes (other tenants, clock
changes).  A fixed piece of the benchmark's own code that does the same
kinds of work as the program (parsing an edge list, a graph search, sorting,
JSON rendering, counting dice wins; it never changes with the program) is
timed between ops; a measured time t is
reported as ``t * REFERENCE_S / c``, where c is the calibration time around
it.  Reported times are thus "reference" times: what the op would take on a
machine where one calibration sample takes exactly REFERENCE_S seconds.  A
change that makes the program faster lowers them in proportion; a change in
machine speed cancels out.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import graphs

REFERENCE_S = 0.001

_rnd = random.Random(0)
_N = 200
_EDGES = {(_rnd.randrange(_N), _rnd.randrange(_N)) for _ in range(700)}
_EDGES = {(u, v) for u, v in _EDGES if u != v and (v, u) not in _EDGES}
_TEXT = graphs.serialize(_N, _EDGES)
_DICE = [tuple(range(i, 49, 4)) for i in range(1, 5)]


def sample() -> tuple[float, float]:
    """(start time, seconds) of one run of the fixed calibration work."""
    start = time.perf_counter()
    n, edges = graphs.parse(_TEXT)
    graphs.scc_ids(n, edges)
    graphs.score_dicut(n, edges)
    json.dumps({"edges": sorted(edges)[:60]}, indent=2)
    graphs.win_counts(_DICE)
    return start, time.perf_counter() - start


def speed(samples: int = 5) -> float:
    """Median seconds of a few calibration samples taken now."""
    return statistics.median(sample()[1] for _ in range(samples))


def scaled(records: list[tuple[float, float]], cals: list[tuple[float, float]]) -> list[float]:
    """Scale op latencies to reference seconds.

    ``records[i]`` is (start, seconds) of op i and ``cals[i]`` the
    calibration sample taken just before it; ``cals`` has one more entry,
    taken after the last op.  Each op is scaled by the mean calibration
    time over its two neighbours and every sample within twice its own
    duration of it, so a long op is judged by the machine speed around it.
    """
    times = [t for t, _ in cals]
    out = []
    for i, (start, seconds) in enumerate(records):
        lo = i
        while lo > 0 and times[lo - 1] >= start - 2 * seconds:
            lo -= 1
        hi = i + 2
        while hi < len(cals) and times[hi] <= start + 3 * seconds:
            hi += 1
        window = [c for _, c in cals[lo:hi]]
        out.append(seconds * REFERENCE_S * len(window) / sum(window))
    return out
