"""Host speed probe: a fixed, interpreter-bound task timed during each run.

The benchmark host shares its CPUs with other tenants, and their load moves
gensim's timings by 20-40 % over minutes while the CPU time of the process
moves with them (see README.md).  Each run therefore times this probe
between its jobs (about once a second) and between its set-ups, and scales
each measurement towards the reference host speed:

    measured * (REFERENCE_S / mean(the probes before and after)) ** EXPONENT

The probe reacts more strongly to the host's speed than gensim does: over
170 job/probe pairs the slope of log(job time) against log(probe time) was
0.41-0.77, so the full ratio would over-correct.  The raw figures and every
probe time are kept in the run record.

The probe uses only builtins (frozensets, dicts, sorted tuples, heapq), the
operations gensim's closure and decision loops spend their time in, and it
must not change between the commits a comparison covers.
"""

from __future__ import annotations

import heapq
from time import perf_counter

# Typical probe time on the host the bounds were set on (2 vCPU Xeon, 2.1 GHz,
# Python 3.11); any constant works, it only fixes the unit.
REFERENCE_S = 0.08
EXPONENT = 0.6
ROUNDS = 25_000


def probe() -> float:
    """Seconds the fixed task takes now."""
    start = perf_counter()
    seen: dict[frozenset, int] = {}
    heap: list = []
    for i in range(ROUNDS):
        key = frozenset((i % 97, i % 13, i % 7))
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, (i % 101, tuple(sorted(key))))
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - start


class Yardstick:
    """Scales measurements by probes taken between them.

    A probe is taken once the measurements added since the last probe add
    up to ``every_s`` seconds; each of them is scaled by the two probes on
    either side of its group.  ``scaled`` holds the results in the order the
    measurements were added, complete after ``close``.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples = [probe()]
        self.scaled: list[float] = []
        self._pending: list[float] = []

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if sum(self._pending) >= self.every_s:
            self.close()

    def close(self) -> None:
        if not self._pending:
            return
        self.samples.append(probe())
        factor = (2 * REFERENCE_S / (self.samples[-2] + self.samples[-1])) ** EXPONENT
        self.scaled += [seconds * factor for seconds in self._pending]
        self._pending = []
