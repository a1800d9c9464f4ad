"""A fixed pure-Python kernel that tracks the machine's momentary speed.

On a shared machine the same Python code runs up to a third faster or
slower from one minute to the next, and every operation of a run moves
together.  The benchmark therefore times this kernel right after each
operation and reports the operation's wall time divided by the mean of the
kernel times just before and just after it, scaled by ``REFERENCE_S``.
The kernel does the kind of work the program does (small tuples, list,
dict and sort traffic) and calls nothing from the program, so a change to
the program never changes it.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: The kernel's typical time on the machine the benchmark was tuned on
#: (a 2.0 GHz Xeon, Python 3.11); reported times are in these units.
REFERENCE_S = 0.05


def _kernel() -> int:
    rng = random.Random(1)
    words = [
        tuple(rng.randrange(8) for _ in range(rng.randint(1, 9))) for _ in range(8000)
    ]
    counts: dict[tuple[int, ...], int] = {}
    for word in words:
        out: list[int] = []
        for x in word:
            if out and out[-1] == x:
                out.pop()
            else:
                out.append(x)
        key = tuple(out)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def kernel_seconds() -> float:
    """Wall time of one kernel run, after a full collection."""
    gc.collect()
    start = perf_counter()
    _kernel()
    return perf_counter() - start
