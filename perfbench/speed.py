"""The machine-speed reference that the end-to-end times are scaled by.

Shared machines change speed by up to 2x over a few minutes, and by a third
from one second to the next, as their other tenants come and go; every
pure-Python workload slows down with them.  So the harness process, pinned
to the CPU its children run on, times a fixed pure-Python loop before and
after every query and every set-up.  Each step is reported at reference
speed: wall seconds * REFERENCE_NOMINAL_S / the mean of the two loop times
around it.  The loop runs in the harness, never in the program under test,
so the scale depends only on the machine: a parent and a change compare as
they would in wall time, while the drift between and within runs drops out.
"""

from time import perf_counter

# About the loop's median time on the machine the NOTES.md baselines come from.
REFERENCE_NOMINAL_S = 0.007


def reference_s() -> float:
    """Wall time of a fixed integer loop, about 7 ms."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return perf_counter() - start


class Reference:
    """The reference loop timed between steps, one after each."""

    def __init__(self):
        self.last = reference_s()

    def step(self) -> float:
        """For the step that just ended: the mean of the loop times right
        before and right after it."""
        before, self.last = self.last, reference_s()
        return (before + self.last) / 2


def at_reference(elapsed: float, reference: float) -> float:
    """``elapsed`` wall seconds, taken while the loop took ``reference`` seconds,
    as seconds at reference speed."""
    return elapsed * REFERENCE_NOMINAL_S / reference
