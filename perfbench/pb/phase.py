"""What one timed phase of a workload's op loop produced."""

from __future__ import annotations

from .common import median, quantile


class Phase(object):
    """Counts, per-op latencies and timed wall time of one phase.

    ``attempted`` counts every op started; ``ops`` those that completed;
    ``failed`` the exceptions, rejects and wrong results, including ones
    the post-run checks find.  ``slices`` splits the timed window into
    consecutive ``(ops completed, wall seconds)`` pieces of equal work
    or equal time.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ops = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.slices: list[tuple[int, float]] = []
        self.wall = 0.0

    def throughput(self) -> float:
        """Median over slices of completed ops / slice wall time.

        The median keeps a few seconds of host slowdown from moving
        the figure; without slices it is ops / wall.
        """
        rates = [ops / wall for ops, wall in self.slices if wall > 0]
        if rates:
            return median(rates)
        return self.ops / self.wall if self.wall > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return 1e3 * quantile(self.latencies, q)
