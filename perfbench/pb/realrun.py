"""``realrun``: real master-worker and master-less loops, one at a time."""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

from repro import SimJob
from repro.experiments.config import speedup_configuration

from . import census
from .common import reaped_children_max_mb, vm_hwm_kb
from .daemon import OneShotDigests
from .inputs import (
    REALRUN_LOOPS,
    REALRUN_WORKERS,
    realrun_rounds,
    realrun_workload,
    spec_of,
)
from .phase import Phase


class Realrun(object):
    """``run_parallel`` / ``run_decentral`` with 2 workers per loop.

    An op is one loop on a fresh workload (a reused one would carry its
    column memo into the workers); its latency is the loop's wall time.
    Every loop's results must equal the serial result exactly.
    """

    def __init__(self, sb, seed: int) -> None:
        self.sb = sb
        self.rounds = realrun_rounds(seed)
        self.reference = None

    def setup(self) -> float:
        """Workload build plus the serial reference result."""
        t0 = time.perf_counter()
        reference = realrun_workload().execute_serial()
        elapsed = time.perf_counter() - t0
        self.reference = reference
        return elapsed

    def run(self, seconds: float, tr) -> Phase:
        """Whole rounds until ``seconds`` of loop time; a slice each."""
        phase = Phase()
        while phase.wall < seconds:
            ops, wall = 0, 0.0
            for substrate, scheme in next(self.rounds):
                workload = realrun_workload()
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    with tr.op():
                        run = census.real_loop(tr, substrate, scheme,
                                               workload, REALRUN_WORKERS)
                except Exception:  # noqa: BLE001 - counted as failed
                    traceback.print_exc()
                    phase.failed += 1
                    wall += time.perf_counter() - t0
                    continue
                elapsed = time.perf_counter() - t0
                wall += elapsed
                ops += 1
                phase.latencies.append(elapsed)
                tr.add("ops")
                tr.add("core.chunks", run.total_chunks)
                phase.failed += not np.array_equal(run.results,
                                                   self.reference)
            phase.ops += ops
            phase.wall += wall
            phase.slices.append((ops, wall))
        return phase

    def peak_rss_mb(self) -> float:
        """The master (this process) plus each worker at the largest
        peak any reaped worker reached."""
        return (vm_hwm_kb(os.getpid()) / 1024.0
                + REALRUN_WORKERS * reaped_children_max_mb())

    def census(self, tr) -> tuple[int, int]:
        twins = []
        for substrate, scheme in REALRUN_LOOPS:
            workload = realrun_workload()
            engine = "master" if substrate == "runtime" else "decentral"
            twins.append(SimJob(
                scheme, workload, speedup_configuration(workload, 2, True),
                engine=engine, tag=f"twin/{substrate}",
            ))
        census.ladder(tr, twins)
        census.classify(tr, [(job, 1) for job in twins])
        census.simulation(tr, twins)
        census.fanout(tr, self.sb, twins * 4)
        census.costs(tr, self.sb, realrun_workload)
        shaped = [(job.tag, spec_of(job)) for job in twins]
        census.specs(tr, [spec for _, spec in shaped])
        attempted, failed, replies = census.daemon_session(
            tr, self.sb, shaped, OneShotDigests()
        )
        census.frames(tr, replies)
        return attempted, failed

    def close(self) -> int:
        return 0

    def check(self) -> int:
        """Results are checked as the loop runs; nothing is left."""
        return 0
