"""``sweep``: the paper grid through ``stream_batch(n_jobs=2)``."""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from repro import SimResult, configure_cache, stream_batch

from . import census
from .common import tree_hwm_mb
from .daemon import OneShotDigests
from .inputs import rng_for, spec_of, sweep_pass, sweep_workload
from .phase import Phase

#: Grid jobs per pass re-run in-process and compared bit for bit.
CHECK_SAMPLE = 2


class Sweep(object):
    """One pass of the grid per ``stream_batch`` call, on a warm pool.

    An op is one simulation; its latency is the gap between two
    results reaching the consumer.  Each pass persists to JSONL; after
    the pass (outside the timed window) every record must rebuild
    through ``SimResult.from_dict`` to the streamed result, and a seeded
    sample must equal an in-process ``job.run()`` bit for bit.
    """

    def __init__(self, sb, seed: int) -> None:
        self.sb = sb
        self.seed = seed
        self.pool = None
        self.workload = None
        self.passes = 0

    def setup(self) -> float:
        """Cold cost profile plus pool start; returns seconds."""
        self._shutdown()
        configure_cache(directory=self.sb.fresh("cache"))
        t0 = time.perf_counter()
        workload = sweep_workload()
        workload.costs()
        pool = ProcessPoolExecutor(max_workers=2)
        list(pool.map(abs, range(2)))
        elapsed = time.perf_counter() - t0
        self.workload, self.pool = workload, pool
        return elapsed

    def _shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)
            self.pool = None

    def next_pass(self) -> list:
        rng = rng_for(self.seed, f"pass/{self.passes}")
        self.passes += 1
        return sweep_pass(self.workload, rng)

    def run(self, seconds: float, tr) -> Phase:
        phase = Phase()
        while phase.wall < seconds:
            jobs = self.next_pass()
            persist = self.sb.path("sweep.jsonl")
            results = [None] * len(jobs)
            t0 = time.perf_counter()
            try:
                with tr.op(), tr.span("batch.slice"):
                    stream = stream_batch(jobs, 2, persist=persist,
                                          pool=self.pool)
                    last = t0
                    while True:
                        with tr.span("batch.wait"):
                            item = next(stream, None)
                        if item is None:
                            break
                        now = time.perf_counter()
                        phase.latencies.append(now - last)
                        last = now
                        idx, result = item
                        results[idx] = result
                        tr.add("core.chunks", result.total_chunks)
            except Exception:  # noqa: BLE001 - counted as failed ops
                traceback.print_exc()
            wall = time.perf_counter() - t0
            done = sum(r is not None for r in results)
            phase.wall += wall
            phase.slices.append((done, wall))
            phase.attempted += len(jobs)
            phase.ops += done
            phase.failed += len(jobs) - done
            tr.add("ops", done)
            if os.path.exists(persist):
                size = os.path.getsize(persist)
                tr.add("batch.persist_bytes", size)
                tr.add("batch.persist_ops", done)
            phase.failed += self._check(jobs, results, persist)
        return phase

    def _check(self, jobs, results, persist: str) -> int:
        """Wrong results in one pass (persisted round trip + sample)."""
        bad = set()
        seen = set()
        try:
            with open(persist, "r", encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    idx = rec["index"]
                    seen.add(idx)
                    rebuilt = SimResult.from_dict(rec["result"])
                    streamed = results[idx]
                    if streamed is None or rec["key"] != jobs[idx].key \
                            or rebuilt.t_p != streamed.t_p \
                            or rebuilt.workers != streamed.workers \
                            or len(rebuilt.chunks) != len(streamed.chunks):
                        bad.add(idx)
        except (OSError, ValueError, KeyError, TypeError):
            return sum(r is not None for r in results)
        finally:
            for path in (persist, persist + ".manifest.json"):
                if os.path.exists(path):
                    os.remove(path)
        bad.update(i for i, r in enumerate(results)
                   if r is not None and i not in seen)
        rng = rng_for(self.seed, f"check/{self.passes}")
        for idx in rng.sample(range(len(jobs)), CHECK_SAMPLE):
            streamed = results[idx]
            if streamed is None:
                continue
            local = jobs[idx].run()
            if local.t_p != streamed.t_p \
                    or list(local.chunks) != list(streamed.chunks):
                bad.add(idx)
        return len(bad)

    def peak_rss_mb(self) -> float:
        """This process plus the two pool workers."""
        return tree_hwm_mb(os.getpid())

    def census(self, tr) -> tuple[int, int]:
        grid = self.next_pass()
        probes = {}
        for job in grid:
            probes.setdefault((job.engine, job.scheme), job)
        jobs = list(probes.values())
        census.ladder(tr, jobs)
        census.classify(tr, [(job, 1) for job in grid])
        census.simulation(tr, jobs)
        census.fanout(tr, self.sb, grid, self.pool)
        census.costs(tr, self.sb, sweep_workload)
        shaped = [(f"{j.engine}/{j.scheme}", spec) for j in jobs
                  if (spec := spec_of(j)) is not None]
        census.specs(tr, [spec for _, spec in shaped])
        attempted, failed, replies = census.daemon_session(
            tr, self.sb, shaped, OneShotDigests()
        )
        census.frames(tr, replies)
        failed += census.real_loops(tr, sweep_workload)
        return attempted + 2, failed

    def close(self) -> int:
        self._shutdown()
        return 0

    def check(self) -> int:
        """Results are checked as the loop runs; nothing is left."""
        return 0
