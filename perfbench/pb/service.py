"""``service``: two tenants in a closed loop against a one-slot daemon."""

from __future__ import annotations

import json
import threading
import time

from repro.service import ServiceError
from repro.service.jobs import job_from_spec
from repro.service.protocol import ProtocolError
from repro.workloads import UniformWorkload

from . import census
from .daemon import Daemon, OneShotDigests, record_service_layers
from .inputs import ServiceMix, sweep_workload
from .phase import Phase

TENANTS = ("alice", "bob")
#: Round-trips per throughput slice.
SLICE_OPS = 40
#: Peak RSS is read when this many round-trips have completed: the
#: daemon keeps every job's record, so its peak grows with jobs served.
RSS_AT_OPS = 1000


class Service(object):
    """``repro-service serve --workers 1`` driven by two client threads.

    Each thread is one tenant on its own connection: it submits its next
    seeded job only after the previous reply arrived.  An op is one
    submit -> wait round-trip.  Every reply's digest is later checked
    against the one-shot run of the same spec, and the daemon must drain
    and exit 0.
    """

    def __init__(self, sb, seed: int) -> None:
        self.sb = sb
        self.mix = ServiceMix(seed)
        self.streams = {t: self.mix.stream(seed, t) for t in TENANTS}
        self.daemon = None
        self.clients: dict = {}
        self.exit_failures = 0
        self.rss_mb = None
        #: spec key -> (spec, [digests received])
        self.digests: dict[str, tuple[dict, list]] = {}
        #: latest reply per job shape (frame-codec probe input)
        self.replies: dict[str, dict] = {}
        #: traced phase: (shape, job id, rtt) and spec key -> (spec, n)
        self.rtts: list[tuple[str, str, float]] = []
        self.submitted: dict[str, tuple[dict, int]] = {}
        self._lock = threading.Lock()

    def setup(self) -> float:
        """Daemon spawn to the first job reply on a cold cache."""
        self._stop_daemon()
        spec = self.mix.paper["TSS"]
        t0 = time.perf_counter()
        self.daemon = Daemon(self.sb)
        with self.daemon.connect("setup") as client:
            reply = client.run(spec)
        elapsed = time.perf_counter() - t0
        self._record(spec, reply)
        return elapsed

    def _stop_daemon(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients = {}
        if self.daemon is not None:
            self.exit_failures += self.daemon.stop() != 0
            self.daemon = None

    def _record(self, spec: dict, reply: dict) -> None:
        key = json.dumps(spec, sort_keys=True)
        with self._lock:
            self.digests.setdefault(key, (spec, []))[1].append(
                reply.get("digest")
            )

    def run(self, seconds: float, tr) -> Phase:
        if not self.clients:
            self.clients = {t: self.daemon.connect(t) for t in TENANTS}
        self.rtts, self.submitted = [], {}
        phase = Phase()
        finished: list[float] = []
        deadline = time.perf_counter() + seconds

        def drive(tenant: str) -> None:
            client, stream = self.clients[tenant], self.streams[tenant]
            while time.perf_counter() < deadline:
                shape, spec = next(stream)
                with self._lock:
                    phase.attempted += 1
                try:
                    with tr.op(), tr.span("service.rtt"):
                        t0 = time.perf_counter()
                        job_id = client.submit(spec)
                        reply = client.wait(job_id)
                        rtt = time.perf_counter() - t0
                except ServiceError:
                    with self._lock:
                        phase.failed += 1
                    continue
                except (OSError, ProtocolError):
                    with self._lock:
                        phase.failed += 1
                    return  # the connection is gone
                self._record(spec, reply)
                done = reply.get("state") == "done"
                with self._lock:
                    phase.ops += 1
                    phase.failed += not done
                    phase.latencies.append(rtt)
                    finished.append(time.perf_counter())
                    if phase.ops == RSS_AT_OPS and self.rss_mb is None:
                        self.rss_mb = self.daemon.peak_rss_mb()
                    if tr.enabled:
                        key = json.dumps(spec, sort_keys=True)
                        n = self.submitted.get(key, (spec, 0))[1]
                        self.submitted[key] = (spec, n + 1)
                        self.rtts.append((shape, job_id, rtt))
                        self.replies[shape] = reply
                if done:
                    tr.add("ops")
                    tr.add("core.chunks", len(reply["result"]["chunks"]))

        threads = [threading.Thread(target=drive, args=(t,), daemon=True)
                   for t in TENANTS]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = time.perf_counter() - t0
        marks = [t0] + finished[SLICE_OPS - 1::SLICE_OPS]
        phase.slices = [(SLICE_OPS, hi - lo)
                        for lo, hi in zip(marks, marks[1:])]
        return phase

    def check(self) -> int:
        """Replies whose digest differs from the one-shot run."""
        expected = OneShotDigests()
        return sum(
            digest != expected(spec)
            for spec, digests in self.digests.values()
            for digest in digests
        )

    def peak_rss_mb(self) -> float:
        """Daemon plus pool worker over the first ``RSS_AT_OPS``
        round-trips (the whole run if it held fewer)."""
        if self.rss_mb is not None:
            return self.rss_mb
        return self.daemon.peak_rss_mb()

    def census(self, tr) -> tuple[int, int]:
        record_service_layers(tr, self.clients[TENANTS[0]], self.rtts)
        shaped = self.mix.shapes()
        jobs = [job_from_spec(spec) for _, spec in shaped]
        census.ladder(tr, jobs)
        census.classify(tr, [
            (job_from_spec(spec), n)
            for _, (spec, n) in sorted(self.submitted.items())
        ])
        census.simulation(tr, jobs)
        census.fanout(tr, self.sb, jobs * 4)
        census.costs(tr, self.sb, sweep_workload)
        census.specs(tr, [spec for _, spec in shaped])
        census.frames(tr, list(self.replies.values()))
        failed = census.real_loops(
            tr, lambda: UniformWorkload(200, unit=1e-4)
        )
        return 2, failed

    def close(self) -> int:
        self._stop_daemon()
        return self.exit_failures
