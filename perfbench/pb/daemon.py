"""A ``repro-service`` daemon run as a subprocess, and its layer numbers."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro import stream_digest
from repro.service import ServiceClient
from repro.service.jobs import job_from_spec
from repro.service.protocol import ProtocolError

from .common import median, tree_hwm_mb


class Daemon(object):
    """``repro-service serve --workers 1`` on a Unix socket in the sandbox.

    The socket path is relative to the checkout, which the daemon
    inherits as its working directory, so it stays short.
    """

    def __init__(self, sb) -> None:
        home = sb.fresh("daemon")
        self.socket = os.path.join(home, "s.sock")
        self._log_path = os.path.join(home, "stderr.log")
        cache_dir = sb.fresh("daemon-cache")
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "serve",
             "--socket", self.socket, "--workers", "1",
             "--cache-dir", cache_dir],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log,
        )

    def connect(self, tenant: str):
        return ServiceClient.connect(self.socket, tenant=tenant,
                                     timeout=120.0, retry_for=60.0)

    def peak_rss_mb(self) -> float:
        """Daemon plus pool worker, read while both are alive."""
        return tree_hwm_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> int:
        """Drain and wait for exit; the exit code, -1 if it had to be
        killed.  A failed daemon's stderr tail goes to ours."""
        code = -1
        try:
            if self.proc.poll() is None:
                with self.connect("drain") as client:
                    client.drain()
            code = self.proc.wait(timeout=timeout)
        except (OSError, ProtocolError, subprocess.TimeoutExpired):
            pass  # counted as a failure below
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()
        if code != 0:
            with open(self._log_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
        return code


def ledger_times(log: list[dict]) -> dict[str, tuple[float, float]]:
    """Job id -> (queue wait, run) seconds from the pool's ledger.

    Queue wait runs from submit to the first assign; run from the last
    assign to the result, so a requeued job counts its final attempt.
    """
    submit: dict[str, float] = {}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    out: dict[str, tuple[float, float]] = {}
    for entry in log:
        job, ev, at = entry["job"], entry["ev"], entry["at"]
        if ev == "submit":
            submit[job] = at
        elif ev == "assign":
            first.setdefault(job, at)
            last[job] = at
        elif ev == "result" and job in last:
            out[job] = (first[job] - submit.get(job, first[job]),
                        at - last[job])
    return out


def record_service_layers(tr, client, rtts: list[tuple[str, str, float]]
                          ) -> None:
    """Daemon-side layer numbers into the tracer's gauges.

    ``rtts`` holds ``(shape, job_id, seconds)`` client round-trips.
    ``service.overhead_ms`` is the client RTT median minus the in-worker
    run median, per job shape, averaged over shapes.
    """
    snap = client.metrics()
    times = ledger_times(client.log())

    def value(name: str) -> float:
        doc = snap.get(name) or {}
        return float(doc.get("value") or 0.0)

    runs = [run for _, run in times.values()]
    waits = [wait for wait, _ in times.values()]
    tr.set("service.queue_wait_ms", 1e3 * median(waits) if waits else 0.0)
    tr.set("service.run_ms", 1e3 * median(runs) if runs else 0.0)
    tr.set("service.requeues", value("jobs_requeued_total"))
    tr.set("service.rejects", value("jobs_rejected_total"))
    tr.set("service.cache_hits", value("cache_hits"))
    tr.set("service.cache_misses", value("cache_misses"))
    by_shape: dict[str, tuple[list, list]] = {}
    for shape, job_id, rtt in rtts:
        if job_id in times:
            rt, run = by_shape.setdefault(shape, ([], []))
            rt.append(rtt)
            run.append(times[job_id][1])
    gaps = [median(rt) - median(run) for rt, run in by_shape.values()]
    tr.set("service.overhead_ms",
           1e3 * sum(gaps) / len(gaps) if gaps else 0.0)


class OneShotDigests(object):
    """``stream_digest(job_from_spec(spec).run().obs_events)``, memoised
    per distinct spec: the oracle every daemon reply is checked against."""

    def __init__(self) -> None:
        self._memo: dict[str, str] = {}

    def __call__(self, spec: dict) -> str:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._memo:
            result = job_from_spec(spec).run()
            self._memo[key] = stream_digest(result.obs_events)
        return self._memo[key]
