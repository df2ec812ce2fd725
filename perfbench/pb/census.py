"""Layer probes of the traced run.

Each probe times one layer's public call on a workload's own inputs and
records it as a span (or a counter, for sizes and counts).  The traced
op loop records the spans of the layers a workload's ops pass through;
the census adds the calls its ops do not make from the benchmark
process, so every layer is measured on every workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import (
    configure_cache,
    drain,
    make,
    run_decentral,
    simulate_tree,
    stream_batch,
    stream_digest,
)
from repro.runtime.executor import run_parallel
from repro.service import ServiceError
from repro.service.jobs import job_from_spec
from repro.service.protocol import FrameDecoder, encode_frame
from repro.simulation import SimulationError

from .daemon import Daemon, record_service_layers

#: Fast-path refusal reasons, matched against the refusal message.
REFUSALS = (
    ("feedback", "feedback-dependent"),
    ("chaos", "fault plan"),
    ("collector", "collector"),
)


def ladder(tr, jobs, reps: int = 3) -> None:
    """``drain(make(scheme, n, p))`` once per distinct job shape."""
    shapes = sorted({
        (j.scheme, j.workload.size, j.cluster.size) for j in jobs
        if j.engine != "tree" and not j.scheme.startswith("adaptive")
    })
    for _ in range(reps):
        for scheme, n, p in shapes:
            with tr.span("core.ladder"):
                for _chunk in drain(make(scheme, n, p)):
                    pass


def _with_params(job, **params):
    return dataclasses.replace(job, params={**job.params, **params})


def refusal(job) -> str:
    """Why ``fast=True`` refuses ``job`` as it is run ('' = accepted)."""
    if job.engine == "tree":
        return "tree"
    try:
        _with_params(job, fast=True).run()
    except SimulationError as exc:
        text = str(exc)
        for reason, marker in REFUSALS:
            if marker in text:
                return reason
        return "other"
    return ""


def classify(tr, weighted_jobs) -> None:
    """Fast-path acceptance over ``(job, weight)`` pairs."""
    for job, weight in weighted_jobs:
        reason = refusal(job)
        tr.add("simulation.classified", weight)
        if not reason:
            tr.add("simulation.fast_accepted", weight)
        elif reason in ("collector", "chaos", "feedback"):
            tr.add(f"simulation.refused_{reason}", weight)


def simulation(tr, jobs) -> None:
    """Engine, trace, digest, encoding and pickling costs per job.

    ``simulation.fast`` / ``simulation.des`` run the job without a
    collector (fast path when it accepts, then forced DES);
    ``simulation.tree`` runs the tree engine on the job's input;
    ``obs.collect`` is the traced run minus the untraced engine run.
    """
    for job in jobs:
        with tr.op(), tr.span("census.job"):
            bare = dataclasses.replace(job, collect_events=False)
            with tr.span("batch.pickle"):
                blob = pickle.dumps(job)
            tr.add("batch.pickle_bytes", len(blob))
            if job.engine == "tree":
                with tr.span("simulation.tree") as sp:
                    bare.run()
                base = sp.duration
            else:
                if not refusal(bare):
                    with tr.span("simulation.fast"):
                        _with_params(bare, fast=True).run()
                with tr.span("simulation.des") as sp:
                    _with_params(bare, fast=False).run()
                base = sp.duration
                with tr.span("simulation.tree"):
                    simulate_tree(job.workload, job.cluster)
            traced = dataclasses.replace(job, collect_events=True)
            with tr.span("obs.collected_run") as sp:
                result = traced.run()
            tr.add("obs.collect_s", sp.duration - base)
            tr.add("obs.runs")
            tr.add("obs.events", len(result.obs_events))
            with tr.span("obs.digest"):
                stream_digest(result.obs_events)
            with tr.span("result.encode"):
                text = json.dumps(result.to_dict())
            tr.add("result.bytes", len(text))


def fanout(tr, sb, jobs, pool=None, reps: int = 2) -> None:
    """The same persisted slice through ``stream_batch`` at n_jobs=1
    and n_jobs=2 (on ``pool``, else a started pool of its own)."""
    if pool is None:
        with ProcessPoolExecutor(max_workers=2) as own:
            list(own.map(abs, range(2)))
            fanout(tr, sb, jobs, own, reps)
        return
    persist = sb.path("fanout.jsonl")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _item in stream_batch(jobs, 1, persist=persist):
            pass
        tr.add("batch.serial_s", time.perf_counter() - t0)
        os.remove(persist)
        t0 = time.perf_counter()
        stream = stream_batch(jobs, 2, persist=persist, pool=pool)
        while True:
            with tr.span("batch.wait"):
                item = next(stream, None)
            if item is None:
                break
        tr.add("batch.pooled_s", time.perf_counter() - t0)
        tr.add("batch.persist_bytes", os.path.getsize(persist))
        tr.add("batch.persist_ops", len(jobs))
        os.remove(persist)
        os.remove(persist + ".manifest.json")


def costs(tr, sb, make_workload, reps: int = 2) -> None:
    """``costs()`` on an empty cache dir, then again from the cache."""
    try:
        for _ in range(reps):
            configure_cache(directory=sb.fresh("cold-cache"))
            with tr.span("workloads.costs_cold"):
                make_workload().costs()
            with tr.span("cache.costs_warm"):
                make_workload().costs()
    finally:
        configure_cache(directory=os.environ["REPRO_CACHE_DIR"])


def specs(tr, docs, reps: int = 5) -> None:
    for _ in range(reps):
        for doc in docs:
            with tr.span("service.jobs.spec"):
                job_from_spec(doc)


def frames(tr, replies, reps: int = 5) -> None:
    """Encode + incremental decode of real reply documents."""
    for _ in range(reps):
        for doc in replies:
            with tr.span("service.protocol.frame"):
                data = encode_frame(doc)
                FrameDecoder().feed(data)
            tr.add("service.protocol.frames")
            tr.add("service.protocol.bytes", len(data))


def real_loop(tr, substrate: str, scheme: str, workload, workers: int):
    """One real parallel loop; its layer counters go to ``tr``."""
    with tr.span(f"{substrate}.loop"):
        if substrate == "runtime":
            run = run_parallel(scheme, workload, workers)
        else:
            run = run_decentral(scheme, workload, workers)
    tr.add(f"{substrate}.loops")
    tr.add(f"{substrate}.elapsed_s", run.elapsed)
    tr.add(f"{substrate}.chunks", run.total_chunks)
    if substrate == "runtime":
        tr.add("runtime.requeued", run.requeued)
    else:
        tr.add("decentral.global_ops", run.global_ops)
    return run


def real_loops(tr, make_workload, workers: int = 2) -> int:
    """One runtime and one decentral TSS loop; failures found."""
    reference = make_workload().execute_serial()
    failed = 0
    for substrate in ("runtime", "decentral"):
        run = real_loop(tr, substrate, "TSS", make_workload(), workers)
        failed += not np.array_equal(run.results, reference)
    return failed


def daemon_session(tr, sb, shaped_specs, expected, reps: int = 2):
    """Submit ``(shape, spec)`` probes to a fresh daemon.

    Returns ``(attempted, failed, replies)``; a reply fails when it is
    not ok or its digest differs from ``expected(spec)``.
    """
    daemon = Daemon(sb)
    attempted = failed = 0
    replies = []
    try:
        with daemon.connect("census") as client:
            rtts = []
            for _ in range(reps):
                for shape, spec in shaped_specs:
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        job_id = client.submit(spec)
                        reply = client.wait(job_id)
                    except ServiceError:
                        failed += 1
                        continue
                    rtts.append((shape, job_id, time.perf_counter() - t0))
                    replies.append(reply)
                    if reply.get("state") != "done" \
                            or reply.get("digest") != expected(spec):
                        failed += 1
            record_service_layers(tr, client, rtts)
    finally:
        failed += daemon.stop() != 0
    return attempted, failed, replies
