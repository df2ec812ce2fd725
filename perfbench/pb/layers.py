"""Metric catalogs and the derivation of per-layer metrics from spans.

``END_TO_END`` and ``PER_LAYER`` are what the command prints and what
``BENCHMARK.json`` declares; the tests hold the two equal.  Each
per-layer entry names the end-to-end metric (and workload) it should
move: the prediction a later performance change claims against.
"""

from __future__ import annotations

from .common import mean, median

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

_SWEEP_TPUT = "sweep throughput_per_s"
_SERVICE_LAT = "service latency_p50_ms / latency_p99_ms"

#: (name, unit, better, should move)
PER_LAYER = (
    ("core.ladder_us", "us", "lower", _SWEEP_TPUT),
    ("core.chunks_per_op", "count", "lower", _SWEEP_TPUT),
    ("simulation.fast_ms", "ms", "lower", _SWEEP_TPUT),
    ("simulation.des_ms", "ms", "lower", "service latency_p50_ms"),
    ("simulation.tree_ms", "ms", "lower", _SWEEP_TPUT),
    ("simulation.fast_share", "ratio", "higher",
     "service latency_p50_ms (0 there today: a collector is attached); "
     "no change on sweep"),
    ("simulation.refused_collector", "count", "lower",
     "service latency_p50_ms"),
    ("simulation.refused_chaos", "count", "lower", "service latency_p50_ms"),
    ("simulation.refused_feedback", "count", "lower",
     "service latency_p50_ms"),
    ("obs.events_per_op", "count", "lower", _SERVICE_LAT),
    ("obs.collect_ms", "ms", "lower", _SERVICE_LAT),
    ("obs.digest_ms", "ms", "lower", _SERVICE_LAT),
    ("result.encode_ms", "ms", "lower",
     "service latency_p99_ms; sweep throughput_per_s via persistence"),
    ("result.bytes", "B", "lower",
     "service latency_p99_ms; sweep throughput_per_s via persistence"),
    ("batch.job_pickle_bytes", "B", "lower", _SWEEP_TPUT),
    ("batch.job_pickle_us", "us", "lower", _SWEEP_TPUT),
    ("batch.fanout_ratio", "ratio", "higher", _SWEEP_TPUT),
    ("batch.consumer_wait_ms", "ms", "lower", _SWEEP_TPUT),
    ("batch.persist_bytes_per_op", "B", "lower", _SWEEP_TPUT),
    ("workloads.costs_cold_ms", "ms", "lower",
     "setup_s on sweep and service"),
    ("cache.costs_warm_us", "us", "lower", "setup_s on sweep and service"),
    ("service.jobs.spec_us", "us", "lower", "service latency_p50_ms"),
    ("service.protocol.frame_us", "us", "lower", _SERVICE_LAT),
    ("service.protocol.reply_bytes", "B", "lower", _SERVICE_LAT),
    ("service.queue_wait_ms", "ms", "lower",
     "service latency_p50_ms, throughput_per_s"),
    ("service.run_ms", "ms", "lower",
     "service latency_p50_ms, throughput_per_s"),
    ("service.requeues", "count", "lower",
     "service latency_p50_ms, throughput_per_s"),
    ("service.rejects", "count", "lower", "service throughput_per_s"),
    ("service.cache_hits", "count", "higher", "service latency_p50_ms"),
    ("service.cache_misses", "count", "lower", "service latency_p50_ms"),
    ("service.overhead_ms", "ms", "lower",
     "service latency_p50_ms, throughput_per_s"),
    ("runtime.loop_ms", "ms", "lower", "realrun latency_p50_ms"),
    ("runtime.master_ms", "ms", "lower", "realrun latency_p50_ms"),
    ("runtime.spawn_join_ms", "ms", "lower", "realrun latency_p50_ms"),
    ("runtime.chunks_per_op", "count", "lower", "realrun latency_p50_ms"),
    ("runtime.requeued", "count", "lower", "realrun latency_p50_ms"),
    ("decentral.loop_ms", "ms", "lower", "realrun latency_p50_ms"),
    ("decentral.spawn_join_ms", "ms", "lower", "realrun latency_p50_ms"),
    ("decentral.global_ops", "count", "lower", "realrun latency_p50_ms"),
    ("trace.overhead_frac", "ratio", "lower",
     "none; reported so spans stay cheap"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def end_to_end(phase, setups: list[float], rss_mb: float) -> dict:
    return {
        "setup_s": median(setups),
        "throughput_per_s": phase.throughput(),
        "latency_p50_ms": phase.latency_ms(0.50),
        "latency_p90_ms": phase.latency_ms(0.90),
        "latency_p99_ms": phase.latency_ms(0.99),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tr, overhead_frac: float) -> dict:
    """Every ``PER_LAYER`` metric from the traced run's spans, counters
    and the values read from the daemon."""
    spans = tr.by_name()
    c, g = tr.counters, tr.gauges

    def self_ms(name: str) -> float:
        return 1e3 * mean(spans.get(name, []))

    def per(num: str, den: str) -> float:
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    runtime_ms = self_ms("runtime.loop")
    runtime_master_ms = 1e3 * per("runtime.elapsed_s", "runtime.loops")
    decentral_ms = self_ms("decentral.loop")
    pooled = c.get("batch.pooled_s", 0.0)
    values = {
        "core.ladder_us": 1e3 * self_ms("core.ladder"),
        "core.chunks_per_op": per("core.chunks", "ops"),
        "simulation.fast_ms": self_ms("simulation.fast"),
        "simulation.des_ms": self_ms("simulation.des"),
        "simulation.tree_ms": self_ms("simulation.tree"),
        "simulation.fast_share": per("simulation.fast_accepted",
                                     "simulation.classified"),
        "simulation.refused_collector": c.get(
            "simulation.refused_collector", 0.0),
        "simulation.refused_chaos": c.get("simulation.refused_chaos", 0.0),
        "simulation.refused_feedback": c.get(
            "simulation.refused_feedback", 0.0),
        "obs.events_per_op": per("obs.events", "obs.runs"),
        "obs.collect_ms": 1e3 * per("obs.collect_s", "obs.runs"),
        "obs.digest_ms": self_ms("obs.digest"),
        "result.encode_ms": self_ms("result.encode"),
        "result.bytes": per("result.bytes", "obs.runs"),
        "batch.job_pickle_bytes": per("batch.pickle_bytes", "obs.runs"),
        "batch.job_pickle_us": 1e3 * self_ms("batch.pickle"),
        "batch.fanout_ratio": (c.get("batch.serial_s", 0.0) / pooled
                               if pooled else 0.0),
        "batch.consumer_wait_ms": self_ms("batch.wait"),
        "batch.persist_bytes_per_op": per("batch.persist_bytes",
                                          "batch.persist_ops"),
        "workloads.costs_cold_ms": self_ms("workloads.costs_cold"),
        "cache.costs_warm_us": 1e3 * self_ms("cache.costs_warm"),
        "service.jobs.spec_us": 1e3 * self_ms("service.jobs.spec"),
        "service.protocol.frame_us": 1e3 * self_ms("service.protocol.frame"),
        "service.protocol.reply_bytes": per("service.protocol.bytes",
                                            "service.protocol.frames"),
        "runtime.loop_ms": runtime_ms,
        "runtime.master_ms": runtime_master_ms,
        "runtime.spawn_join_ms": runtime_ms - runtime_master_ms,
        "runtime.chunks_per_op": per("runtime.chunks", "runtime.loops"),
        "runtime.requeued": c.get("runtime.requeued", 0.0),
        "decentral.loop_ms": decentral_ms,
        "decentral.spawn_join_ms": decentral_ms - 1e3 * per(
            "decentral.elapsed_s", "decentral.loops"),
        "decentral.global_ops": per("decentral.global_ops",
                                    "decentral.loops"),
        "trace.overhead_frac": overhead_frac,
    }
    for name in ("service.queue_wait_ms", "service.run_ms",
                 "service.requeues", "service.rejects",
                 "service.cache_hits", "service.cache_misses",
                 "service.overhead_ms"):
        values[name] = g.get(name, 0.0)
    return {name: values[name] for name, *_ in PER_LAYER}
