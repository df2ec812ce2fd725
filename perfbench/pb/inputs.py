"""Seeded inputs for the three workloads.

The benchmark owns every random choice; the program under test only
sees the generated jobs, specs and loops.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro import (
    MandelbrotWorkload,
    ReorderedWorkload,
    SimJob,
    paper_cluster,
    paper_workload,
)
from repro.chaos import FaultPlan
from repro.experiments.config import speedup_configuration
from repro.simulation import ConstantLoad
from repro.workloads import RandomWorkload, UniformWorkload

#: The 13 master-engine schemes of the paper grid.
MASTER_SCHEMES = (
    "S", "SS", "CSS(4)", "GSS", "TSS", "FSS", "FISS", "TFSS", "WF",
    "DTSS", "DFSS", "DFISS", "DTFSS",
)
#: Machine counts and dedicated / nondedicated modes of the grid.
GRID_P = (1, 2, 4, 8)
GRID_MODES = (True, False)
#: The paper window the sweep and service jobs use.
PAPER_WINDOW = {"width": 1000, "height": 500}
#: Share of the grid's Mandelbrot jobs swapped for a RandomWorkload.
RANDOM_SHARE = 0.25

#: Service job mix: (shape, jobs per block of 20).  Each tenant's
#: sequence is a chain of seeded shuffles of one block, so every seed
#: sends exactly these shares.
SERVICE_MIX = (
    ("small", 8),
    ("paper", 8),
    ("ss", 2),
    ("chaos", 1),
    ("adaptive", 1),
)
PAPER_SCHEMES = ("TSS", "FSS", "DTSS")
ADAPTIVE_SCHEME = "adaptive:TSS+FSS+GSS+TFSS@8"
#: Distinct seeded fault plans per run (bounds the one-shot checks).
CHAOS_PLANS = 4

#: Real loops: (substrate, scheme).
REALRUN_LOOPS = (
    ("runtime", "SS"), ("runtime", "TSS"), ("runtime", "FSS"),
    ("runtime", "DTSS"), ("decentral", "SS"), ("decentral", "TSS"),
)
REALRUN_WINDOW = {"width": 400, "height": 300, "max_iter": 128, "sf": 4}
REALRUN_WORKERS = 2


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}/{stream}")


# -- sweep -----------------------------------------------------------------


def sweep_workload():
    return paper_workload(**PAPER_WINDOW)


def sweep_pass(wl, rng: random.Random) -> list[SimJob]:
    """One shuffled pass over the paper grid (120 jobs).

    The Mandelbrot jobs share ``wl``.  In every (engine, scheme) row of
    the grid the same share of its 8 configurations is swapped for
    seeded RandomWorkload profiles, each its own object, so each pass
    does the same kinds of work in a different order.
    """
    rows = [("master", s) for s in MASTER_SCHEMES]
    rows += [("decentral", "TSS"), ("tree", "TreeS")]
    configs = [(p, dedicated) for p in GRID_P for dedicated in GRID_MODES]
    clusters = {c: speedup_configuration(wl, *c) for c in configs}
    jobs = []
    for engine, scheme in rows:
        swapped = set(rng.sample(configs,
                                 int(RANDOM_SHARE * len(configs))))
        for p, dedicated in configs:
            tag = f"p={p}/{'ded' if dedicated else 'nd'}"
            if (p, dedicated) in swapped:
                rwl = RandomWorkload(wl.size, seed=rng.randrange(2 ** 31))
                cluster = speedup_configuration(rwl, p, dedicated)
                jobs.append(SimJob(scheme, rwl, cluster, engine=engine,
                                   tag=tag + "/random"))
            else:
                jobs.append(SimJob(scheme, wl, clusters[(p, dedicated)],
                                   engine=engine, tag=tag))
    rng.shuffle(jobs)
    return jobs


# -- service ---------------------------------------------------------------


def cluster_spec(cluster) -> Optional[dict]:
    """The wire form of a cluster, or None if specs cannot carry it."""
    nodes = []
    for node in cluster.nodes:
        load = node.load
        if not (isinstance(load, ConstantLoad) and load.q == 1) \
                or node.fails_at is not None or node.segment is not None:
            return None
        nodes.append({
            "name": node.name, "speed": node.speed,
            "latency": node.latency, "bandwidth": node.bandwidth,
            "virtual_power": node.virtual_power,
        })
    return {
        "nodes": nodes,
        "master_service": cluster.master_service,
        "request_bytes": cluster.request_bytes,
        "reply_bytes": cluster.reply_bytes,
        "result_bytes_per_item": cluster.result_bytes_per_item,
        "master_bandwidth": cluster.master_bandwidth,
    }


def workload_spec(wl) -> Optional[dict]:
    """The wire form of a workload, or None if specs cannot carry it."""
    sf = None
    if isinstance(wl, ReorderedWorkload):
        sf, wl = wl.sf, wl.inner
    if isinstance(wl, MandelbrotWorkload):
        from repro.workloads.mandelbrot import PAPER_DOMAIN

        if wl.domain != PAPER_DOMAIN:
            return None
        doc = {"kind": "mandelbrot", "width": wl.width,
               "height": wl.height, "max_iter": wl.max_iter}
        if sf is not None:
            doc["sf"] = sf
        return doc
    if sf is not None:
        return None
    if isinstance(wl, UniformWorkload):
        return {"kind": "uniform", "size": wl.size, "unit": wl.unit}
    if isinstance(wl, RandomWorkload):
        return {"kind": "random", "size": wl.size, "seed": wl.seed,
                "mean": wl.mean, "sigma": wl.sigma}
    return None


def spec_of(job: SimJob) -> Optional[dict]:
    """The wire spec of a fault-free SimJob, or None if inexpressible
    (wire specs name a registry scheme, which TreeS is not)."""
    wl = workload_spec(job.workload)
    cl = cluster_spec(job.cluster)
    if wl is None or cl is None or job.params or job.engine == "tree":
        return None
    return {"scheme": job.scheme, "engine": job.engine, "workload": wl,
            "cluster": cl, "tag": job.tag}


def _paper_spec(scheme: str) -> dict:
    wl = sweep_workload()
    return {
        "scheme": scheme,
        "workload": {"kind": "mandelbrot", "max_iter": 64, "sf": 4,
                     **PAPER_WINDOW},
        "cluster": cluster_spec(paper_cluster(wl)),
    }


class ServiceMix(object):
    """The spec templates one run draws from."""

    def __init__(self, seed: int) -> None:
        self.small = {
            "scheme": "TSS",
            "workload": {"kind": "uniform", "size": 200, "unit": 1e-4},
        }
        self.paper = {s: _paper_spec(s) for s in PAPER_SCHEMES}
        self.ss = _paper_spec("SS")
        self.adaptive = _paper_spec(ADAPTIVE_SCHEME)
        rng = rng_for(seed, "chaos-plans")
        base = _paper_spec("TSS")
        horizon = 15.0  # virtual seconds; paper-window TSS runs ~19 s
        self.chaos = [
            dict(base, chaos=FaultPlan.random(
                rng.randrange(2 ** 31), workers=8, horizon=horizon,
            ).to_json())
            for _ in range(CHAOS_PLANS)
        ]

    def pick(self, shape: str, rng: random.Random) -> tuple[str, dict]:
        """The (shape, spec) of one job of ``shape``."""
        if shape == "small":
            return "small", self.small
        if shape == "paper":
            scheme = rng.choice(PAPER_SCHEMES)
            return f"paper-{scheme}", self.paper[scheme]
        if shape == "ss":
            return "ss", self.ss
        if shape == "chaos":
            return "chaos", rng.choice(self.chaos)
        return "adaptive", self.adaptive

    def stream(self, seed: int, tenant: str) -> Iterator[tuple[str, dict]]:
        rng = rng_for(seed, f"tenant/{tenant}")
        block = [shape for shape, n in SERVICE_MIX for _ in range(n)]
        while True:
            rng.shuffle(block)
            for shape in block:
                yield self.pick(shape, rng)

    def shapes(self) -> list[tuple[str, dict]]:
        """One (shape, spec) per job shape of the mix."""
        out = [("small", self.small)]
        out += [(f"paper-{s}", self.paper[s]) for s in PAPER_SCHEMES]
        out += [("ss", self.ss), ("adaptive", self.adaptive),
                ("chaos", self.chaos[0])]
        return out


# -- realrun ---------------------------------------------------------------


def realrun_workload():
    """A fresh loop workload (its column memo starts empty)."""
    w = REALRUN_WINDOW
    return ReorderedWorkload(
        MandelbrotWorkload(w["width"], w["height"],
                           max_iter=w["max_iter"]),
        sf=w["sf"],
    )


def realrun_rounds(seed: int) -> Iterator[list[tuple[str, str]]]:
    """Endless seeded rounds, each a permutation of every loop."""
    rng = rng_for(seed, "realrun")
    while True:
        order = list(REALRUN_LOOPS)
        rng.shuffle(order)
        yield order
