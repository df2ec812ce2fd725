"""Analytic fast path: fault-free runs without the generic DES.

The discrete-event engines pay for generality: every protocol step is
an :class:`~repro.simulation.events.Event` dataclass wrapping a closure
through a guarded dispatch, every chunk decision walks the scheduler's
``next_chunk`` (frozen ``WorkerView`` + ``ChunkAssignment`` per
request), and every emission site tests a collector.  None of that
machinery changes the *numbers*: on a fault-free run with no observer
the protocol is a deterministic recurrence over a handful of floats
(link-free / master-free / counter-free times), and the chunk sequence
is the pure ladder :mod:`repro.core.kernel` materializes in one shot.

This module evaluates that recurrence directly, collapsing the DES's
three-to-four events per chunk into **one processed event per chunk**:

* Master engine: the only inter-worker interactions happen when a
  request *arrives* at the master (link + service serialization,
  scheduler call).  The compute and send legs of a worker's chain are
  pure functions of its own arrival, so the whole leg is evaluated
  inline and only the *next arrival* is kept pending -- one pending
  event per worker, found by an O(P) scan instead of a heap.
* Decentral engine: the shared state is the counter; a claim happens
  when a chunk becomes *durable*, so the loop keeps one pending
  durable event per worker and evaluates claim + compute inline.

Event order is still **exactly** the DES's ``(time, seq)`` order.  The
DES breaks time ties by ``seq``, and seq values are assigned in firing
order of the *scheduling* events -- so each pending arrival carries a
pedigree key ``(arrival time, send fire time, compute fire time,
predecessor rank)``.  Comparing pedigrees lexicographically reproduces
the DES tie-break chain: equal arrival times compare send seqs, which
were assigned in compute firing order, which were assigned in the
order the *previous* arrivals were processed -- a rank this loop
knows, because it processed them.  Initial requests use rank slots
below every later rank, in worker index order, exactly like the DES's
startup seq assignment.  Chunk records are emitted in processing
order and stably sorted by compute-fire time afterwards, which equals
the DES's compute-event order for the same reason.

Further per-chunk costs are shaved without touching the numbers:

* chunk decisions come from **pure steppers** compiled per scheduler
  class (a few integer operations each) when the scheduler was built
  internally from a registry name, falling back to driving the real
  scheduler for caller-supplied instances and the ACP-driven
  distributed family (still bit-identical, less speedup);
* the per-chunk compute integral is inlined for ``ConstantLoad``
  (``finish = t + cost / rate``), the overwhelmingly common case;
* additions of exact zeros (switched-segment waits) are skipped --
  IEEE-identical because ``x + 0.0 == x`` for the non-negative
  accumulators involved;
* :class:`~repro.simulation.metrics.ChunkRecord` construction is
  deferred via :class:`~repro.simulation.metrics.LazyChunkList` --
  sweeps that never read the per-chunk trace never pay for it.

Every floating-point expression is kept in the engine's exact shape
and evaluation order, so the fast path is **bit-identical** to the DES
-- enforced for every registry scheme by
``tests/simulation/test_fastpath.py``, and selected automatically by
:func:`~repro.simulation.engine.simulate` /
:func:`~repro.decentral.simulate_decentral` only when eligibility
holds (see :func:`master_fast_reason` / :func:`decentral_fast_reason`;
``docs/performance.md`` documents the rules).

Set ``REPRO_FAST=0`` (or pass ``fast=False``) to force the DES; pass
``fast=True`` to *require* the fast path (raises when ineligible).
The tree engine has no fast path: work stealing entangles every
decision with timing, so there is nothing to precompute.
"""

from __future__ import annotations

import math
import os
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from ..core.base import WorkerView
from ..core.chunk import ChunkScheduler, PureScheduler
from ..core.factoring import (
    FactoringScheduler,
    WeightedFactoringScheduler,
    _round_half_even,
)
from ..core.fixed_increase import FixedIncreaseScheduler
from ..core.guided import GuidedScheduler
from ..core.kernel import evaluate_ladder
from ..core.static_ import BlockCyclicScheduler, StaticScheduler
from ..core.tfss import TrapezoidFactoringScheduler
from ..core.trapezoid import TrapezoidScheduler
from .loadgen import ConstantLoad, integrate_compute
from .metrics import LazyChunkList, SimResult

__all__ = [
    "ENV_FAST",
    "fast_enabled",
    "master_fast_reason",
    "decentral_fast_reason",
    "run_fast_master",
    "run_fast_decentral",
]

#: Environment kill-switch: set to ``0``/``off``/``no``/``false`` to
#: force every simulation down the generic DES path (debugging aid).
ENV_FAST = "REPRO_FAST"

_INF = math.inf

#: Scheduler classes with a compiled pure stepper (exact mirrors of
#: their ``_chunk_size``).  Used only for internally built schedulers:
#: pure steppers never touch the instance, so a caller-held scheduler
#: would not see its cursor advance -- those get the driven fallback.
_PURE_CLASSES = (
    PureScheduler,
    ChunkScheduler,
    GuidedScheduler,
    TrapezoidScheduler,
    FactoringScheduler,
    FixedIncreaseScheduler,
    TrapezoidFactoringScheduler,
    WeightedFactoringScheduler,
    StaticScheduler,
    BlockCyclicScheduler,
)


def fast_enabled() -> bool:
    """False when the ``REPRO_FAST`` kill-switch is set."""
    return os.environ.get(ENV_FAST, "").strip().lower() not in (
        "0", "off", "no", "false"
    )


def _cluster_fast_reason(cluster, chaos, obs) -> Optional[str]:
    """Shared eligibility core; None = eligible, else the blocker."""
    if chaos is not None:
        return "a fault plan is attached"
    if obs:
        return "an observability collector is attached"
    for node in cluster.nodes:
        if node.fails_at is not None:
            return f"node {node.name} has fails_at set"
        if node.segment is not None:
            return f"node {node.name} is on a shared segment"
    return None


def master_fast_reason(sim) -> Optional[str]:
    """Why this master-engine run cannot take the fast path (None = can).

    The fast path replays the fault-free switched-network protocol
    exactly; anything that perturbs it -- chaos plans, ``fails_at``
    deaths, shared-segment contention (transfer ordering becomes
    entangled with send times), an attached collector (emission points
    sit inside the collapsed handlers), or a feedback-dependent
    scheduler (the adaptive meta-scheduler consumes per-chunk
    observations the collapsed recurrence never produces) -- falls back
    to the DES.
    """
    if getattr(sim.scheduler, "feedback_dependent", False):
        return (
            "the scheduler is feedback-dependent (adaptive "
            "meta-scheduling observes the run it is steering)"
        )
    return _cluster_fast_reason(sim.cluster, sim.chaos, sim.obs)


def decentral_fast_reason(sim) -> Optional[str]:
    """Why this decentral run cannot take the fast path (None = can)."""
    return _cluster_fast_reason(sim.cluster, sim.chaos, sim.obs)


def _pref_list(workload) -> list[float]:
    """The workload's cost prefix sums as a plain float list, cached.

    ``pref[stop] - pref[start]`` on python floats is bit-identical to
    the engine's ``float(np.float64 - np.float64)``; the list is
    cached on the workload keyed by the prefix array's identity so a
    sweep of many simulations over one workload converts it once.
    """
    workload.costs()
    pref = workload._prefix
    cached = getattr(workload, "_fast_pref", None)
    if cached is not None and cached[0] is pref:
        return cached[1]
    lst = pref.tolist()
    try:
        workload._fast_pref = (pref, lst)
    except AttributeError:  # slotted workload subclass: just recompute
        pass
    return lst


# -- pure steppers ---------------------------------------------------------


def _nominal_fn(scheduler) -> Callable[[int, int], tuple[int, int]]:
    """The scheduler's ``_chunk_size`` as a closure: (worker, remaining)
    -> (nominal size, stage).  Exact mirrors -- every branch below is a
    transliteration of the corresponding ``_chunk_size``."""
    kind = type(scheduler)
    if kind in (PureScheduler, ChunkScheduler):
        k = scheduler.k

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            return k, 0

    elif kind is GuidedScheduler:
        min_chunk = scheduler.min_chunk
        workers = scheduler.workers

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            return max(min_chunk, math.ceil(rem / workers)), 0

    elif kind is TrapezoidScheduler:
        last = scheduler.params.last
        dec = scheduler.params.decrement
        state = [scheduler._next_size]

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            size = state[0]
            state[0] = max(last, size - dec)
            return size, 0

    elif kind in (
        FactoringScheduler,
        FixedIncreaseScheduler,
        TrapezoidFactoringScheduler,
    ):
        ladder = scheduler._ladder
        depth = len(ladder)
        workers = scheduler.workers
        counts = [0] * workers

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            k = counts[wid]
            counts[wid] = k + 1
            if k < depth:
                return ladder[k], k + 1
            return max(1, math.ceil(rem / (2 * workers))), k + 1

    elif kind is WeightedFactoringScheduler:
        totals = scheduler._stage_totals
        depth = len(totals)
        weights = scheduler.weights
        wsum = scheduler._wsum
        workers = scheduler.workers
        counts = [0] * workers

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            k = counts[wid]
            counts[wid] = k + 1
            idx = k if k < depth else depth - 1
            share = totals[idx] * weights[wid % workers] / wsum
            return max(1, _round_half_even(share)), idx + 1

    elif kind is StaticScheduler:
        blocks = scheduler._blocks
        workers = scheduler.workers
        served = [scheduler._served]

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            s = served[0]
            if s >= workers:
                return rem, 0
            size = blocks[s]
            s += 1
            while size == 0 and s < workers:
                size = blocks[s]
                s += 1
            served[0] = s
            return (size if size > 0 else rem), 0

    elif kind is BlockCyclicScheduler:
        block = scheduler.block

        def nominal(wid: int, rem: int) -> tuple[int, int]:
            return block, 0

    else:  # pragma: no cover - guarded by _PURE_CLASSES membership
        raise TypeError(f"no pure stepper for {kind.__name__}")
    return nominal


def _compile_stepper(sim):
    """(worker, arrival, acp) -> (start, stop, stage) | None.

    Pure when the scheduler is an internally built known class;
    otherwise drives the real scheduler with an identically
    constructed :class:`WorkerView` (bit-identical either way: the
    pure steppers mirror ``next_chunk``'s clipping and stage rules).
    """
    scheduler = sim.scheduler
    pure = (
        getattr(sim, "_fresh_scheduler", False)
        and type(scheduler) in _PURE_CLASSES
    )
    if pure:
        total = scheduler.total
        nominal = _nominal_fn(scheduler)
        cursor = [0]

        def step(wid: int, arrival: float, acp) -> Optional[tuple]:
            at = cursor[0]
            if at >= total:
                return None
            rem = total - at
            size, stage = nominal(wid, rem)
            size = int(size)
            if size < 1:
                size = 1
            if size > rem:
                size = rem
            cursor[0] = at + size
            return (at, at + size, stage)

        return step

    nodes = sim.cluster.nodes

    def step(wid: int, arrival: float, acp) -> Optional[tuple]:
        node = nodes[wid]
        view = WorkerView(
            worker_id=wid,
            virtual_power=float(node.virtual_power or 1.0),
            run_queue=node.load.q_at(arrival),
            acp=acp,
        )
        chunk = scheduler.next_chunk(view)
        if chunk is None:
            return None
        return (chunk.start, chunk.stop, chunk.stage)

    return step


# -- master-engine fast path -----------------------------------------------


def run_fast_master(sim) -> SimResult:
    """Fault-free master--slave run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.simulation.engine.MasterSlaveSimulation`
    that passed :func:`master_fast_reason`; its worker metrics are
    mutated in place exactly as the DES would.

    One pending *arrival* per worker, processed in exact DES order via
    the pedigree key (see module docstring); the compute and send legs
    of each chain are evaluated inline at arrival time -- their values
    only depend on the arrival, and the ``q_at`` realizations of
    stochastic load traces are query-order independent.
    """
    from .engine import SimulationError, StarvationError

    scheduler = sim.scheduler
    workload = sim.workload
    cluster = sim.cluster
    total = workload.size
    pref = _pref_list(workload)

    distributed = scheduler.distributed
    if distributed:
        participants = [
            s for s in sim.workers if sim._available(s, 0.0)
        ]
        if not participants:
            raise StarvationError(
                "no worker has ACP above the availability threshold; "
                "this is the classic-DTSS starvation the paper's "
                "Sec. 5.2 scaled ACP model avoids"
            )
        for s in participants:
            scheduler.observe_acp(s.index, sim._acp_now(s, 0.0))
    else:
        participants = list(sim.workers)

    # SS/CSS built here from a registry name: the nominal size is the
    # constant ``k``, so the assignment is two integer ops inlined in
    # the arrival branch (no stepper call at all).
    const_k = None
    cursor = 0
    if (
        getattr(sim, "_fresh_scheduler", False)
        and type(scheduler) in (PureScheduler, ChunkScheduler)
    ):
        const_k = scheduler.k
        step = None
    else:
        step = _compile_stepper(sim)
    acp_model = sim.acp_model
    collect = sim.collect_results

    n_nodes = len(cluster.nodes)
    metrics = [s.metrics for s in sim.workers]
    node_of = [s.node for s in sim.workers]
    latency = [node.latency for node in node_of]
    bandwidth = [node.bandwidth for node in node_of]
    reply_tx = [
        node.transfer_time(cluster.reply_bytes) for node in node_of
    ]
    vpower = [float(node.virtual_power or 1.0) for node in node_of]
    load_of = [node.load for node in node_of]
    speed_of = [node.speed for node in node_of]
    # ConstantLoad: the compute integral collapses to cost / rate.
    const_rate = [
        node.speed / node.load.q if type(node.load) is ConstantLoad
        else None
        for node in node_of
    ]
    # Per-worker metric accumulators as plain lists: same values, same
    # per-worker addition order as the dataclass fields, written back
    # once at the end (list stores are much cheaper than dataclass
    # attribute updates on the hot path).
    acc_com = [m.t_com for m in metrics]
    acc_wait = [m.t_wait for m in metrics]
    acc_comp = [m.t_comp for m in metrics]
    acc_chunks = [m.chunks for m in metrics]
    acc_iters = [m.iterations for m in metrics]

    request_bytes = cluster.request_bytes
    master_bw = cluster.master_bandwidth
    master_service = cluster.master_service
    res_bpi = cluster.result_bytes_per_item

    link_free = 0.0
    master_free = 0.0
    last_result = 0.0
    rows: list[tuple] = []
    results: list[tuple[int, np.ndarray]] = []

    # Pending next arrival per worker: time (inf = chain done), the
    # pedigree (send fire time, compute fire time, predecessor rank),
    # and the request payload (acp, carries-results flag, nbytes).
    nxt_t = [_INF] * n_nodes
    nxt_s = [0.0] * n_nodes
    nxt_c = [0.0] * n_nodes
    nxt_rank = [0] * n_nodes
    nxt_acp: list = [None] * n_nodes
    nxt_carry = [False] * n_nodes
    nxt_nb = [0.0] * n_nodes

    # Initial requests: direct calls in the DES too, worker index
    # order -- seqs 0..P-1 below every later seq, encoded as negative
    # ranks with pedigree (-1, -1) < any real fire time.
    active = 0
    for idx, s in enumerate(participants):
        i = s.index
        tx = latency[i] + request_bytes / bandwidth[i]
        acc_com[i] += tx
        nxt_t[i] = tx
        nxt_s[i] = -1.0
        nxt_c[i] = -1.0
        nxt_rank[i] = idx - n_nodes
        if distributed:
            nxt_acp[i] = acp_model.acp(vpower[i], load_of[i].q_at(0.0))
        nxt_nb[i] = request_bytes
        active += 1

    rank = 0
    while active:
        t = min(nxt_t)
        i = nxt_t.index(t)
        if nxt_t.count(t) > 1:
            # Coincident arrivals: full DES tie-break on the pedigree.
            best = (nxt_s[i], nxt_c[i], nxt_rank[i])
            for j in range(i + 1, n_nodes):
                if nxt_t[j] == t:
                    key = (nxt_s[j], nxt_c[j], nxt_rank[j])
                    if key < best:
                        best = key
                        i = j
        # -- arrival: master link + service serialization ----------------
        nb = nxt_nb[i]
        recv_start = t if t > link_free else link_free
        arrival = recv_start + nb / master_bw
        link_free = arrival
        if nxt_carry[i] and arrival > last_result:
            last_result = arrival
        service_start = arrival if arrival > master_free else master_free
        service_end = service_start + master_service
        master_free = service_end
        acc_wait[i] += service_end - t
        rtx = reply_tx[i]
        acc_com[i] += rtx
        tc = service_end + rtx  # compute event fire time
        # -- assignment --------------------------------------------------
        if const_k is not None:
            if cursor < total:
                rem = total - cursor
                size = const_k if const_k < rem else rem
                start = cursor
                stop = cursor + size
                cursor = stop
                stage = 0
            else:
                start = -1
        else:
            a = step(i, arrival, nxt_acp[i])
            if a is None:
                start = -1
            else:
                start, stop, stage = a
        if start >= 0:
            # -- compute leg, inline ------------------------------------
            cost = pref[stop] - pref[start]
            rate = const_rate[i]
            if rate is not None:
                finish = tc + cost / rate if cost > 1e-12 else tc
            else:
                finish = integrate_compute(
                    tc, cost, speed_of[i], load_of[i]
                )
            acc_comp[i] += finish - tc
            acc_chunks[i] += 1
            acc_iters[i] += stop - start
            rows.append((i, start, stop, tc, finish, stage, nxt_acp[i]))
            if collect:
                results.append((start, workload.execute(start, stop)))
            # -- send leg, inline: next arrival becomes pending ---------
            pig = (stop - start) * res_bpi
            nb = request_bytes + pig
            tx = latency[i] + nb / bandwidth[i]
            acc_com[i] += tx
            if distributed:
                nxt_acp[i] = acp_model.acp(
                    vpower[i], load_of[i].q_at(finish)
                )
            nxt_t[i] = finish + tx
            nxt_s[i] = finish
            nxt_c[i] = tc
            nxt_rank[i] = rank
            nxt_carry[i] = pig > 0
            nxt_nb[i] = nb
        else:
            # Dry request: terminate fires at the reply's delivery.
            metrics[i].finished_at = tc
            nxt_t[i] = _INF
            active -= 1
        rank += 1

    for i, m in enumerate(metrics):
        m.t_com = acc_com[i]
        m.t_wait = acc_wait[i]
        m.t_comp = acc_comp[i]
        m.chunks = acc_chunks[i]
        m.iterations = acc_iters[i]

    t_p = last_result
    for s in participants:
        m = s.metrics
        tracked = m.t_com + m.t_wait + m.t_comp
        if tracked < t_p:
            m.t_wait += t_p - tracked
    # DES chunk order is compute-event order: compute seqs follow
    # arrival processing order (= append order here), so a stable sort
    # on fire time reproduces it exactly, ties included.
    rows.sort(key=itemgetter(3))
    chunks = LazyChunkList(rows)
    result = SimResult(
        scheme=scheduler.name,
        workers=metrics,
        t_p=t_p,
        chunks=chunks,
        rederivations=getattr(scheduler, "rederivations", 0),
        # Fault-free event census: per worker, chunks+1 arrivals (the
        # last is the dry request), one compute and one send event per
        # chunk (the first send is a direct call), one terminate.
        events=3 * len(rows) + 2 * len(participants),
    )
    assigned = sum(acc_iters)
    if assigned != total:
        raise SimulationError(
            f"scheduling leak: assigned {assigned} of {total} "
            f"iterations"
        )
    if collect:
        results.sort(key=lambda pair: pair[0])
        result.results = (
            np.concatenate([r for _, r in results])
            if results
            else np.zeros(0)
        )
    sim._chunks = chunks
    sim._last_result_arrival = last_result
    return result


# -- decentral fast path ---------------------------------------------------


def run_fast_decentral(sim) -> SimResult:
    """Fault-free shared-counter run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.decentral.sim_engine.DecentralSimulation`
    that passed :func:`decentral_fast_reason`.  The whole chunk ladder
    comes from one :func:`repro.core.kernel.evaluate_ladder` call; the
    loop keeps one pending *chunk-durable* event per worker (claims
    happen at durability, so that is where counter ordering is
    decided) and evaluates claim + compute inline, replaying the
    engine's exact float expressions including the hierarchical lease
    logic.  Durable-event ties break on ``(compute fire time, claim
    rank)`` -- the DES's seq order, by the same pedigree argument as
    the master loop.
    """
    from .events import SimulationError

    calc = sim.calc
    workload = sim.workload
    cluster = sim.cluster
    total = workload.size
    pref = _pref_list(workload)

    ladder = evaluate_ladder(calc)
    starts = ladder.starts.tolist()
    stops = ladder.stops.tolist()
    stages = ladder.stages.tolist()
    n = ladder.n_chunks

    n_workers = len(sim.workers)
    metrics = [s.metrics for s in sim.workers]
    node_of = [s.node for s in sim.workers]
    req_tx = [
        node.transfer_time(cluster.request_bytes) for node in node_of
    ]
    rep_tx = [
        node.transfer_time(cluster.reply_bytes) for node in node_of
    ]
    load_of = [node.load for node in node_of]
    speed_of = [node.speed for node in node_of]
    const_rate = [
        node.speed / node.load.q if type(node.load) is ConstantLoad
        else None
        for node in node_of
    ]
    collect = sim.collect_results

    atomic_op_cost = sim.atomic_op_cost
    local_op_cost = sim.local_op_cost
    group_size = sim.group_size
    lease = sim.lease

    counter_free = 0.0
    next_ord = 0
    global_ops = 0
    local_ops = 0
    lease_state = dict(sim._lease_state)
    group_free = dict(sim._group_free)

    rows: list[tuple] = []
    results: list[tuple[int, np.ndarray]] = []
    # Per-worker metric accumulators as lists (see run_fast_master).
    acc_com = [m.t_com for m in metrics]
    acc_wait = [m.t_wait for m in metrics]
    acc_comp = [m.t_comp for m in metrics]
    acc_chunks = [m.chunks for m in metrics]
    acc_iters = [m.iterations for m in metrics]

    def allocate(i: int, at: float) -> tuple[Optional[int], float]:
        # Hierarchical (group-counter) claim path; the global-counter
        # path is inlined in the loop below.
        nonlocal next_ord, local_ops, counter_free, global_ops
        g = i // group_size
        gfree = group_free[g]
        local_start = at if at > gfree else gfree
        wait = local_start - at
        if wait:
            acc_wait[i] += wait
        local_end = local_start + local_op_cost
        group_free[g] = local_end
        nxt, lease_end = lease_state[g]
        if nxt < (lease_end if lease_end < n else n):
            lease_state[g] = (nxt + 1, lease_end)
            local_ops += 1
            return nxt, local_end
        if next_ord < n:
            base = next_ord
            next_ord += lease
            lease_state[g] = (base + 1, base + lease)
            index = base
        else:
            index = None
        gstart = local_end if local_end > counter_free else counter_free
        wait = gstart - local_end
        if wait:
            acc_wait[i] += wait
        end = gstart + atomic_op_cost
        counter_free = end
        global_ops += 1
        group_free[g] = end
        return index, end

    hierarchical = group_size is not None
    t_p = 0.0

    # Pending durable event per worker: fire time (inf = done) plus
    # the pedigree (compute fire time, claim rank); claim + compute
    # legs are evaluated inline when the event is processed.  Initial
    # claims are direct calls in the DES, worker index order at t = 0
    # (``0.0 + tx == tx`` exactly): encoded as due-at-zero events with
    # pedigree (-1, i - W), which the tie-break resolves to exactly
    # that order before any real durable can fire.
    nxt_t = [0.0] * n_workers
    nxt_c = [-1.0] * n_workers
    nxt_rank = [i - n_workers for i in range(n_workers)]
    active = n_workers

    rank = 0
    while active:
        t = min(nxt_t)
        i = nxt_t.index(t)
        if nxt_t.count(t) > 1:
            best = (nxt_c[i], nxt_rank[i])
            for j in range(i + 1, n_workers):
                if nxt_t[j] == t:
                    key = (nxt_c[j], nxt_rank[j])
                    if key < best:
                        best = key
                        i = j
        # -- claim -------------------------------------------------------
        rqx = req_tx[i]
        acc_com[i] += rqx
        at = t + rqx
        if hierarchical:
            index, access_end = allocate(i, at)
        else:
            if next_ord < n:
                index = next_ord
                next_ord += 1
            else:
                index = None
            cstart = at if at > counter_free else counter_free
            wait = cstart - at
            if wait:
                acc_wait[i] += wait
            access_end = cstart + atomic_op_cost
            counter_free = access_end
        acc_com[i] += rep_tx[i]
        resume = access_end + rep_tx[i]
        if index is None:
            # Dry counter: the chain terminates at the reply.
            metrics[i].finished_at = resume
            nxt_t[i] = _INF
            active -= 1
        else:
            # -- compute leg, inline ------------------------------------
            start = starts[index]
            stop = stops[index]
            cost = pref[stop] - pref[start]
            rate = const_rate[i]
            if rate is not None:
                finish = resume + cost / rate if cost > 1e-12 else resume
            else:
                finish = integrate_compute(
                    resume, cost, speed_of[i], load_of[i]
                )
            acc_comp[i] += finish - resume
            acc_chunks[i] += 1
            acc_iters[i] += stop - start
            # Full 7-field row: decentral claims carry no ACP.
            rows.append((i, start, stop, resume, finish, stages[index],
                         None))
            if finish > t_p:
                t_p = finish
            if collect:
                results.append((start, workload.execute(start, stop)))
            nxt_t[i] = finish
            nxt_c[i] = resume
            nxt_rank[i] = rank
        rank += 1

    if not hierarchical:
        # Every claim -- one per startup worker plus one per durable
        # chunk -- performs exactly one global counter access.
        global_ops = len(rows) + n_workers

    for i, m in enumerate(metrics):
        m.t_com = acc_com[i]
        m.t_wait = acc_wait[i]
        m.t_comp = acc_comp[i]
        m.chunks = acc_chunks[i]
        m.iterations = acc_iters[i]

    for s in sim.workers:
        m = s.metrics
        tracked = m.t_com + m.t_wait + m.t_comp
        if tracked < t_p:
            m.t_wait += t_p - tracked
    assigned = sum(acc_iters)
    if assigned != total:
        raise SimulationError(
            f"scheduling leak: assigned {assigned} of {total} "
            f"iterations"
        )
    # DES chunk order is compute-event order; stable sort on fire time
    # (rows were appended in claim order = compute seq order).
    rows.sort(key=itemgetter(3))
    chunks = LazyChunkList(rows)
    result = SimResult(
        scheme=calc.scheme,
        workers=metrics,
        t_p=t_p,
        chunks=chunks,
        rederivations=0,
        # Census: compute + durable per chunk, terminate per worker
        # (claims are direct calls, not events).
        events=2 * len(rows) + n_workers,
    )
    if collect:
        results.sort(key=lambda pair: pair[0])
        result.results = (
            np.concatenate([r for _, r in results])
            if results
            else np.zeros(0)
        )
    sim._chunks = chunks
    sim._next = next_ord
    sim._counter_free = counter_free
    sim._global_ops = global_ops
    sim._local_ops = local_ops
    sim._lease_state = lease_state
    sim._group_free = group_free
    return result
