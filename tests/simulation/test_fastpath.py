"""Bit-identity guard for the analytic fast path.

The fast path (:mod:`repro.simulation.fastpath`) must be *exactly* the
DES on fault-free deterministic runs -- every float in every
:class:`SimResult` field equal with ``==``, not ``approx``.  These
tests sweep the full scheme registry over heterogeneous clusters with
all three load-generator shapes, the paper cluster (identical fast
nodes force structural event-time ties, exercising the pedigree
tie-break), the decentral engine in global / hierarchical / leased
modes, and both non-string scheduler provenances (instance, factory).

Selection-rule tests pin the dispatch contract: ``fast="auto"`` falls
back silently, ``fast=True`` raises with the blocking reason,
``REPRO_FAST=0`` kills the path globally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultPlan
from repro.core import make, names
from repro.decentral import DECENTRAL_SCHEMES, simulate_decentral
from repro.experiments import paper_cluster, paper_workload
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    SimulationError,
)
from repro.simulation import fastpath
from repro.simulation.engine import simulate
from repro.simulation.loadgen import PeriodicLoad, RandomLoad
from repro.workloads import MandelbrotWorkload

from .test_result_encoding import assert_roundtrip


def assert_identical(a, b, tag=""):
    """Field-by-field exact equality of two SimResults."""
    assert a.scheme == b.scheme, tag
    assert a.t_p == b.t_p, (tag, a.t_p, b.t_p)
    assert a.events == b.events, (tag, a.events, b.events)
    assert a.rederivations == b.rederivations, tag
    assert len(a.chunks) == len(b.chunks), tag
    for x, y in zip(a.chunks, b.chunks):
        assert (x.worker, x.start, x.stop, x.stage, x.acp) == (
            y.worker, y.start, y.stop, y.stage, y.acp), (tag, x, y)
        assert x.assigned_at == y.assigned_at, (tag, x, y)
        assert x.completed_at == y.completed_at, (tag, x, y)
    for x, y in zip(a.workers, b.workers):
        assert x.name == y.name, tag
        assert x.t_com == y.t_com, (tag, x.name, x.t_com, y.t_com)
        assert x.t_wait == y.t_wait, (tag, x.name, x.t_wait, y.t_wait)
        assert x.t_comp == y.t_comp, (tag, x.name, x.t_comp, y.t_comp)
        assert x.chunks == y.chunks, (tag, x, y)
        assert x.iterations == y.iterations, (tag, x, y)
        assert x.finished_at == y.finished_at, (tag, x, y)


def heterogeneous_cluster(loadshape="const", n=4, **overrides):
    """A deliberately lopsided cluster: no two nodes alike."""
    nodes = []
    for i in range(n):
        if loadshape == "const":
            load = ConstantLoad(1 + (i % 2))
        elif loadshape == "random":
            load = RandomLoad(seed=42 + i)
        else:
            load = PeriodicLoad(period=7.0, q_on=3, q_off=1,
                                duty=0.4, phase=0.3 * i)
        nodes.append(NodeSpec(
            name=f"n{i}", speed=80.0 + 17.0 * i,
            latency=1e-3 * (1 + i % 3), bandwidth=1.0e6 * (1 + i),
            load=load, virtual_power=1.0 + 0.5 * i, **overrides,
        ))
    return ClusterSpec(nodes=nodes, master_bandwidth=8e6,
                       master_service=2e-4, request_bytes=64.0,
                       reply_bytes=128.0, result_bytes_per_item=40.0)


@pytest.fixture(scope="module")
def workload():
    return MandelbrotWorkload(width=240, height=120)


# -- master engine ---------------------------------------------------------

#: Feedback-dependent schemes (the adaptive meta-scheduler) are
#: fast-path *ineligible* by contract: they observe the run they
#: steer, so the bit-identity sweep covers everything else and
#: test_feedback_dependent_schemes_refuse_fast pins their refusal.
FAST_ELIGIBLE = [
    n for n in names()
    if not getattr(make(n, 100, 4), "feedback_dependent", False)
]
FEEDBACK_DEPENDENT = [n for n in names() if n not in FAST_ELIGIBLE]


@pytest.mark.parametrize("scheme", FAST_ELIGIBLE)
@pytest.mark.parametrize("loadshape", ["const", "random", "periodic"])
def test_master_bit_identity(workload, scheme, loadshape):
    cluster = heterogeneous_cluster(loadshape)
    a = simulate(scheme, workload, cluster, fast=True,
                 collect_results=True)
    b = simulate(scheme, workload, cluster, fast=False,
                 collect_results=True)
    assert_identical(a, b, f"{loadshape}/{scheme}")
    assert np.array_equal(a.results, b.results)
    assert_roundtrip(a, f"fast/{loadshape}/{scheme}")
    assert_roundtrip(b, f"des/{loadshape}/{scheme}")


@pytest.mark.parametrize("overloaded", [(), (0, 3)])
@pytest.mark.parametrize("scheme", FAST_ELIGIBLE)
def test_master_bit_identity_paper_cluster(scheme, overloaded):
    """Identical fast PEs produce structural event-time ties; the
    pedigree tie-break must replay the DES seq order exactly."""
    wl = paper_workload(width=280, height=140)
    cluster = paper_cluster(wl, overloaded=overloaded)
    a = simulate(scheme, wl, cluster, fast=True)
    b = simulate(scheme, wl, cluster, fast=False)
    assert_identical(a, b, f"paper/{scheme}/{overloaded}")


@pytest.mark.parametrize("scheme", FEEDBACK_DEPENDENT)
def test_feedback_dependent_schemes_refuse_fast(workload, scheme):
    """fast=True must raise with the blocking reason; fast="auto"
    must fall back to the DES and match fast=False exactly."""
    cluster = heterogeneous_cluster()
    with pytest.raises(SimulationError, match="feedback-dependent"):
        simulate(scheme, workload, cluster, fast=True)
    a = simulate(scheme, workload, cluster, fast="auto")
    b = simulate(scheme, workload, cluster, fast=False)
    assert_identical(a, b, f"auto-fallback/{scheme}")
    assert_roundtrip(b, f"des/{scheme}")


def test_master_scheduler_instance_and_factory(workload):
    cluster = heterogeneous_cluster()
    a = simulate(make("TSS", workload.size, cluster.size),
                 workload, cluster, fast=True)
    b = simulate(make("TSS", workload.size, cluster.size),
                 workload, cluster, fast=False)
    assert_identical(a, b, "instance")
    a = simulate(lambda t, w: make("FSS", t, w), workload, cluster,
                 fast=True)
    b = simulate(lambda t, w: make("FSS", t, w), workload, cluster,
                 fast=False)
    assert_identical(a, b, "factory")


# -- decentral engine ------------------------------------------------------


@pytest.mark.parametrize("scheme", sorted(DECENTRAL_SCHEMES))
@pytest.mark.parametrize("mode", [
    {}, {"group_size": 2}, {"group_size": 3, "lease": 4},
])
def test_decentral_bit_identity(workload, scheme, mode):
    cluster = heterogeneous_cluster("random", n=6)
    a = simulate_decentral(scheme, workload, cluster, fast=True,
                           collect_results=True, **mode)
    b = simulate_decentral(scheme, workload, cluster, fast=False,
                           collect_results=True, **mode)
    assert_identical(a, b, f"dec/{scheme}/{mode}")
    assert np.array_equal(a.results, b.results)
    assert_roundtrip(a, f"dec-fast/{scheme}/{mode}")
    assert_roundtrip(b, f"dec-des/{scheme}/{mode}")


# -- selection rules -------------------------------------------------------


def test_fast_true_raises_on_chaos_plan(workload):
    with pytest.raises(SimulationError, match="fault plan"):
        simulate("SS", workload, heterogeneous_cluster(),
                 chaos=FaultPlan(), fast=True)


def test_fast_true_raises_on_collector(workload):
    with pytest.raises(SimulationError, match="collector"):
        simulate("SS", workload, heterogeneous_cluster(),
                 collector=BufferedCollector(), fast=True)


def test_fast_true_raises_on_fails_at(workload):
    with pytest.raises(SimulationError, match="fails_at"):
        simulate("SS", workload,
                 heterogeneous_cluster(fails_at=5.0), fast=True)


def test_fast_true_raises_on_shared_segment(workload):
    with pytest.raises(SimulationError, match="segment"):
        simulate("SS", workload,
                 heterogeneous_cluster(segment="lan0"), fast=True)


def test_fast_true_raises_on_decentral_chaos(workload):
    with pytest.raises(SimulationError, match="fault plan"):
        simulate_decentral("SS", workload, heterogeneous_cluster(),
                           chaos=FaultPlan(), fast=True)


def test_auto_falls_back_silently_on_collector(workload):
    """fast="auto" with a collector attached runs the DES and still
    produces the observability stream."""
    obs = BufferedCollector()
    result = simulate("SS", workload, heterogeneous_cluster(),
                      collector=obs)
    assert result.t_p > 0
    assert len(obs) > 0


def test_env_kill_switch_forces_des(workload, monkeypatch):
    """REPRO_FAST=0 disables the path even for eligible runs."""
    calls = []
    real = fastpath.run_fast_master
    monkeypatch.setattr(fastpath, "run_fast_master",
                        lambda sim: calls.append(1) or real(sim))
    cluster = heterogeneous_cluster()
    monkeypatch.setenv(fastpath.ENV_FAST, "0")
    off = simulate("SS", workload, cluster)
    assert not calls
    with pytest.raises(SimulationError, match="disabled"):
        simulate("SS", workload, cluster, fast=True)
    monkeypatch.delenv(fastpath.ENV_FAST)
    on = simulate("SS", workload, cluster)
    assert calls == [1]
    assert_identical(off, on, "kill-switch")


def test_auto_takes_fast_path_when_eligible(workload, monkeypatch):
    calls = []
    real = fastpath.run_fast_decentral
    monkeypatch.setattr(fastpath, "run_fast_decentral",
                        lambda sim: calls.append(1) or real(sim))
    simulate_decentral("GSS", workload, heterogeneous_cluster())
    assert calls == [1]


def test_results_pickle_and_serialize_roundtrip(workload):
    """Lazy chunk lists must survive pickling and to_dict/from_dict."""
    import pickle

    from repro.simulation.metrics import SimResult

    a = simulate("FSS", workload, heterogeneous_cluster(), fast=True)
    b = pickle.loads(pickle.dumps(a))
    assert_identical(a, b, "pickle")
    c = SimResult.from_dict(a.to_dict())
    assert_identical(a, c, "dict-roundtrip")
