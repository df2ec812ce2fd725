"""Result encoding: chunk rows across pickle and JSON.

A :class:`SimResult` crosses process pools (pickle), JSONL sweeps and
the service wire (``to_dict`` + ``json``) with its chunk trace as
7-field rows.  These tests hold every substrate's result to an exact
round trip -- every float compared by ``repr``, so ``-0.0`` and
int/float drift count as differences -- and guard the encoded size
per chunk with deterministic byte counts.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.chaos import FaultPlan
from repro.core import names
from repro.decentral import (
    DECENTRAL_SCHEMES,
    DecentralSimulation,
    make_calculator,
    simulate_decentral,
)
from repro.experiments import paper_cluster, paper_workload
from repro.simulation import fastpath, simulate_tree
from repro.simulation.engine import (
    MasterSlaveSimulation,
    make_for_cluster,
    simulate,
)
from repro.simulation.metrics import (
    CHUNK_FIELDS,
    ChunkRecord,
    LazyChunkList,
    SimResult,
    WorkerMetrics,
)
from repro.verify import audit_sim
from repro.workloads import MandelbrotWorkload


def result_bits(result: SimResult) -> tuple:
    """``t_p`` plus every WorkerMetrics and ChunkRecord field, as reprs."""
    return (
        repr(result.t_p),
        [repr(dataclasses.astuple(w)) for w in result.workers],
        [repr(dataclasses.astuple(c)) for c in result.chunks],
    )


def assert_roundtrip(result: SimResult, tag: str = "") -> None:
    """Pickle and ``to_dict``/JSON/``from_dict`` both rebuild
    ``result`` bit for bit, with fixed-width JSON chunk rows."""
    # Encode before anything reads the chunks: a row-backed result
    # must be exported from its rows, not from materialized records.
    blob = pickle.dumps(result)
    doc = json.loads(json.dumps(result.to_dict()))
    expected = result_bits(result)
    assert result_bits(pickle.loads(blob)) == expected, tag
    assert all(len(row) == len(CHUNK_FIELDS) for row in doc["chunks"]), tag
    assert result_bits(SimResult.from_dict(doc)) == expected, tag
    # Decoding twice stays exact (the rebuilt result re-encodes alike).
    again = SimResult.from_dict(doc)
    assert json.loads(json.dumps(again.to_dict())) == doc, tag


@pytest.fixture(scope="module")
def workload():
    return MandelbrotWorkload(width=240, height=120)


@pytest.fixture(scope="module")
def cluster(workload):
    return paper_cluster(workload, overloaded=(0, 3))


def test_tree_engine_roundtrip(workload, cluster):
    for weighted in (False, True):
        assert_roundtrip(simulate_tree(workload, cluster,
                                       weighted=weighted),
                         f"tree/{weighted}")


@pytest.mark.parametrize("seed", [3, 11])
def test_chaos_run_roundtrip(workload, cluster, seed):
    plan = FaultPlan.random(seed=seed, workers=cluster.size,
                            horizon=1.0)
    assert_roundtrip(simulate("TSS", workload, cluster, chaos=plan),
                     f"chaos/master/{seed}")
    assert_roundtrip(simulate_tree(workload, cluster, chaos=plan),
                     f"chaos/tree/{seed}")
    assert_roundtrip(simulate_decentral("FSS", workload, cluster,
                                        chaos=plan),
                     f"chaos/decentral/{seed}")


def test_raw_fast_path_rows_roundtrip(workload, cluster):
    """Fast-path results straight from the engine, rows untouched.

    ``simulate`` goes through ``Simulation.run``, which the suite's
    audit hook wraps; the audit iterates ``result.chunks`` and so turns
    the rows into records before a test sees them.  Here the fast
    loops run directly, and the audit runs after the round trip.
    """
    runs = []
    for scheme in names():
        sim = MasterSlaveSimulation(
            make_for_cluster(scheme, workload.size, cluster),
            workload, cluster, fast=True,
        )
        if fastpath.master_fast_reason(sim) is None:
            runs.append((scheme, sim, fastpath.run_fast_master(sim)))
    for scheme in sorted(DECENTRAL_SCHEMES):
        sim = DecentralSimulation(
            make_calculator(scheme, workload.size, cluster.size),
            workload, cluster, fast=True,
        )
        runs.append((f"dec/{scheme}", sim, fastpath.run_fast_decentral(sim)))
    assert len(runs) > len(DECENTRAL_SCHEMES)
    for tag, sim, result in runs:
        # Decentral claims carry no ACP; their rows still have 7 fields.
        assert all(len(row) == len(CHUNK_FIELDS)
                   for row in result.chunks.rows()), tag
        assert_roundtrip(result, tag)
        audit_sim(result, workload.size).raise_if_failed()


def test_decentral_fast_records_equal_des(workload, cluster):
    """Every boundary yields the DES's records, ``acp=None``."""
    fast = simulate_decentral("TSS", workload, cluster, fast=True)
    des = simulate_decentral("TSS", workload, cluster, fast=False)
    for rebuilt in (
        pickle.loads(pickle.dumps(fast)),
        SimResult.from_dict(json.loads(json.dumps(fast.to_dict()))),
    ):
        assert list(rebuilt.chunks) == list(des.chunks)
        assert all(rec.acp is None for rec in rebuilt.chunks)


def test_records_and_rows_agree(workload, cluster):
    """A DES (record-backed) result exports the same rows as its
    fast-path (row-backed) twin, and both compare equal."""
    fast = simulate("DTSS", workload, cluster, fast=True)
    des = simulate("DTSS", workload, cluster, fast=False)
    assert fast.chunks.rows() == des.chunks.rows()
    assert fast.chunks == des.chunks
    assert fast.to_dict() == des.to_dict()


def test_plain_record_list_is_wrapped():
    rec = ChunkRecord(worker=0, start=0, stop=4, assigned_at=0.0,
                      completed_at=1.5, stage=1, acp=3)
    result = SimResult(scheme="X", workers=[WorkerMetrics(name="a")],
                       t_p=1.5, chunks=[rec])
    assert isinstance(result.chunks, LazyChunkList)
    assert result.chunks.rows() == [(0, 0, 4, 0.0, 1.5, 1, 3)]
    assert result.to_dict()["chunks"] == [(0, 0, 4, 0.0, 1.5, 1, 3)]
    empty = SimResult(scheme="X", workers=[], t_p=0.0, chunks=[])
    assert empty.chunks == [] and not empty.chunks
    assert_roundtrip(empty, "empty")


def test_from_dict_reads_per_chunk_objects(workload, cluster):
    """Results persisted as one object per chunk still load."""
    result = simulate("FSS", workload, cluster)
    doc = json.loads(json.dumps(result.to_dict()))
    doc["chunks"] = [dict(zip(CHUNK_FIELDS, row)) for row in doc["chunks"]]
    assert result_bits(SimResult.from_dict(doc)) == result_bits(result)


# -- size guard ------------------------------------------------------------

#: Encoded bytes per chunk over the 1000x500 paper-window TSS and SS
#: jobs.  Rows take 32-34 B pickled and 64-66 B as JSON; one record
#: object per chunk took 57 and 140.
MAX_PICKLE_B_PER_CHUNK = 40
MAX_JSON_B_PER_CHUNK = 80


@pytest.mark.parametrize("fast", [True, False])
def test_encoded_bytes_per_chunk(fast):
    wl = paper_workload(width=1000, height=500)
    cluster = paper_cluster(wl)
    results = [simulate(s, wl, cluster, fast=fast) for s in ("TSS", "SS")]
    chunks = sum(len(r.chunks) for r in results)
    pickled = sum(len(pickle.dumps(r)) for r in results)
    encoded = sum(len(json.dumps(r.to_dict())) for r in results)
    assert pickled / chunks <= MAX_PICKLE_B_PER_CHUNK, pickled / chunks
    assert encoded / chunks <= MAX_JSON_B_PER_CHUNK, encoded / chunks
