"""The benchmark's own tests: names, span arithmetic, smoke runs, and
that each correctness check counts an output broken on purpose.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from pb import layers  # noqa: E402
from pb.spans import Span, Tracer  # noqa: E402
from run import SETUP_REPS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, timeout: float = 170.0):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    return proc


def test_catalog_matches_benchmark_json():
    declared = _declared()
    assert tuple(w["name"] for w in declared["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    names = [w["name"] for w in declared["workloads"]]
    names += [name for name, *_ in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [Span(0, "outer", 0.0, None, 1),
                Span(1, "a", 1.0, 0, 1),
                Span(2, "b", 4.0, 0, 1),
                Span(3, "leaf", 1.5, 1, 1)]
    for sp, end in zip(tr.spans, (10.0, 3.0, 5.0, 2.0)):
        sp.end = end
    assert tr.self_times() == {0: 7.0, 1: 1.5, 2: 1.0, 3: 0.5}
    assert tr.by_name()["outer"] == [7.0]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert {name: doc["unit"] for name, doc in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for doc in result["metrics"].values():
        assert isinstance(doc["value"], (int, float))
    table = "\n".join(lines[:-1])
    for m in declared:
        assert f"{m['name']} [{m['unit']}]" in table


def test_end_to_end_metrics_are_nonzero():
    proc = _run("--workload", "realrun", "--seed", "4", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(doc["value"] > 0 for doc in metrics.values()), metrics


def _measure_with(patch: str, workload: str, seed: int) -> dict:
    """Run one untraced 1 s measurement in a fresh interpreter after
    ``patch`` (source that breaks one output on purpose)."""
    script = "\n".join([
        "import json, os, sys",
        f"sys.path.insert(0, {BENCH!r})",
        "import run",
        "from pb.common import Sandbox",
        "sb = Sandbox(os.getcwd())",
        textwrap.dedent(patch),
        "try:",
        f"    _, attempted, failed = run.measure({workload!r}, sb, {seed},"
        " 1.0, False, sb.path('spans.jsonl'))",
        "finally:",
        "    sb.close()",
        "print(json.dumps({'broken': len(broken), 'failed': failed,"
        " 'attempted': attempted}))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_broken_reply_digest_is_counted():
    doc = _measure_with("""
        from repro.service import ServiceClient
        wait = ServiceClient.wait
        broken = []
        def tampered(self, job_id, timeout=None):
            reply = wait(self, job_id, timeout)
            if not broken and self.tenant == "alice":
                broken.append(job_id)
                reply["digest"] = "0" * 64
            return reply
        ServiceClient.wait = tampered
    """, "service", 5)
    assert doc["broken"] == 1
    assert doc["failed"] == 1
    assert doc["attempted"] > 1


def test_broken_persisted_record_is_counted():
    doc = _measure_with("""
        from repro import SimResult
        from_dict = SimResult.from_dict.__func__
        broken = []
        def tampered(cls, d):
            result = from_dict(cls, d)
            if not broken:
                broken.append(d["scheme"])
                result.t_p += 1.0
            return result
        SimResult.from_dict = classmethod(tampered)
    """, "sweep", 6)
    assert doc["broken"] == 1
    assert doc["failed"] == 1


def test_wrong_loop_result_is_counted():
    doc = _measure_with("""
        from pb.realrun import Realrun
        setup = Realrun.setup
        broken = []
        def tampered(self):
            elapsed = setup(self)
            self.reference = self.reference.copy()
            self.reference.flat[0] += 1
            broken.append(1)
            return elapsed
        Realrun.setup = tampered
    """, "realrun", 7)
    assert doc["broken"] == SETUP_REPS  # one per set-up
    assert doc["failed"] == doc["attempted"] > 0


def test_fails_without_the_program():
    """Outside a checkout (no src/repro) the command prints no result."""
    bare = os.path.join(ROOT, ".perfbench_run", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
