"""The repository benchmark: ``sweep``, ``service`` and ``realrun``.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (an untraced and a traced
half of the op loop, then the layer census); ``--trace both`` (the
default) does one run of each.  The tables go to stdout, and the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (for a single workload and trace mode; otherwise the
metrics are keyed by workload and mode).  The exit code is 0 only when
every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("sweep", "service", "realrun")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Hard stop for one run, leaving time to stop the daemon and pools
#: inside the 180 s a run may take.
RUN_DEADLINE_S = 150


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="sweep, service, realrun, a comma list, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed op-loop seconds per run")
    parser.add_argument("--trace", default="both",
                        choices=["0", "1", "both"])
    return parser


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def measure(name: str, sb, seed: int, seconds: float, traced: bool,
            spans_path: str):
    """One run of one workload; ``(metrics, attempted, failed)``."""
    # The pb modules import repro, which resolves only once the
    # sandbox has put src/ on sys.path.
    from pb import layers
    from pb.realrun import Realrun
    from pb.service import Service
    from pb.spans import NullTracer, Tracer
    from pb.sweep import Sweep

    cls = {"sweep": Sweep, "service": Service, "realrun": Realrun}[name]
    workload = cls(sb, seed)
    attempted = failed = 0
    try:
        setups = [workload.setup() for _ in range(SETUP_REPS)]
        if not traced:
            phase = workload.run(seconds, NullTracer())
            metrics = layers.end_to_end(phase, setups,
                                        workload.peak_rss_mb())
            phases = [phase]
        else:
            plain = workload.run(seconds / 2, NullTracer())
            tr = Tracer()
            traced_phase = workload.run(seconds / 2, tr)
            extra_attempted, extra_failed = workload.census(tr)
            attempted += extra_attempted
            failed += extra_failed
            base = plain.throughput()
            overhead = (1.0 - traced_phase.throughput() / base
                        if base else 0.0)
            metrics = layers.per_layer(tr, overhead)
            tr.dump(spans_path)
            phases = [plain, traced_phase]
    finally:
        failed += workload.close()
    failed += workload.check()
    for phase in phases:
        attempted += phase.attempted
        failed += phase.failed
    return metrics, attempted, failed


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(rows) -> None:
    from pb.layers import END_TO_END

    heads = ["workload"] + [f"{n} [{u}]" for n, u, _ in END_TO_END] \
        + ["attempted", "failed"]
    print("end-to-end (tracing off)")
    print("  ".join(heads))
    for name, metrics, attempted, failed in rows:
        cells = [name] + [_fmt(metrics[n]) for n, _, _ in END_TO_END]
        print("  ".join(cells + [str(attempted), str(failed)]))


def print_per_layer(cols) -> None:
    from pb.layers import PER_LAYER

    print("per-layer (traced run)")
    print("  ".join(["metric [unit]"] + [name for name, _ in cols]
                    + ["should move"]))
    for metric, unit, _, moves in PER_LAYER:
        cells = [f"{metric} [{unit}]"]
        cells += [_fmt(metrics[metric]) for _, metrics in cols]
        print("  ".join(cells + [moves]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" \
        else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload(s) {unknown}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    modes = (False, True) if args.trace == "both" \
        else (args.trace == "1",)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from pb.layers import UNITS

    results, counts = {}, {}
    for name in names:
        for traced in modes:
            if len(names) * len(modes) == 1:
                metrics, n_att, n_fail = run_one(name, args, traced)
            else:
                outcome = run_child(name, args, traced)
                if outcome is None:
                    return 1
                metrics, n_att, n_fail = outcome
            results[(name, traced)] = metrics
            counts[(name, traced)] = (n_att, n_fail)

    rows = [(n, results[(n, False)], *counts[(n, False)])
            for n in names if (n, False) in results]
    if rows:
        print_end_to_end(rows)
    cols = [(n, results[(n, True)]) for n in names if (n, True) in results]
    if cols:
        print_per_layer(cols)

    def typed(metrics: dict) -> dict:
        return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}

    if len(results) == 1:
        metrics = typed(next(iter(results.values())))
    else:
        metrics = {f"{n}/{'trace' if t else 'e2e'}": typed(m)
                   for (n, t), m in results.items()}
    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_one(name: str, args, traced: bool):
    """One measurement in this process, under the run deadline."""
    from pb.common import RUN_ROOT, Sandbox

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    sb = Sandbox(os.getcwd())
    try:
        return measure(name, sb, args.seed, args.seconds, traced,
                       os.path.join(RUN_ROOT, f"spans-{name}.jsonl"))
    finally:
        signal.alarm(0)
        sb.close()


def run_child(name: str, args, traced: bool):
    """One measurement in a fresh interpreter, as the harness runs it,
    so no process-wide state (cost cache, reaped-child peaks) leaks
    between measurements.  None if it printed no result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {name} printed no result (exit "
              f"{proc.returncode})", file=sys.stderr)
        return None
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    return metrics, doc["attempted"], doc["failed"]


if __name__ == "__main__":
    sys.exit(main())
