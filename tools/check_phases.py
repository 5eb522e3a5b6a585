#!/usr/bin/env python3
"""Time the fixed phases of a mesh check on perfbench's compute-mock
workload.

    python tools/check_phases.py [--checks 12] [--seed 11]

Starts one local Ray session traced by perfbench's span tracer
(``perfbench.trace``, used as it is), crawls the compute-mock corpus
once to warm the session (its actors, its corpus broadcast), then
``--checks`` more times, and prints the median over those checks of
each phase, in ms from the start of ``LinkChecker.check``:

- ``resets sent``: the driver has sent every node its lease reset (the
  check's ``actors.Lease`` is built);
- ``node init``: the first ``MeshNode.__init__`` span starts on a node
  (its reset arrived and its arguments are resolved);
- ``first pump``: the first ``MeshNode.pump`` span starts on a node;
- ``first result``: the driver's first ``on_results`` call;
- ``end lag``: from the end of the last pump span to ``check()``'s
  return;
- ``finish``: ``stats["timings"]["finish"]``, the end-of-check tail.

Spans are stamped with each process's wall clock, so the phases that
cross processes (``first pump``, ``end lag``) hold on one machine only.
Every check is held to the workload's ground truth. The header gives
``nproc`` (which honours ``OMP_NUM_THREADS``), the CPUs this process
may run on and the load average; compare two checkouts by running each
one's copy alternately on one machine.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

PHASES = ("resets sent", "node init", "first pump", "first result",
          "end lag", "finish")


def nproc() -> str:
    """What ``nproc`` prints, and the CPUs this process may run on."""
    shown = subprocess.run(["nproc"], capture_output=True,
                           text=True).stdout.strip()
    return f"{shown}  affinity {len(os.sched_getaffinity(0))}"


def record_leases(stamps: list[float]) -> None:
    """Append the wall-clock time at which each ``Lease`` has sent its
    resets (its construction only sends them)."""
    from linkinator_ray.state import actors
    init = actors.Lease.__init__

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stamps.append(time.time())
    actors.Lease.__init__ = stamped


def phases(lines: list[dict], checks: list[dict]) -> list[dict]:
    """Each check's phases in seconds from the traced lines: the driver's
    ``crawl.check`` span and the node spans that start in it."""
    spans = [s for line in lines for s in line["spans"]]

    def of(name):
        return sorted((s[2], s[3]) for s in spans if s[0] == name)
    runs, inits, pumps = of("crawl.check"), of("mesh.node_init"), \
        of("mesh.pump")
    out = []
    for (start, end), check in zip(runs[-len(checks):], checks):
        mine = [p for p in pumps if start <= p[0] <= end]
        out.append({
            "resets sent": check["lease"] - start,
            "node init": min(i[0] for i in inits if start <= i[0] <= end)
            - start,
            "first pump": min(p[0] for p in mine) - start,
            "first result": check["first"] - start,
            "end lag": end - max(p[1] for p in mine),
            "finish": check["finish"]})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    # workers import the engine of this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    from perfbench import run, trace, workloads
    w = workloads.WORKLOADS["compute-mock"]
    corpus = workloads.Corpus(w, args.seed)
    truth = corpus.truth()
    bench = run.Bench(w, corpus, "", None)
    trace_dir = tempfile.mkdtemp(prefix="check_phases_")
    stamps: list[float] = []
    checks, wrong = [], 0
    try:
        trace.install(trace_dir)
        record_leases(stamps)
        run.ray_init(trace_dir)
        bench.checker(corpus.warm_seed_urls(), None,
                      actors=w.warm_actors(run.RAY_CPUS)).check()
        for _ in range(args.checks):
            first: list[float] = []

            def on_results(table, first=first):
                if not first:
                    first.append(time.time())
            result = bench.checker(corpus.seed_urls(), None,
                                   on_results).check()
            verdict = workloads.verify(
                truth, workloads.result_rows(result, None),
                corpus.fp_budget())
            wrong += not verdict.correct
            checks.append({"lease": stamps[-1], "first": first[0],
                           "finish": result.stats["timings"]["finish"]})
        lines = trace.read(trace_dir)
    finally:
        run.stop_ray()
        shutil.rmtree(trace_dir, ignore_errors=True)
        shutil.rmtree(run.RAY_TEMP_DIR, ignore_errors=True)
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"nproc {nproc()}  load {load}  checks {len(checks)}  "
          f"seed {args.seed}  wrong {wrong}  engine {ROOT}")
    rows = phases(lines, checks)
    print(f"{'phase':<13} {'median ms':>9} {'min':>7} {'max':>7}")
    for name in PHASES:
        ms = [r[name] * 1e3 for r in rows]
        print(f"{name:<13} {statistics.median(ms):9.2f} {min(ms):7.2f} "
              f"{max(ms):7.2f}")


if __name__ == "__main__":
    main()
