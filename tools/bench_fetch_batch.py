"""Fetch-batch cost harness: the fixed and per-row cost of one
``FetchWorker.fetch_batch`` call (or, with ``--pump``, of one whole mesh
pump), stage by stage, Ray-free.

    python tools/bench_fetch_batch.py [--pump] [--repeats 5] [--seed 3]
        [--max-rows 4096]

Builds a compute-mock-shaped corpus (``synth_crawl_corpus(16, 2000)``,
served by the mock transport with no latency), then calls
``fetch_batch`` on frontier batches of B = 8, 16, ... ``--max-rows``
rows, ``--repeats`` times each on fresh rows; each repeat runs every B
once, so the repeats of one B are spread over the whole run. A batch is
a run of page URLs plus the corpus's broken ``/missingJ.html`` link
targets at their share of the crawl's URLs (about 2%), and at least
one: a crawl's pumps carry them, and each batch that does pays the fixed
cost of the static server's rules for URLs the corpus index misses.
Each stage's seconds per call are taken as the best of the repeats at
each B and fitted to ``fixed + per_row * B`` by least squares: the
fixed term on the points with B <= 64 alone (over all of them the
large-B points dominate the intercept, and its noise), the per-row term
on all of them. The ``cpu`` row fits the whole call's process CPU
seconds (best of the repeats) the same way: CPU time does not count the
time this process waited for a CPU, so on a shared machine it repeats
where the wall-clock fit does not. Stages:

- ``transport``: the request steps (``FetchWorker._request_steps``);
- ``extract``: ``ExtractLinks.extract_with_fragments`` less the resolver;
- ``resolve``: ``urlkit.resolve_links_arrow``;
- ``links``: per-link processing (``FetchWorker._process_links_vec``);
- ``classify``: ``FetchWorker._classify_in_actor``;
- ``other``: the rest of the call; ``total``: the whole call; ``cpu``:
  its process CPU seconds.

``--pump`` times one pump of node 0 of a two-node compute-mock mesh
(cuckoo seen filters, balanced routing): ``MeshNode._process`` on the
batch, then the end-of-pump flush, which encodes node 1's share of the
candidates for the wire, and whose fake peer handle hands the message
straight to node 1's ``deliver_candidates``. The seen filters carry
over from call to call, as in a crawl. Stages:

- ``admit``: ``admit_frontier`` (skip rules, robots, politeness gate);
- ``fetch``: ``FetchWorker.fetch_batch``, of which ``transport`` is the
  request steps;
- ``route``: node 0's candidate routing and the dedup of its own share;
- ``peer``: node 1's ``submit_candidates`` (after the decode);
- ``dedup``: ``dedup_candidates`` on both nodes (inside route and peer);
- ``wire``: the message's ``schema.encode`` and ``schema.decode``;
- ``other``: the rest (requeues, result tables, the flush);
  ``total``: the whole pump; ``cpu``: its process CPU seconds.

Compute-bound numbers compare only with runs on the same machine at the
same time (alternate the two sides): the header line gives ``nproc``
(which honours ``OMP_NUM_THREADS``), the CPUs this process may run on
and the load average.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

STAGES = ("transport", "extract", "resolve", "links", "classify", "other",
          "total", "cpu")
PUMP_STAGES = ("admit", "fetch", "transport", "route", "peer", "dedup",
               "wire", "other", "total", "cpu")
# the batch sizes the fixed term is fitted on
SMALL_B = 64


class StageClock:
    """Seconds spent inside each wrapped callable since ``reset``."""

    def __init__(self, stages=STAGES):
        self.stages = stages
        self.reset()

    def reset(self) -> None:
        self.secs: dict[str, float] = dict.fromkeys(self.stages, 0.0)

    def wrap(self, owner, attr: str, stage: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.secs[stage] += time.perf_counter() - t0
        setattr(owner, attr, timed)


def build_worker(seed: int):
    """A FetchWorker over a compute-mock-shaped corpus, and the corpus's
    page and missing URLs (the frontier the batches are cut from)."""
    from linkinator_ray.options import CheckOptions
    from linkinator_ray.sources.synth import synth_crawl_corpus
    from linkinator_ray.stages.fetch import FetchWorker, build_transport
    docs, seeds, _, _ = synth_crawl_corpus(num_hosts=16, docs_per_host=2000,
                                           seed=seed)
    opts = CheckOptions(paths=seeds, recurse=True)
    transport = build_transport({"documents": docs, "multi_host": True,
                                 "strict": False, "record_calls": True},
                                opts)
    worker = FetchWorker(transport, opts, static_host="http://corpus.test/")
    return worker, crawl_urls(docs)


def crawl_urls(docs) -> tuple[list[str], list[str]]:
    """The URL of each corpus page, as the crawl requests it, and the
    distinct ``/missingJ.html`` URLs its pages link to (no page
    answers them)."""
    import pyarrow.compute as pc
    pages, hosts = [], []
    for doc_id in docs["doc_id"].to_pylist():
        host, path = doc_id.split("/", 1)
        hosts.append(host)
        pages.append(f"http://{host}/" + ("" if path == "index.html"
                                          else path))
    spans = docs["spans"].combine_chunks()
    owner = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    refs = pc.list_flatten(spans).field("media_ref").to_pylist()
    missing = sorted({f"http://{hosts[row]}{ref}"
                      for row, ref in zip(owner, refs)
                      if ref.startswith("/missing")})
    return pages, missing


class FakeHandle:
    """An actor handle stand-in: ``handle.method.remote(*args)`` calls
    ``target.method(*args)`` at once, or does nothing without a target."""

    def __init__(self, target=None):
        self._target = target

    def __getattr__(self, name: str):
        target = self._target

        class Method:
            @staticmethod
            def remote(*args):
                if target is not None:
                    return getattr(target, name)(*args)
        return Method


def build_pump(seed: int):
    """Nodes 0 and 1 of a two-node compute-mock mesh, Ray-free: node 0's
    handle for node 1 delivers candidates straight to node 1. Returns
    node 0, node 1 and the corpus's page and missing URLs."""
    from linkinator_ray.options import CheckOptions
    from linkinator_ray.sources.synth import synth_crawl_corpus
    from linkinator_ray.state.mesh import MeshNode
    docs, seeds, _, _ = synth_crawl_corpus(num_hosts=16, docs_per_host=2000,
                                           seed=seed)
    from linkinator_ray import schema
    opts = CheckOptions(paths=seeds, recurse=True, seen_filter="cuckoo")
    corpus = {"documents": schema.encode(docs), "multi_host": True}
    blob = {"strict": False, "record_calls": True}
    nodes = [MeshNode(i, 2, corpus, blob, opts,
                      static_host="http://corpus.test/", sticky_hosts=False)
             for i in range(2)]
    for node in nodes:
        node.start(FakeHandle(), 1)
    nodes[0].connect([FakeHandle(), FakeHandle(nodes[1])])
    nodes[1].connect([FakeHandle(), FakeHandle()])
    return nodes[0], nodes[1], crawl_urls(docs)


def pump_once(node, peer, batch) -> None:
    """One pump of ``node`` over ``batch``, its flush included; the
    frontier rows and buffers both nodes gained are dropped after."""
    node._process(batch, time.time(), time.perf_counter())
    node._flush_peers()
    for n in (node, peer):
        n.queue, n.queued_rows = [], 0
        n.dup_edges, n.results_buf, n.deferred = [], [], []
    if node.errors:
        raise RuntimeError(node.errors[0])


def frontier(urls: list[str]):
    from linkinator_ray import schema, urlkit
    roots = [u[:u.index("/", 7) + 1] for u in urls]
    n = len(urls)
    return schema.table(
        schema.FRONTIER, url=urls, url_hash=urlkit.hash64_array(urls),
        host=[urlkit.host_of(u) for u in urls], parent=roots, depth=[1] * n,
        do_crawl=[True] * n, root_path=roots)


def nproc() -> str:
    """What ``nproc`` prints (it honours ``OMP_NUM_THREADS``, as the
    benchmark's run record does), and the CPUs this process may run on."""
    shown = subprocess.run(["nproc"], capture_output=True,
                           text=True).stdout.strip()
    return f"{shown}  affinity {len(os.sched_getaffinity(0))}"


def fit(sizes: np.ndarray, secs: np.ndarray) -> tuple[float, float]:
    """Least-squares ``secs = fixed + per_row * size``: (fixed ms from
    the points with size <= SMALL_B, µs/row from all of them)."""
    small = sizes <= SMALL_B
    fixed = np.polyfit(sizes[small], secs[small], 1)[1]
    per_row = np.polyfit(sizes, secs, 1)[0]
    return fixed * 1e3, per_row * 1e6


def measure(sizes, repeats, seed, clock, run_one, urls, nested=()):
    """Best seconds per call of each stage at each batch size: ``run_one``
    takes a frontier batch of B rows, page rows cut at a random offset
    followed by missing URLs at their share of the crawl's URLs (at
    least one). ``other`` is the total less every stage not ``nested``
    in another."""
    pages, missing = urls
    share = len(missing) / (len(pages) + len(missing))
    rng = np.random.default_rng(seed)
    best = {s: np.full(len(sizes), np.inf) for s in clock.stages}
    top = [s for s in clock.stages
           if s not in ("other", "total", "cpu", *nested)]
    for _ in range(repeats):
        for i, size in enumerate(sizes):
            m = max(1, round(size * share))
            start = int(rng.integers(0, len(pages) - size))
            gone = rng.choice(len(missing), m, replace=False)
            batch = frontier(pages[start:start + size - m]
                             + [missing[j] for j in gone])
            clock.reset()
            cpu0 = time.process_time()
            run_one(batch)
            secs = clock.secs
            secs["cpu"] = time.process_time() - cpu0
            secs["other"] = secs["total"] - sum(secs[s] for s in top)
            for s in clock.stages:
                best[s][i] = min(best[s][i], secs[s])
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pump", action="store_true",
                    help="time whole mesh pumps instead of fetch_batch calls")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--max-rows", type=int, default=4096)
    args = ap.parse_args()

    from linkinator_ray import schema, urlkit
    from linkinator_ray.pipelines import crawl
    from linkinator_ray.stages import fetch
    from linkinator_ray.stages.extract import ExtractLinks
    from linkinator_ray.state import mesh
    sizes = []
    b = 8
    while b <= args.max_rows:
        sizes.append(b)
        b *= 2
    if args.pump:
        clock = StageClock(PUMP_STAGES)
        clock.wrap(crawl, "admit_frontier", "admit")
        clock.wrap(fetch.FetchWorker, "fetch_batch", "fetch")
        clock.wrap(fetch.FetchWorker, "_request_steps", "transport")
        clock.wrap(mesh.MeshNode, "_route_candidates", "route")
        clock.wrap(mesh.MeshNode, "submit_candidates", "peer")
        clock.wrap(crawl, "dedup_candidates", "dedup")
        clock.wrap(schema, "encode", "wire")
        clock.wrap(schema, "decode", "wire")
        node, peer, urls = build_pump(args.seed)
        # warm-up: first-call costs (kernel registration, regex compiles)
        pump_once(node, peer, frontier(urls[0][:64] + urls[1][:2]))

        def run_one(batch):
            t0 = time.perf_counter()
            pump_once(node, peer, batch)
            clock.secs["total"] += time.perf_counter() - t0
        nested = ("transport", "dedup")
    else:
        clock = StageClock()
        clock.wrap(fetch.FetchWorker, "_request_steps", "transport")
        clock.wrap(ExtractLinks, "extract_with_fragments", "extract")
        clock.wrap(urlkit, "resolve_links_arrow", "resolve")
        clock.wrap(fetch.FetchWorker, "_process_links_vec", "links")
        clock.wrap(fetch.FetchWorker, "_classify_in_actor", "classify")
        clock.wrap(fetch.FetchWorker, "fetch_batch", "total")
        worker, urls = build_worker(args.seed)
        worker.fetch_batch(frontier(urls[0][:64] + urls[1][:2]), [], 0.0)

        def run_one(batch):
            worker.fetch_batch(batch, [], 0.0)
            clock.secs["extract"] -= clock.secs["resolve"]
        nested = ()
    best = measure(sizes, args.repeats, args.seed, clock, run_one, urls,
                   nested)

    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"nproc {nproc()}  load {load}  repeats {args.repeats}  "
          f"seed {args.seed}  {'pump' if args.pump else 'fetch_batch'}  "
          f"engine {ROOT}")
    print(f"{'stage':<10} {'fixed ms':>9} {'us/row':>8}  "
          + " ".join(f"{s:>8}" for s in sizes)
          + f"   (best ms per call at B; fixed from B <= {SMALL_B})")
    x = np.asarray(sizes, dtype=np.float64)
    for s in clock.stages:
        fixed, per_row = fit(x, best[s])
        print(f"{s:<10} {fixed:9.3f} {per_row:8.3f}  "
              + " ".join(f"{v * 1e3:8.2f}" for v in best[s]))


if __name__ == "__main__":
    main()
