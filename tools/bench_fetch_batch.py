"""Fetch-batch cost harness: the fixed and per-row cost of one
``FetchWorker.fetch_batch`` call, stage by stage, Ray-free.

    python tools/bench_fetch_batch.py [--repeats 5] [--seed 3] [--max-rows 4096]

Builds a compute-mock-shaped corpus (``synth_crawl_corpus(16, 2000)``,
served by the mock transport with no latency), then calls
``fetch_batch`` on frontier batches of B = 8, 16, ... ``--max-rows``
page rows, ``--repeats`` times each on fresh rows. Each stage's seconds
per call are taken as the best of the repeats at each B and fitted to
``fixed + per_row * B`` by least squares. Stages:

- ``transport``: the request steps (``FetchWorker._request_steps``);
- ``extract``: ``ExtractLinks.extract_with_fragments`` less the resolver;
- ``resolve``: ``urlkit.resolve_links_arrow``;
- ``links``: per-link processing (``FetchWorker._process_links_vec``);
- ``classify``: ``FetchWorker._classify_in_actor``;
- ``other``: the rest of the call; ``total``: the whole call.

Compute-bound numbers compare only with runs on the same machine at the
same time (alternate the two sides): the header line gives ``nproc``
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
          "total")


class StageClock:
    """Seconds spent inside each wrapped callable since ``reset``."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.secs: dict[str, float] = dict.fromkeys(STAGES, 0.0)

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
    page URLs (the frontier the batches are cut from)."""
    from linkinator_ray.options import CheckOptions
    from linkinator_ray.sources.synth import synth_crawl_corpus
    from linkinator_ray.stages.fetch import FetchWorker, build_transport
    docs, seeds, _, _ = synth_crawl_corpus(num_hosts=16, docs_per_host=2000,
                                           seed=seed)
    opts = CheckOptions(paths=seeds, recurse=True)
    transport = build_transport({"documents": docs, "multi_host": True,
                                 "strict": False, "record_calls": True})
    worker = FetchWorker(transport, recurse=True, classify_opts=opts,
                         static_host="http://corpus.test/")
    urls = []
    for doc_id in docs["doc_id"].to_pylist():
        host, path = doc_id.split("/", 1)
        urls.append(f"http://{host}/" + ("" if path == "index.html"
                                         else path))
    return worker, urls


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
    benchmark's run record does)."""
    return subprocess.run(["nproc"], capture_output=True,
                          text=True).stdout.strip()


def fit(sizes: np.ndarray, secs: np.ndarray) -> tuple[float, float]:
    """Least-squares ``secs = fixed + per_row * size``: (fixed ms, µs/row)."""
    per_row, fixed = np.polyfit(sizes, secs, 1)
    return fixed * 1e3, per_row * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--max-rows", type=int, default=4096)
    args = ap.parse_args()

    from linkinator_ray import urlkit
    from linkinator_ray.stages import fetch
    from linkinator_ray.stages.extract import ExtractLinks
    clock = StageClock()
    clock.wrap(fetch.FetchWorker, "_request_steps", "transport")
    clock.wrap(ExtractLinks, "extract_with_fragments", "extract")
    clock.wrap(urlkit, "resolve_links_arrow", "resolve")
    clock.wrap(fetch.FetchWorker, "_process_links_vec", "links")
    clock.wrap(fetch.FetchWorker, "_classify_in_actor", "classify")
    clock.wrap(fetch.FetchWorker, "fetch_batch", "total")

    worker, urls = build_worker(args.seed)
    rng = np.random.default_rng(args.seed)
    sizes = []
    b = 8
    while b <= args.max_rows:
        sizes.append(b)
        b *= 2
    # warm-up: first-call costs (kernel registration, regex compiles)
    worker.fetch_batch(frontier(urls[:64]), [], 0.0)
    best = {s: np.full(len(sizes), np.inf) for s in STAGES}
    for _ in range(args.repeats):
        for i, size in enumerate(sizes):
            start = int(rng.integers(0, len(urls) - size))
            batch = frontier(urls[start:start + size])
            clock.reset()
            worker.fetch_batch(batch, [], 0.0)
            secs = clock.secs
            secs["extract"] -= secs["resolve"]
            secs["other"] = secs["total"] - sum(
                secs[s] for s in STAGES if s not in ("other", "total"))
            for s in STAGES:
                best[s][i] = min(best[s][i], secs[s])

    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"nproc {nproc()}  load {load}  repeats {args.repeats}  "
          f"seed {args.seed}  engine {ROOT}")
    print(f"{'stage':<10} {'fixed ms':>9} {'us/row':>8}  "
          + " ".join(f"{s:>8}" for s in sizes) + "   (best ms per call at B)")
    x = np.asarray(sizes, dtype=np.float64)
    for s in STAGES:
        fixed, per_row = fit(x, best[s])
        print(f"{s:<10} {fixed:9.3f} {per_row:8.3f}  "
              + " ".join(f"{v * 1e3:8.2f}" for v in best[s]))


if __name__ == "__main__":
    main()
