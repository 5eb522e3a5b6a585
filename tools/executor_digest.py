#!/usr/bin/env python3
"""Digest what a Ray-free check does, case by case, to compare two
checkouts' frontier stages.

    python tools/executor_digest.py [--only NAME ...] [--show]

For every case (the 22 ``fixtures.ALL`` fixtures, the five base-tag
cases, ``retry_errors`` at 1, 2 and 6 failures, ``redirects`` in each
mode, a 25-hop redirect chain, ``test_call_log.mixed()`` and five
``synth_crawl_corpus`` crawls) it runs one ``use_ray=False`` check and
prints one sha256 over, in order:

- the result rows as (url, status, state, parent, failure_details,
  round);
- the request log as (url, method, status);
- ``passed``, the counters (retries, the warn_* counts, pages_crawled,
  urls_checked, rounds) and ``seen_urls``.

It imports the engine next to it, so running each checkout's copy (or
this copy inside the other checkout) gives two columns that must be
equal line for line after any change to the frontier stages or the
round scheduler. ``--show`` adds the row, request and round counts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from linkinator_ray.options import CheckOptions  # noqa: E402
from linkinator_ray.pipelines.crawl import LinkChecker  # noqa: E402
from linkinator_ray.sources import fixtures as fx  # noqa: E402
from linkinator_ray.sources.synth import synth_crawl_corpus  # noqa: E402

COUNTERS = ("retries", "warn_redirect", "warn_insecure", "warn_status",
            "pages_crawled", "urls_checked", "rounds")
RESULT_COLUMNS = ("url", "status", "state", "parent", "failure_details",
                  "round")

# (name, corpus arguments, option overrides) of the synthetic crawls
SYNTH = [
    ("synth-4x500", dict(num_hosts=4, docs_per_host=500), {}),
    ("synth-4x1500-fragments", dict(num_hosts=4, docs_per_host=1500),
     {"check_fragments": True}),
    ("synth-3x2000-retry", dict(num_hosts=3, docs_per_host=2000),
     {"retry": True}),
    ("synth-3x300-politeness", dict(num_hosts=3, docs_per_host=300),
     {"politeness_delay": 0.5}),
    ("synth-3x2000-zipf-retry",
     dict(num_hosts=3, docs_per_host=2000, zipf=2.5), {"retry": True}),
]


def _mixed():
    """``mixed()`` from the checkout's own tests/test_call_log.py."""
    path = os.path.join(ROOT, "tests", "test_call_log.py")
    spec = importlib.util.spec_from_file_location("_call_log_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.mixed()


def cases():
    """Yield ``(name, build)``; ``build()`` returns ``(options,
    documents, http_map, checker keyword arguments)``."""
    def fixture_case(make):
        def build():
            f = make()
            return (CheckOptions(paths=f.seeds, **f.options), f.documents,
                    f.http_map, {})
        return build

    for name, make in fx.ALL.items():
        yield name, fixture_case(make)
    for i, f in enumerate(fx.basetag_cases()):
        yield f"basetag-{i}", fixture_case(lambda f=f: f)
    for times in (1, 2, 6):
        yield f"retry-errors-{times}", fixture_case(
            lambda times=times: fx.retry_errors(times))
    for mode in ("allow", "warn", "error"):
        yield f"redirects-{mode}", fixture_case(
            lambda mode=mode: fx.redirects(mode))
    yield "redirect-chain-25", fixture_case(lambda: fx.redirect_chain(25))
    yield "call-log-mixed", fixture_case(_mixed)
    for name, corpus_args, extra in SYNTH:
        def build(corpus_args=corpus_args, extra=extra):
            docs, seeds, _, _ = synth_crawl_corpus(**corpus_args)
            return (CheckOptions(paths=seeds, recurse=True, **extra), docs,
                    [], {"multi_host": True})
        yield name, build


def digest(res) -> str:
    h = hashlib.sha256()
    rows = res.results.select(list(RESULT_COLUMNS)).to_pylist()
    h.update(json.dumps([[r[c] for c in RESULT_COLUMNS] for r in rows])
             .encode())
    h.update(json.dumps(res.call_log).encode())
    h.update(json.dumps([res.passed, [res.stats[c] for c in COUNTERS],
                         res.stats["seen_urls"]]).encode())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="*", default=None,
                    help="run only the cases with these names")
    ap.add_argument("--show", action="store_true",
                    help="add the result row, request and round counts")
    args = ap.parse_args()
    for name, build in cases():
        if args.only and name not in args.only:
            continue
        opts, docs, http_map, kwargs = build()
        res = LinkChecker(opts, docs, http_map, use_ray=False,
                          **kwargs).check()
        line = f"{name:28s} {digest(res)}"
        if args.show:
            line += (f"  rows={res.results.num_rows}"
                     f" requests={res.request_log.num_rows}"
                     f" rounds={res.stats['rounds']}")
        print(line, flush=True)


if __name__ == "__main__":
    main()
