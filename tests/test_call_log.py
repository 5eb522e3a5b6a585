"""The request log (``CrawlResult.request_log`` / ``call_log``): fetch
workers keep it as Arrow chunks, and it must hold the same requests in
the same order as a log recorded one Python row per request."""

from collections import Counter

import pyarrow as pa

from linkinator_ray import schema
from linkinator_ray.options import CheckOptions
from linkinator_ray.pipelines.crawl import LinkChecker
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.stages import fetch


class RowLog:
    """The row-at-a-time request log the columnar one replaced: every
    batched step appended one Python tuple per request."""

    def __init__(self, enabled: bool = True):
        self.rows: list[tuple[str, str, int]] = []

    def append(self, url, method, status):
        self.rows.append((url, method, status))

    def extend(self, urls, methods, status):
        self.rows.extend(zip(urls.to_pylist(), methods.to_pylist(),
                             status.to_pylist()))

    def table(self) -> pa.Table:
        return pa.Table.from_pylist(
            [dict(zip(schema.CALLS.names, r)) for r in self.rows],
            schema=schema.CALLS)

    def take(self) -> list[pa.Table]:
        """The rows since the last ``take``, as the node's poll hands
        them over."""
        table, self.rows = self.table(), []
        return [table] if table.num_rows else []


def mixed() -> fx.Fixture:
    """Corpus pages whose links put scripted rows (http_map: a 503 on
    HEAD then GET, a 301 hop into the corpus, a thrown request, a
    scripted corpus URL) in the same fetch batches as corpus rows
    (pages, a corpus 404)."""
    return fx.Fixture(
        "mixed-log",
        fx.docs_table(
            fx.doc("mix/index.html", *(fx.span("anchor", u) for u in (
                "a.html", "http://s.invalid/flaky", "b.html",
                "http://s.invalid/moved", "missing.html",
                "http://s.invalid/down", "scripted.html", "c.html"))),
            fx.doc("mix/a.html", fx.span("anchor", "d.html"),
                   fx.span("anchor", "http://s.invalid/ok")),
            fx.doc("mix/b.html", fx.span("anchor", "index.html")),
            fx.doc("mix/c.html"),
            fx.doc("mix/d.html"),
            fx.doc("mix/scripted.html"),
        ),
        [
            fx.http("http://s.invalid/flaky", 503, method="HEAD"),
            fx.http("http://s.invalid/flaky", 200, method="GET"),
            fx.http("http://s.invalid/moved", 301,
                    headers={"location": "http://corpus.test/mix/c.html"}),
            fx.http("http://s.invalid/down", 0, error="connection reset"),
            fx.http("http://s.invalid/ok", 200),
            fx.http("http://corpus.test/mix/scripted.html", 500, seq=0),
            fx.http("http://corpus.test/mix/scripted.html", 200, seq=1),
        ],
        ["mix/"], {"recurse": True})


def run(fixture, use_ray=False, **mode):
    opts = CheckOptions(paths=fixture.seeds, **fixture.options,
                        fetch_concurrency=2, seen_shards=2, **mode)
    return LinkChecker(opts, fixture.documents, fixture.http_map,
                       use_ray=use_ray).check()


def test_local_log_matches_row_log(monkeypatch):
    """Local rounds log the same tuples, in the same order, as the
    row-at-a-time log, with scripted and corpus rows interleaved."""
    fixture = mixed()
    res = run(fixture)
    with monkeypatch.context() as m:
        m.setattr(fetch, "CallLog", RowLog)
        ref = run(fixture)
    assert res.request_log.schema == schema.CALLS
    assert res.call_log == ref.call_log
    urls = [c[0] for c in res.call_log]
    scripted = [i for i, u in enumerate(urls) if u.startswith("http://s.")]
    corpus = [i for i, u in enumerate(urls) if u.startswith("http://corpus")]
    # the log interleaves the two kinds, so order is really tested
    assert min(corpus) < min(scripted) < max(corpus)
    assert ("http://s.invalid/down", "HEAD", 0) in res.call_log
    assert ("http://corpus.test/mix/missing.html", "GET", 404) \
        in res.call_log


def test_corpus_batches_build_no_python_rows(monkeypatch):
    """A pure corpus crawl logs every request through batched chunks:
    no request appends a Python row (mesh nodes run the same worker)."""
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, _, _ = synth_crawl_corpus(num_hosts=2, docs_per_host=60)

    def no_rows(*_):
        raise AssertionError("a batched request appended a Python row")

    monkeypatch.setattr(fetch.CallLog, "append", no_rows)
    res = LinkChecker(CheckOptions(paths=seeds, recurse=True), docs, [],
                      multi_host=True).check()
    assert res.request_log.num_rows >= res.stats["urls_checked"] > 0


def test_ray_logs_match_local(ray_session):
    """The mesh (what ``use_ray=True`` runs) logs the same multiset of
    requests as local rounds; it hands back one Arrow table, and the
    tuples are built only when ``call_log`` is read."""
    fixture = mixed()
    local = Counter(run(fixture).call_log)
    res = run(fixture, use_ray=True)
    assert res.stats["executor"] == "mesh"
    assert isinstance(res.request_log, pa.Table)
    assert res.request_log.schema == schema.CALLS
    assert "call_log" not in vars(res)
    assert Counter(res.call_log) == local


def test_mesh_log_is_a_table(ray_session):
    """Below the record_calls cutoff a mesh crawl of a plain corpus
    returns its whole request log as one Arrow table."""
    from linkinator_ray.sources.synth import synth_crawl_corpus
    docs, seeds, _, _ = synth_crawl_corpus(num_hosts=2, docs_per_host=150)
    base = dict(paths=seeds, recurse=True, fetch_concurrency=2)
    local = LinkChecker(CheckOptions(**base), docs, [],
                        multi_host=True).check()
    mesh = LinkChecker(CheckOptions(**base), docs, [],
                       multi_host=True, use_ray=True).check()
    assert mesh.stats["executor"] == "mesh"
    assert isinstance(mesh.request_log, pa.Table)
    assert "call_log" not in vars(mesh)
    assert mesh.request_log.num_rows == local.request_log.num_rows > 0
    assert Counter(mesh.call_log) == Counter(local.call_log)


def test_concurrent_appends_lose_no_row():
    """Connection threads append while the log is read: no row is lost,
    and each thread's rows keep their order."""
    import sys
    import threading
    log = fetch.CallLog()
    threads_n, per = 8, 5000

    def work(t):
        for i in range(per):
            log.append(f"u{t}", "GET", i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(threads_n)]
        for th in threads:
            th.start()
        while any(th.is_alive() for th in threads):
            log.table()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    calls = fetch.call_tuples(log.table())
    assert len(calls) == threads_n * per
    for t in range(threads_n):
        assert [c[2] for c in calls if c[0] == f"u{t}"] == list(range(per))
