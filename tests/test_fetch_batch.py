"""One ``FetchWorker.fetch_batch`` call whose rows take every step of the
per-URL request state machine (src/index.ts:344-479) together: HEAD
405 → GET, the last-gasp GET for a non-crawl error, a redirect chain cut
by a per-hop skip rule, scripted response sequences, a transport error,
the CSS body re-GET, the fragment body re-GET and plain corpus rows.

Each URL's request sequence and its FETCH_RESULTS row are pinned, so a
change to how the batch is stepped cannot reorder or drop a request.
"""

import json

import pyarrow as pa

from linkinator_ray import schema, urlkit
from linkinator_ray.options import CheckOptions
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.sources.documents import CorpusIndex
from linkinator_ray.stages.fetch import FetchWorker, MockTransport

NOW = 1000.0
HTML = "text/html"

# url → (do_crawl, [(method, status) in request order])
ROWS = {
    "http://x.invalid/head405": (False, [("HEAD", 405), ("GET", 200)]),
    "http://x.invalid/head405err": (False, [("HEAD", 405), ("GET", 0),
                                            ("GET", 0)]),
    "http://x.invalid/gone": (False, [("HEAD", 404), ("GET", 404)]),
    "http://r.invalid/start": (False, [("HEAD", 302)]),
    "http://s.invalid/a": (False, [("HEAD", 500), ("GET", 200)]),
    "http://s.invalid/b": (True, [("GET", 429)]),
    "http://e.invalid/x": (False, [("HEAD", 0), ("GET", 0)]),
    "http://corpus.test/style.css": (True, [("GET", 200), ("GET", 200)]),
    "http://corpus.test/plain.css": (True, [("GET", 200)]),
    "http://corpus.test/frag.html": (False, [("HEAD", 200), ("GET", 200)]),
    "http://corpus.test/": (True, [("GET", 200)]),
    "http://corpus.test/sub": (True, [("GET", 301)]),
    "http://corpus.test/missing.html": (True, [("GET", 404)]),
    "http://nowhere.invalid/": (False, [("HEAD", 0), ("GET", 0)]),
}
# hops behind the redirects above
HOPS = {
    "http://r.invalid/mid": [("HEAD", 301)],
    "http://corpus.test/sub/": [("GET", 200)],
}


def _worker() -> FetchWorker:
    documents = fx.docs_table(
        fx.doc("index.html", fx.span("anchor", "/sub/")),
        fx.doc("sub/index.html", fx.span("anchor", "/index.html")),
        fx.doc("frag.html", fx.span("fragment_target", text="here"),
               fx.span("anchor", "#here")),
        fx.doc("style.css", fx.span("style_url", text="a{background:url(/i.png)}")),
        fx.doc("plain.css", fx.span("style_url", text="b{background:url(/j.png)}")),
    )
    http_map = [
        fx.http("http://x.invalid/head405", 405, method="HEAD"),
        fx.http("http://x.invalid/head405", 200, method="GET"),
        fx.http("http://x.invalid/head405err", 405, method="HEAD"),
        fx.http("http://x.invalid/head405err", 0, method="GET", error="boom"),
        fx.http("http://x.invalid/gone", 404),
        fx.http("http://r.invalid/start", 302,
                headers={"location": "http://r.invalid/mid"}),
        fx.http("http://r.invalid/mid", 301,
                headers={"location": "http://skip.invalid/end"}),
        fx.http("http://s.invalid/a", 500, seq=0),
        fx.http("http://s.invalid/a", 200, seq=1),
        fx.http("http://s.invalid/b", 429, seq=0, retry_after="5"),
        fx.http("http://s.invalid/b", 200, seq=1, content_type=HTML),
        fx.http("http://e.invalid/x", 0, error="connection reset"),
        fx.http("http://corpus.test/style.css", 200, seq=0,
                content_type="text/css"),
        fx.http("http://corpus.test/style.css", 200, seq=1,
                content_type="text/css", body_doc_id="style.css"),
    ]
    transport = MockTransport(http_map, CorpusIndex(documents), strict=False)
    return FetchWorker(transport, CheckOptions(
        check_css=True, check_fragments=True, retry=True, recurse=True,
        links_to_skip=[r"skip\.invalid"]))


def _batch():
    urls = list(ROWS)
    return schema.table(
        schema.FRONTIER, url=urls, url_hash=urlkit.hash64_array(urls),
        host=[u.split("/")[2] for u in urls], parent=[""] * len(urls),
        depth=[0] * len(urls), do_crawl=[ROWS[u][0] for u in urls],
        root_path=["http://corpus.test/"] * len(urls),
        attempt=[0] * len(urls), not_before=[0.0] * len(urls))


def _row(status, final_url="", body="", ct="", location=False, ra=0.0,
         skipped="", errors=None):
    return {"status": status, "final_url": final_url,
            "has_body": body != "", "body_doc_id": body, "content_type": ct,
            "has_location": location, "retry_after_epoch": ra,
            "cf_mitigated": False, "redirect_skipped": skipped,
            "error_details": json.dumps(errors) if errors else "",
            "soft404": False}


EXPECTED = {
    "http://x.invalid/head405": _row(200, "http://x.invalid/head405"),
    # the thrown GET after the 405 leaves no response
    "http://x.invalid/head405err": _row(0, errors=["boom"] * 2),
    "http://x.invalid/gone": _row(404, "http://x.invalid/gone"),
    "http://r.invalid/start": _row(301, "http://r.invalid/mid", location=True,
                                   skipped="http://skip.invalid/end"),
    "http://s.invalid/a": _row(200, "http://s.invalid/a"),
    "http://s.invalid/b": _row(429, "http://s.invalid/b", ra=NOW + 5),
    "http://e.invalid/x": _row(0, errors=["connection reset"] * 2),
    "http://corpus.test/style.css": _row(
        200, "http://corpus.test/style.css", "style.css", "text/css"),
    "http://corpus.test/plain.css": _row(
        200, "http://corpus.test/plain.css", "plain.css", "text/css"),
    "http://corpus.test/frag.html": _row(
        200, "http://corpus.test/frag.html", "frag.html", HTML),
    "http://corpus.test/": _row(200, "http://corpus.test/", "index.html", HTML),
    "http://corpus.test/sub": _row(200, "http://corpus.test/sub/",
                                   "sub/index.html", HTML),
    "http://corpus.test/missing.html": _row(404,
                                            "http://corpus.test/missing.html"),
    "http://nowhere.invalid/": _row(404, "http://nowhere.invalid/"),
}


def _classified(fetched) -> bool:
    """The FETCH_RESULTS columns first, then the classification
    columns, ``state`` and ``failure`` among them: every batch is
    classified."""
    prefix = pa.schema(list(fetched.schema)[:len(schema.FETCH_RESULTS)])
    return prefix == schema.FETCH_RESULTS \
        and {"state", "failure"} <= set(fetched.column_names)


def test_mixed_batch_takes_every_step():
    worker = _worker()
    out = worker.fetch_batch(_batch(), ["http://corpus.test/frag.html"], NOW)
    calls = worker.call_log()
    sequences = {**{u: s for u, (_, s) in ROWS.items()}, **HOPS}
    for url, expected in sequences.items():
        assert [(m, s) for (u, m, s) in calls if u == url] == expected, url
    assert len(calls) == sum(len(s) for s in sequences.values())

    fetched = out["fetched"]
    assert _classified(fetched)
    rows = {r["url"]: r for r in fetched.to_pylist()}
    assert fetched["url"].to_pylist() == list(ROWS)  # batch order kept
    for url, want in EXPECTED.items():
        got = {k: rows[url][k] for k in want}
        assert got == want, url
        assert rows[url]["do_crawl"] == ROWS[url][0]

    # extraction: the crawled corpus pages and the re-fetched stylesheet
    # yield their links, the re-fetched fragment page its fragment target
    cands = out["candidates"].to_pylist()
    assert {(c["url"], c["parent"]) for c in cands} == {
        ("http://corpus.test/sub/", "http://corpus.test/"),
        ("http://corpus.test/index.html", "http://corpus.test/sub"),
        ("http://corpus.test/i.png", "http://corpus.test/style.css"),
        ("http://corpus.test/j.png", "http://corpus.test/plain.css"),
    }
    assert out["frag_targets"].to_pylist() == [
        {"page_url": "http://corpus.test/frag.html", "fragment_id": "here"}]
    assert out["link_results"].num_rows == 0


# -- fragment mode: one batch whose parsed bodies take every extraction
# shape together (a redirected page, a stylesheet, a directory listing,
# two rows sharing one body, a soft-404 page and a fragment-only re-GET)

C = "http://corpus.test/"
# url → do_crawl; target.html is only fetched for its fragments
FRAG_ROWS = {C: True, C + "index.html": True, C + "old.html": True,
             C + "soft.html": True, C + "style.css": True, C + "dir/": True,
             C + "target.html": False}


def _frag_worker(skip_by: str) -> FetchWorker:
    documents = fx.docs_table(
        fx.doc("index.html",
               fx.span("fragment_target", text="top"),
               fx.span("anchor", "a.html#sec"),
               fx.span("anchor", "b.html#skip-me"),
               fx.span("anchor", "b.html#cb-drop"),
               fx.span("anchor", "https://["),
               fx.span("anchor", "http://skip.invalid/x")),
        fx.doc("moved/page.html", fx.span("anchor", "rel.html#here"),
               fx.span("fragment_target", text="here")),
        fx.doc("soft.html", fx.span("text", text="robots: noindex"),
               fx.span("fragment_target", text="s"),
               fx.span("text", text="and nofollow")),
        fx.doc("style.css", fx.span("text", text="a{background:ur"),
               fx.span("style_url", text="l(/split.png)} b{background:"
                                         "url(/whole.png)}")),
        fx.doc("target.html", fx.span("anchor", "unseen.html"),
               fx.span("text", text="noindex alone"),
               fx.span("fragment_target", text="sec")),
        fx.doc("dir/x.html", fx.span("text", text="x")),
    )
    http_map = [fx.http(C + "old.html", 301,
                        headers={"location": "/moved/page.html"})]
    transport = MockTransport(
        http_map, CorpusIndex(documents, directory_listing=True), strict=False)
    frag_rule = ["^skip"] if skip_by == "pattern" \
        else lambda frag, url: frag.startswith("cb-")
    return FetchWorker(transport, CheckOptions(
        check_css=True, check_fragments=True, recurse=True,
        links_to_skip=[r"skip\.invalid"], fragments_to_skip=frag_rule))


def _frag_batch():
    urls = list(FRAG_ROWS)
    return schema.table(
        schema.FRONTIER, url=urls, url_hash=urlkit.hash64_array(urls),
        host=["corpus.test"] * len(urls), parent=[""] * len(urls),
        depth=[0] * len(urls), do_crawl=list(FRAG_ROWS.values()),
        root_path=[C] * len(urls), attempt=[0] * len(urls),
        not_before=[0.0] * len(urls))


def _sorted_rows(table, columns):
    return sorted(tuple(r[c] for c in columns) for r in table.to_pylist())


def test_fragment_mode_batch_all_tables():
    for skip_by in ("pattern", "callable"):
        # the pattern skips '#skip-me', the callable '#cb-drop'; the
        # other fragment stays pending
        skipped, kept = ("skip-me", "cb-drop") if skip_by == "pattern" \
            else ("cb-drop", "skip-me")
        out = _frag_worker(skip_by).fetch_batch(
            _frag_batch(), [C + "target.html"], NOW)
        assert set(out) == {"fetched", "candidates", "link_results",
                            "pending_frags", "frag_targets"}

        fetched = out["fetched"]
        assert _classified(fetched)
        assert fetched["url"].to_pylist() == list(FRAG_ROWS)
        assert _sorted_rows(fetched, ("url", "status", "final_url",
                                      "body_doc_id", "content_type",
                                      "soft404")) == sorted([
            (C, 200, C, "index.html", "text/html", False),
            (C + "index.html", 200, C + "index.html", "index.html",
             "text/html", False),
            (C + "old.html", 200, C + "moved/page.html", "moved/page.html",
             "text/html", False),
            (C + "soft.html", 200, C + "soft.html", "soft.html",
             "text/html", True),
            (C + "style.css", 200, C + "style.css", "style.css", "text/css",
             False),
            (C + "dir/", 200, C + "dir/", "\x00listing:dir", "text/html",
             False),
            (C + "target.html", 200, C + "target.html", "target.html",
             "text/html", False),
        ])

        index_pages = (C, C + "index.html")
        want_cands = [(C + "a.html", p) for p in index_pages] \
            + [(C + "b.html", p) for p in index_pages for _ in range(2)] \
            + [(C + "moved/rel.html", C + "old.html"),
               (C + "split.png", C + "style.css"),
               (C + "whole.png", C + "style.css"),
               (C + "dir/x.html", C + "dir/")]
        assert _sorted_rows(out["candidates"], (
            "url", "url_hash", "edge_hash", "host", "parent", "depth",
            "do_crawl", "root_path")) == sorted(
            (u, urlkit.hash64(u),
             int(urlkit.edge_key(urlkit.hash64(u), urlkit.hash64(p))),
             "corpus.test", p, 1, True, C) for u, p in want_cands)

        assert _sorted_rows(out["link_results"], (
            "url", "status", "state", "parent")) == sorted(
            [("https://[", 0, "BROKEN", p) for p in index_pages]
            + [("http://skip.invalid/x", None, "SKIPPED", p)
               for p in index_pages]
            + [(C + "b.html#" + skipped, None, "SKIPPED", p)
               for p in index_pages])

        assert _sorted_rows(out["pending_frags"], (
            "target_url", "fragment")) == sorted(
            [(C + "a.html", "sec"), (C + "b.html", kept)] * 2
            + [(C + "moved/rel.html", "here")])

        # keyed by the checked URL: the redirected page's targets belong
        # to old.html, not to the page it landed on
        assert _sorted_rows(out["frag_targets"], (
            "page_url", "fragment_id")) == sorted([
            (C, "top"), (C + "index.html", "top"), (C + "old.html", "here"),
            (C + "soft.html", "s"), (C + "target.html", "sec")])


def test_crawl_gate_prefix_test_matches_startswith():
    """The crawl gate's prefix test (each link against its own seed
    root, all roots in one pass over the UTF-8 buffers) equals
    ``str.startswith`` row for row: roots shorter and longer than 8 and
    16 bytes, an empty root, links shorter than their root, links that
    differ only past the root, and multi-byte characters."""
    import numpy as np
    from linkinator_ray.stages.fetch import _under_roots
    roots = ["http://a.test/", "", "http://a.test/docs/guide/", "h",
             "http://café.test/x/", "http://a.test/docs/guide/v2/api/"]
    rng = np.random.default_rng(7)
    stems = roots + ["http://a.test", "http://a.tes", "http://b.test/",
                     "http://café.test/y", "x"]
    urls = [stems[rng.integers(len(stems))]
            + "".join(rng.choice(list("ab/é.-"), rng.integers(0, 12)))
            for _ in range(400)]
    root_of = rng.integers(0, len(roots), len(urls))
    # a sliced column (a pump's share of its queue) starts mid-buffer
    got = _under_roots(pa.array(urls).slice(1), pa.array(roots),
                       root_of[1:])
    assert got.tolist() == [u.startswith(roots[r])
                            for u, r in zip(urls[1:], root_of[1:])]
    assert got.any() and not got.all()
