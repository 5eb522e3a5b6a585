"""``CorpusIndex.resolve_many`` against a scalar reference resolver.

The reference below is the per-URL static-server resolution the corpus
index used before batch resolution (src/server.ts:34-189 rules: mime by
extension, ``index.html`` for directories, clean URLs, directory
listings, 301 for a directory without its trailing slash), over plain
Python sets. The batch resolver must answer every row exactly as it
does, in single-host and multi-host mode.
"""

import posixpath
from urllib.parse import unquote, urlsplit

import pyarrow as pa
import pytest

from linkinator_ray.sources import fixtures as fx
from linkinator_ray.sources.documents import (DEFAULT_MIME, MIME_BY_EXT,
                                              CorpusIndex)
from linkinator_ray.sources.synth import synth_crawl_corpus


def content_type_for(doc_id, markdown_as_html):
    mime = MIME_BY_EXT.get(posixpath.splitext(doc_id)[1].lower(), DEFAULT_MIME)
    if markdown_as_html and mime == "text/markdown":
        return "text/html"
    return mime


class ScalarResolver:
    def __init__(self, doc_ids, *, host, clean_urls, markdown,
                 multi_host, directory_listing):
        self.ids = set(doc_ids)
        self.dirs = set()
        for doc_id in doc_ids:
            parts = doc_id.split("/")
            for k in range(1, len(parts)):
                self.dirs.add("/".join(parts[:k]))
        self.hosts = {d for d in self.dirs if "/" not in d} \
            if multi_host else set()
        self.host = host
        self.clean_urls = clean_urls
        self.markdown = markdown
        self.multi_host = multi_host
        self.directory_listing = directory_listing

    def resolve_url(self, url):
        sep = url.find("://")
        if sep > 0:
            rest = url[sep + 3:]
            if not any(ch in rest for ch in "%?#@:"):
                slash = rest.find("/")
                hostname = rest if slash < 0 else rest[:slash]
                path = "/" if slash < 0 else rest[slash:]
                if hostname and hostname == hostname.lower():
                    return self._on_host(hostname, path)
        parts = urlsplit(url)
        return self._on_host((parts.hostname or "").lower(),
                             unquote(parts.path or "/"))

    def _on_host(self, hostname, path):
        if self.multi_host:
            if hostname not in self.hosts:
                return None
            return self.resolve_path(path, hostname + "/")
        if hostname != self.host:
            return None
        return self.resolve_path(path)

    def resolve_path(self, path, prefix=""):
        """``prefix`` is the "host/" that multi-host doc_ids start with;
        a 301 location is the URL's own path, without it."""
        raw = prefix + path.lstrip("/")
        if path.endswith("/") or raw == "":
            raw = raw + "index.html"
        if raw in self.ids:
            return (200, raw, content_type_for(raw, self.markdown), "")
        if self.clean_urls:
            for suffix in (".html", ".htm"):
                if raw + suffix in self.ids:
                    return (200, raw + suffix,
                            content_type_for(raw + suffix, self.markdown), "")
        if self.directory_listing and raw.endswith("index.html"):
            dir_prefix = raw[:-len("index.html")].rstrip("/")
            if dir_prefix in self.dirs or dir_prefix == "":
                return (200, CorpusIndex.LISTING_PREFIX + dir_prefix,
                        "text/html", "")
        if raw in self.dirs:
            return (301, "", "", "/" + raw[len(prefix):] + "/")
        return (404, "", "", "")


EXTRA = ["sub/index.html", "sub/a.html", "sub/page.htm", "sub/notes.md",
         "sub/deep/b.mdx", "sub/deep/c.css", "sub/UPPER.HTML",
         "sub/archive.tar.gz", "sub/.htaccess", "sub/noext",
         "sub/..dots.html", "docs/guide/intro.html", "about.html",
         "sp ace.html", "sub/both.html", "sub/both.htm"]
PATHS = ["/", "/sub", "/sub/", "/sub/a", "/sub/a.html", "/sub/page",
         "/sub/notes", "/sub/notes.md", "/sub/deep", "/sub/deep/",
         "/sub/deep/b.mdx", "/sub/deep/c.css", "/sub/UPPER.HTML",
         "/sub/archive.tar.gz", "/sub/.htaccess", "/sub/noext",
         "/sub/..dots.html", "/docs", "/docs/", "/docs/guide",
         "/docs/guide/", "/docs/guide/intro", "/about", "/about.html",
         "//about.html", "/nope/", "/missing1.html", "/index.html",
         "/sp ace.html", "/sub/both"]
ODD = ["/sub/%61.html", "/sp%20ace.html", "/sub/a.html?q=1",
       "/sub/a.html#frag"]


def _corpus(multi_host: bool):
    documents, _, _, _ = synth_crawl_corpus(num_hosts=3, docs_per_host=40,
                                            seed=7)
    ids = documents["doc_id"].to_pylist()
    if multi_host:
        ids += [f"h0.test/{p}" for p in EXTRA]
        origins = ["http://h0.test", "http://h1.test", "http://h2.test"]
        urls = ["http://" + (d[:-len("index.html")]
                             if d.endswith("/index.html") else d)
                for d in ids]
    else:
        ids = [d.split("/", 1)[1] for d in ids if d.startswith("h0.test/")]
        ids += EXTRA
        origins = ["http://corpus.test"]
        urls = ["http://corpus.test/" + d for d in ids]
    for origin in origins:
        netloc = origin[len("http://"):]
        urls += [origin + p for p in PATHS + ODD]
        urls += [origin, origin.upper() + "/sub/a.html",
                 origin + ":80/sub/a.html", origin + ":8080/",
                 "http://user:pw@" + netloc + "/sub/a.html",
                 "http://user@" + netloc + "/",
                 "https://" + netloc + "/about.html",
                 "HTTP://" + netloc + "/about.html"]
    urls += ["http://elsewhere.invalid/", "http://elsewhere.invalid/index.html",
             "https://h9.test/d1.html", "mailto:x@h0.test", "data:,x",
             "http://", "http:///sub/a.html", "ftp://corpus.test/about.html",
             "http://h0.test.evil/", "a:b://corpus.test/about.html"]
    documents = fx.docs_table(*[fx.doc(d) for d in ids])
    return documents, ids, urls


@pytest.mark.parametrize("multi_host", [False, True],
                         ids=["single-host", "multi-host"])
@pytest.mark.parametrize("clean_urls,directory_listing,markdown", [
    (False, False, False), (True, False, False), (False, True, False),
    (False, False, True), (True, True, True)])
def test_resolve_many_equals_scalar_reference(multi_host, clean_urls,
                                              directory_listing, markdown):
    documents, ids, urls = _corpus(multi_host)
    kwargs = dict(host="corpus.test", clean_urls=clean_urls,
                  markdown=markdown, multi_host=multi_host,
                  directory_listing=directory_listing)
    index = CorpusIndex(documents, **kwargs)
    reference = ScalarResolver(ids, **kwargs)
    want = [reference.resolve_url(u) for u in urls]
    assert sum(w is not None and w[0] == 301 for w in want) >= 2
    assert sum(w is not None and w[0] == 404 for w in want) >= 2
    assert any(w is None for w in want)

    got = index.resolve_many(pa.array(urls, pa.string()))
    assert got.num_rows == len(urls)
    rows = got.to_pylist()
    doc_row = {d: i for i, d in enumerate(documents["doc_id"].to_pylist())}
    for url, w, g in zip(urls, want, rows):
        if w is None:
            assert not g["on_corpus"], url
            continue
        assert g["on_corpus"], url
        assert (g["status"], g["doc_id"], g["content_type"],
                g["location"]) == w, url
        assert g["row"] == doc_row.get(w[1], -1), url
    # a batch with no off-corpus row answers the same
    on_rows = [g for g in rows if g["on_corpus"]]
    on_urls = [u for u, g in zip(urls, rows) if g["on_corpus"]]
    assert index.resolve_many(pa.array(on_urls, pa.string())).to_pylist() \
        == on_rows


def test_row_of():
    documents, ids, _ = _corpus(False)
    index = CorpusIndex(documents)
    for i, d in enumerate(ids):
        assert index.row_of(d) == i
    assert index.row_of("no/such/doc.html") is None
    assert index.resolve_many(pa.array([], pa.string())).num_rows == 0


def test_page_urls_resolve_by_probe_alone(monkeypatch):
    """Every page URL of a crawl corpus, keyed by the url_hash the
    frontier carries, resolves by the index probe alone: no row reaches
    the static-server rules' host/path split. Its /missingJ.html links
    and a directory URL without its slash still take the rules and
    answer 404 and 301."""
    import numpy as np

    from linkinator_ray import urlkit
    from linkinator_ray.sources import documents as docs_mod
    documents, _, _, n_broken = synth_crawl_corpus(num_hosts=3,
                                                   docs_per_host=200, seed=5)
    extra = fx.docs_table(fx.doc("h0.test/sub/index.html"),
                          fx.doc("h0.test/sub/a.html"))
    documents = pa.concat_tables([documents, extra])
    ids = documents["doc_id"].to_pylist()
    index = CorpusIndex(documents, multi_host=True)
    calls = []
    split = docs_mod._split_host_path
    monkeypatch.setattr(docs_mod, "_split_host_path",
                        lambda urls: calls.append(len(urls)) or split(urls))

    def resolve(urls):
        arr = pa.array(urls, pa.string())
        return index.resolve_many(arr, urlkit.hash64_arrow(arr)).to_pylist()

    pages = [urlkit.normalize_url(
        "http://" + (d[:-len("index.html")] if d.endswith("/index.html")
                     else d)) for d in ids]
    got = resolve(pages)
    assert calls == []
    assert [(g["status"], g["row"]) for g in got] \
        == [(200, i) for i in range(len(ids))]
    assert [g["doc_id"] for g in got] == ids

    spans = documents["spans"].to_pylist()
    missing = sorted({"http://" + d.split("/", 1)[0] + s["media_ref"]
                      for d, page in zip(ids, spans) for s in page
                      if s["media_ref"].startswith("/missing")})
    assert len(missing) == n_broken > 0
    got = resolve(missing + ["http://h0.test/sub"])
    assert calls == [len(missing) + 1]
    assert all(g["on_corpus"] and g["status"] == 404 and g["row"] == -1
               for g in got[:-1])
    assert got[-1]["status"] == 301 and got[-1]["location"] == "/sub/"
    assert np.all([g["content_type"] == "" for g in got])


def test_multi_host_directory_redirect_crawls():
    """A multi-host link to a directory without its slash follows the
    301 to the directory's index page: the location is the URL's own
    path, so no request goes to a "/<host>/..." path."""
    from linkinator_ray.options import CheckOptions
    from linkinator_ray.pipelines.crawl import LinkChecker
    documents = fx.docs_table(
        fx.doc("h0.test/index.html", fx.span("anchor", "/sub")),
        fx.doc("h0.test/sub/index.html", fx.span("anchor", "a.html")),
        fx.doc("h0.test/sub/a.html"))
    res = LinkChecker(CheckOptions(paths=["http://h0.test/"], recurse=True),
                      documents, [], multi_host=True).check()
    assert res.passed
    rows = {r["url"]: (r["status"], r["state"])
            for r in res.results.to_pylist()}
    assert rows == {"http://h0.test/": (200, "OK"),
                    "http://h0.test/sub": (200, "OK"),
                    "http://h0.test/sub/a.html": (200, "OK")}
    assert ("http://h0.test/sub/", "GET", 200) in res.call_log
    assert not any("/h0.test/" in url.split("//", 1)[1]
                   for url, _, _ in res.call_log)
