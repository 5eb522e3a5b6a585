"""Span extraction stage (stages/extract.py) including the per-row
span-sequence-equality invariant (FIXTURES.md / BASELINE.json input_hint)."""

import pyarrow as pa

from linkinator_ray import schema, urlkit
from linkinator_ray.sources import fixtures as fx
from linkinator_ray.stages.extract import ExtractLinks, explode_spans


def test_explode_spans_roundtrip_order():
    """Span-sequence equality: exploded (kind, text, media_ref) ordered by
    offset must equal the input span list per doc."""
    table = fx.docs_table(
        fx.doc("a.html", fx.span("text", "", "hello"), fx.span("anchor", "x.html", "x"),
               fx.span("img_src", "i.png")),
        fx.doc("b.html", fx.span("anchor", "y.html", "y")),
    )
    flat = explode_spans(table)
    rows = flat.to_pylist()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for doc_id, doc_rows in by_doc.items():
        doc_rows.sort(key=lambda r: r["offset"])
        orig = [s for d in table.to_pylist() if d["doc_id"] == doc_id
                for s in d["spans"]]
        orig.sort(key=lambda s: s["offset"])
        got = [(r["kind"], r["text"], r["media_ref"]) for r in doc_rows]
        want = [(s["kind"], s["text"], s["media_ref"]) for s in orig]
        assert got == want, doc_id
        assert [r["order"] for r in doc_rows] == list(range(len(doc_rows)))


def test_all_fixture_corpora_roundtrip():
    for name, builder in fx.ALL.items():
        fixture = builder()
        if fixture.documents.num_rows == 0:
            continue
        flat = explode_spans(fixture.documents)
        orig_docs = fixture.documents.to_pylist()
        total = sum(len(d["spans"]) for d in orig_docs)
        assert flat.num_rows == total, name
        by_doc = {}
        for r in flat.to_pylist():
            by_doc.setdefault(r["doc_id"], []).append(r)
        for d in orig_docs:
            got = sorted(by_doc.get(d["doc_id"], []), key=lambda r: r["offset"])
            want = sorted(d["spans"], key=lambda s: s["offset"])
            assert [(r["kind"], r["text"], r["media_ref"]) for r in got] == \
                [(s["kind"], s["text"], s["media_ref"]) for s in want], \
                (name, d["doc_id"])


def test_anchor_extraction_and_order():
    ex = ExtractLinks()
    links, frags = ex.extract_with_fragments(fx.docs_table(
        fx.doc("d/index.html",
               fx.span("anchor", "a.html"),
               fx.span("text", "", "hi"),
               fx.span("anchor", "http://ext.test/x"),
               fx.span("fragment_target", "", "sec-1"))))
    rows = links.to_pylist()
    assert [r["raw_link"] for r in rows] == ["a.html", "http://ext.test/x"]
    assert [r["order"] for r in rows] == [0, 1]
    assert rows[0]["url"] == "http://corpus.test/d/a.html"
    assert frags.to_pylist() == [
        {"page_url": "http://corpus.test/d/index.html", "fragment_id": "sec-1"}]


def test_base_tag_first_wins():
    ex = ExtractLinks()
    links, _ = ex.extract_with_fragments(fx.docs_table(
        fx.doc("d/index.html",
               fx.span("base", "http://b.test/dir/"),
               fx.span("base", "http://ignored.test/"),
               fx.span("anchor", "page.html"))))
    assert links.to_pylist()[0]["url"] == "http://b.test/dir/page.html"


def test_srcset_raw_split():
    ex = ExtractLinks()
    links, _ = ex.extract_with_fragments(fx.docs_table(
        fx.doc("s/index.html",
               fx.span("srcset_raw", "a.png 1x,  b.png   2x"))))
    assert [r["raw_link"] for r in links.to_pylist()] == ["a.png", "b.png"]
    assert all(r["kind"] == "srcset_candidate" for r in links.to_pylist())


def test_meta_refresh_and_meta_content():
    ex = ExtractLinks()
    links, _ = ex.extract_with_fragments(fx.docs_table(
        fx.doc("m/index.html",
               fx.span("meta_refresh", "0;url=/redirected"),
               fx.span("meta_content", "http://abs.test/ok"),
               fx.span("meta_content", "not-a-url-keyword"))))
    raws = [r["raw_link"] for r in links.to_pylist()]
    assert raws == ["/redirected", "http://abs.test/ok"]


def test_style_gated_by_check_css():
    docs = fx.docs_table(fx.doc("c/index.html",
                                fx.span("style_url", "", "body{background:url(x.png)}")))
    off = ExtractLinks(check_css=False)
    on = ExtractLinks(check_css=True)
    assert off(docs).num_rows == 0
    got = on(docs).to_pylist()
    assert [r["raw_link"] for r in got] == ["x.png"]


def test_jsonld_unconditional():
    import json
    docs = fx.docs_table(fx.doc("j/index.html", fx.span(
        "jsonld_url", "", json.dumps({"image": "http://m.test/i.png"}))))
    got = ExtractLinks(check_css=False)(docs).to_pylist()
    assert [r["raw_link"] for r in got] == ["http://m.test/i.png"]


def test_parse_error_row():
    got = ExtractLinks()(fx.docs_table(
        fx.doc("e/index.html", fx.span("anchor", "https://[")))).to_pylist()
    assert len(got) == 1
    assert got[0]["parse_error"] != ""
    assert got[0]["url"] == ""


def test_links_schema():
    out = ExtractLinks()(fx.docs_table(fx.doc("x.html", fx.span("anchor", "y.html"))))
    assert out.schema.equals(schema.LINKS)


# -- the scalar reference extractor -----------------------------------------
# The per-document extractor that the batch kernel replaced, kept here as
# the oracle for it (tests/test_corpus_resolve.py keeps the scalar
# resolver the same way): getLinks over one doc's spans (links.ts:67-181),
# getCssLinks over a stylesheet body (links.ts:243-264) and the per-link
# rules of the crawl (src/index.ts:717-798).

def _ref_link(doc_id, parent, raw_link, base, kind, order):
    parsed = urlkit.parse_link(raw_link, base)
    return {"doc_id": doc_id, "parent_url": parent, "raw_link": raw_link,
            "url": parsed.url or "",
            "url_with_fragment": parsed.url_with_fragment or "",
            "fragment": parsed.fragment or "", "parse_error": parsed.error or "",
            "kind": kind, "order": order}


def ref_extract_doc(doc_id, page_url, spans, check_css, parent_url=None):
    """(links, fragment ids) of one doc resolved against ``page_url``."""
    parent = parent_url or page_url
    base = page_url
    base_set = False
    out, frags = [], []

    def emit(raw_link, kind):
        out.append(_ref_link(doc_id, parent, raw_link, base, kind, len(out)))

    for span in sorted(spans, key=lambda s: s["offset"]):
        kind = span["kind"]
        ref = span["media_ref"] or ""
        if kind == "base":
            if not base_set and ref:
                base = urlkit.get_base_url(ref, page_url)
                base_set = True
        elif kind == "fragment_target":
            if span["text"]:
                frags.append(span["text"])
        elif kind in schema.DIRECT_LINK_KINDS:
            if ref:
                emit(ref, kind)
        elif kind == "srcset_raw":
            for url in urlkit.parse_srcset(ref):
                emit(url, "srcset_candidate")
        elif kind == "meta_refresh":
            url = urlkit.parse_meta_refresh(ref)
            if url:
                emit(url, kind)
        elif kind == "meta_content":
            if ref and urlkit.is_absolute_url(ref):
                emit(ref, kind)
        elif kind == "style_url":
            if check_css:
                for url in urlkit.extract_urls_from_css(span["text"] or ref):
                    emit(url, kind)
        elif kind == "jsonld_url":
            for url in urlkit.extract_links_from_jsonld_text(span["text"] or ref):
                emit(url, kind)
    return out, frags


def ref_css_doc_links(doc_id, page_url, spans, parent_url=None):
    """A stylesheet: url()/@import over its whole body."""
    body = "".join((s["text"] or s["media_ref"] or "")
                   for s in sorted(spans, key=lambda x: x["offset"])
                   if s["kind"] in ("text", "style_url"))
    return [_ref_link(doc_id, parent_url or page_url, url, page_url,
                      "style_url", i)
            for i, url in enumerate(urlkit.extract_urls_from_css(body))]


def ref_process_links(links, page_url, root_path, depth, *, skip=None,
                      recurse=False, check_fragments=False, frag_skip=None):
    """The crawl's per-link rules over one page's links → (candidates as
    (url, parent, depth, crawl, root), link results as (url, status,
    state, parent), pending fragments as (url, fragment))."""
    cands, results, pending = [], [], []
    root_host = urlkit.host_of(root_path)
    sep = root_path.find("://")
    pinned = sep >= 0 and root_path.find("/", sep + 3) >= 0
    for link in links:
        if link["parse_error"]:
            results.append((link["raw_link"], 0, "BROKEN", page_url))
            continue
        url = link["url"]
        wfrag = link["url_with_fragment"] or url
        if skip and url.startswith(("http://", "https://")) \
                and skip.should_skip(wfrag):
            results.append((wfrag, None, "SKIPPED", page_url))
            continue
        if check_fragments and link["fragment"]:
            if frag_skip is not None and frag_skip(link["fragment"], wfrag):
                results.append((wfrag, None, "SKIPPED", page_url))
            else:
                pending.append((url, link["fragment"]))
        crawl = False
        if recurse and url.startswith(root_path):
            crawl = pinned or urlkit.host_of_normalized(url) == root_host
        cands.append((url, page_url, depth + 1, crawl, root_path))
    return cands, results, pending


def _rows(t):
    return sorted(map(tuple, zip(*[t[c].to_pylist() for c in t.column_names])))


def _ref_tables(table, check_css, corpus_base="http://corpus.test/"):
    """The reference over a documents table, as (links rows, frag rows)."""
    cols = table.column_names
    d = table.to_pydict()
    links, frags = [], []
    for i, doc_id in enumerate(d["doc_id"]):
        page = d["page_url"][i] if "page_url" in cols else corpus_base + doc_id
        base = d["base_url"][i] if "base_url" in cols else page
        spans = d["spans"][i] or []
        if "css" in cols and d["css"][i]:
            links += ref_css_doc_links(doc_id, base, spans, parent_url=page)
            continue
        got, ids = ref_extract_doc(doc_id, base, spans, check_css,
                                   parent_url=page)
        links += got
        frags += [(page, f) for f in ids]
    return sorted(tuple(r[c] for c in schema.LINKS.names) for r in links), \
        sorted(frags)


def _assert_kernel_matches_reference(table, check_css):
    links, frags = ExtractLinks(check_css=check_css).extract_with_fragments(table)
    assert links.schema.equals(schema.LINKS)
    want_links, want_frags = _ref_tables(table, check_css)
    assert _rows(links) == want_links
    assert _rows(frags) == want_frags


KINDS_POOL = [
    ("anchor", "/d/{i}.html", ""),
    ("anchor", "rel{i}.html", ""),
    ("anchor", "http://ext.invalid/p{i}", ""),
    ("anchor", "../up/{i}", ""),
    ("anchor", "weird path {i}", ""),
    ("anchor", "#frag{i}", ""),
    ("anchor", "", ""),  # empty ref — no emit
    ("img_src", "img/{i}.png", ""),
    ("srcset_raw", "a{i}.png 1x, b{i}.png 2x", ""),
    ("meta_refresh", "0;url=/go/{i}.html", ""),
    ("meta_content", "http://abs.invalid/m{i}", ""),
    ("meta_content", "not-a-url {i}", ""),
    ("style_url", "", "body {{ background: url('/bg{i}.png') }}"),
    ("jsonld_url", "", '{{"url": "http://ld.invalid/{i}"}}'),
    ("fragment_target", "", "frag-{i}"),
    ("text", "", "hello {i}"),
    ("base", "/based/", ""),
    ("base", "http://other.invalid:8080/b/", ""),
    ("base", "", ""),  # empty href — not a base
]


def _random_docs(rng, n_docs, shuffle_offsets=False):
    docs = []
    for d in range(n_docs):
        spans = []
        for j in range(rng.randrange(0, 9)):
            kind, ref, text = rng.choice(KINDS_POOL)
            spans.append(fx.span(kind, ref.format(i=j), text.format(i=j)))
        doc = fx.doc(f"dir/doc{d}.html", *spans)
        if shuffle_offsets:
            rng.shuffle(doc["spans"])
            for s in doc["spans"]:
                s["offset"] = rng.randrange(0, 4) * 10  # ties keep list order
        docs.append(doc)
    return docs


def test_fast_path_equals_scalar_path_randomized():
    """Differential: the batch kernel must produce exactly the scalar
    reference's per-doc extraction, for randomized corpora mixing every
    kind (base tags included), with and without check_css."""
    import random
    rng = random.Random(1234)
    for check_css in (False, True):
        table = fx.docs_table(*_random_docs(rng, 40))
        _assert_kernel_matches_reference(table, check_css)


def test_kernel_equals_reference_unsorted_offsets():
    import random
    rng = random.Random(99)
    for check_css in (False, True):
        docs = _random_docs(rng, 40, shuffle_offsets=True)
        table = pa.Table.from_pylist(docs, schema=schema.DOCUMENTS)
        _assert_kernel_matches_reference(table, check_css)


def test_kernel_equals_reference_port_bearing_pages():
    """Page and base URLs with ports, userinfo and default ports, as a
    crawl of a local server yields them; a redirected page resolves
    against its final URL but keeps its own as parent."""
    import random
    rng = random.Random(7)
    docs = _random_docs(rng, 30)
    pages = ["http://127.0.0.1:8123/site/p%d.html" % i for i in range(30)]
    bases = list(pages)
    bases[3] = "http://127.0.0.1:8123/moved/"
    bases[4] = "http://u:p@h.test/a.html"
    bases[5] = "http://h.test:80/d/"
    bases[6] = "https://H.test:443/x?q=1"
    table = pa.Table.from_pylist(
        [{**d, "page_url": p, "base_url": b}
         for d, p, b in zip(docs, pages, bases)],
        schema=schema.DOCUMENTS.append(pa.field("page_url", pa.string()))
        .append(pa.field("base_url", pa.string())))
    for check_css in (False, True):
        _assert_kernel_matches_reference(table, check_css)


def test_loopback_bodies_resolve_without_scalar_fallback(monkeypatch):
    """The http-loopback benchmark workload's 800 pages, as the crawl
    sees them: port-bearing page URLs, root-relative links that carry
    '#top'/'#gone' fragments, cross-host links to other ports. Every
    link resolves in the batch kernel's classes; none reaches the scalar
    parse_link (930 did when fragments and ports were scalar)."""
    from linkinator_ray.stages.htmlparse import html_to_spans
    from perfbench.workloads import WORKLOADS, Corpus
    w = WORKLOADS["http-loopback"]
    corpus = Corpus(w, seed=1)
    corpus.ports = list(range(40000, 40000 + w.hosts))
    pages = corpus.pages()
    urls = [corpus.origin(h) + path for h, path in pages]
    docs = pa.table({
        "doc_id": urls, "page_url": urls, "base_url": urls,
        "spans": pa.array([html_to_spans(body.decode())
                           for body in pages.values()],
                          schema.DOCUMENTS.field("spans").type)})
    calls = []
    parse_link = urlkit.parse_link
    monkeypatch.setattr(urlkit, "parse_link",
                        lambda *a: calls.append(a) or parse_link(*a))
    links, _ = ExtractLinks().extract_with_fragments(docs)
    assert len(pages) == 800 and links.num_rows == 2411
    assert sum(1 for f in links["fragment"].to_pylist() if f) == 938
    assert calls == []
    # each page's doc_id is its URL, its links' base
    for r in links.to_pylist():
        want = parse_link(r["raw_link"], r["doc_id"])
        assert (r["url"], r["url_with_fragment"], r["fragment"]) == (
            want.url, want.url_with_fragment, want.fragment or "")


def test_kernel_equals_reference_stylesheets():
    """Entered stylesheets: the whole body is one CSS source, so a url()
    split across runs and a text run beside a style_url run both count;
    other kinds in a stylesheet emit nothing."""
    sheets = [
        fx.doc("s/split.css", fx.span("text", "", "a { background: ur"),
               fx.span("style_url", "", "l(/one.png) }")),
        fx.doc("s/mixed.css", fx.span("text", "", "@import 'two.css';"),
               fx.span("style_url", "three.png"),
               fx.span("anchor", "ignored.html")),
        fx.doc("s/empty.css"),
        fx.doc("s/page.html", fx.span("style_url", "", "x{background:url(4.png)}"),
               fx.span("anchor", "five.html")),
    ]
    for sheet in sheets[:2]:
        sheet["spans"].reverse()  # list order no longer offset order
    table = pa.Table.from_pylist(
        [{**d, "css": d["doc_id"].endswith(".css")} for d in sheets],
        schema=schema.DOCUMENTS.append(pa.field("css", pa.bool_())))
    links, _ = ExtractLinks(check_css=True).extract_with_fragments(table)
    assert ("s/split.css", "/one.png") in {
        (r["doc_id"], r["raw_link"]) for r in links.to_pylist()}
    _assert_kernel_matches_reference(table, check_css=True)


def test_kernel_equals_reference_on_fixture_corpora():
    fixtures = [build() for build in fx.ALL.values()] + fx.basetag_cases()
    for f in fixtures:
        for check_css in (False, True):
            _assert_kernel_matches_reference(f.documents, check_css)


def test_extract_doc_is_one_doc_of_the_kernel():
    spans = [fx.span("anchor", "a.html", offset=10),
             fx.span("base", "http://b.test/x/", offset=5),
             fx.span("fragment_target", "", "top", offset=1)]
    links, frags = ExtractLinks().extract_doc(
        "d", "http://h.test:8080/final/", spans, parent_url="http://h.test:8080/")
    assert links == ref_extract_doc("d", "http://h.test:8080/final/", spans,
                                    False, parent_url="http://h.test:8080/")[0]
    assert links[0]["url"] == "http://b.test/x/a.html"
    assert frags == ["top"]


def test_fast_path_unsorted_offsets_fall_back():
    """Docs whose spans are not offset-sorted keep offset-ordered
    emission."""
    import pyarrow as pa
    from linkinator_ray import schema as sch
    rows = [{"doc_id": "u/x.html", "spans": [
        {"kind": "anchor", "text": "", "media_ref": "/b.html", "offset": 20},
        {"kind": "anchor", "text": "", "media_ref": "/a.html", "offset": 10},
    ]}]
    table = pa.Table.from_pylist(rows, schema=sch.DOCUMENTS)
    links, _ = ExtractLinks().extract_with_fragments(table)
    assert links["raw_link"].to_pylist() == ["/a.html", "/b.html"]
    assert links["order"].to_pylist() == [0, 1]
