"""Span → link extraction: the engine's core ``map_batches`` stage.

Re-expresses the reference's streaming HTML link extractor
(/root/reference/src/links.ts:67-181 and its tag→attribute table at
:8-41) and its stylesheet branch (getCssLinks, :243-264) over the
structured span representation of the corpus: each document row carries
``spans: list<struct<kind,text,media_ref,offset>>``; this stage explodes
them (zero-copy via Arrow list offsets) and emits one ``links`` row per
extracted URL, preserving in-document span order. Every document shape
runs through the one batch kernel, ``ExtractLinks.extract_with_fragments``;
the crawl's fetch worker (stages/fetch.py) feeds it corpus docs, live
HTTP bodies and directory listings alike.

Dispatch per span kind (schema.SPAN_KINDS):
  base            → rebase later links, first wins (links.ts:83-86)
  direct kinds    → media_ref is the link         (links.ts:131-140)
  srcset_raw      → split candidates              (links.ts:204-218)
  meta_refresh    → parse '0;url=X'               (links.ts:107-115)
  meta_content    → only absolute-URL-looking     (links.ts:116-121)
  style_url       → css url()/@import, iff check_css (links.ts:123-129, :152-161)
  jsonld_url      → schema.org URL fields         (links.ts:94-97, :162-174)
  fragment_target → fragment-id table, not a link (links.ts:363-399)
  text            → nothing
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from linkinator_ray import schema, urlkit
from linkinator_ray.urlkit import LinkResolver


def explode_spans(batch: pa.Table) -> pa.Table:
    """documents → flat spans table, order preserved within each doc.

    This is the round-trip operator behind the per-row span-sequence
    invariant: output ordered by (doc_id row, offset) with a dense
    ``order`` rank per doc. Pure Arrow (list_flatten / list_parent_indices);
    no Python row loop.
    """
    spans_col = batch["spans"].combine_chunks()
    if isinstance(spans_col, pa.ChunkedArray):
        spans = spans_col.chunk(0) if spans_col.num_chunks else \
            pa.array([], type=spans_col.type)
    else:
        spans = spans_col
    flat = pc.list_flatten(spans)
    parent_idx = pc.list_parent_indices(spans)
    doc_ids = pc.take(batch["doc_id"], parent_idx)
    # dense order rank within each doc = position - list_offset(parent)
    offsets_per_parent = pc.list_value_length(spans)
    lengths = offsets_per_parent.to_numpy(zero_copy_only=False)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if len(lengths) else np.array([], dtype=np.int64)
    positions = np.arange(len(flat), dtype=np.int64)
    order = positions - np.repeat(starts, lengths) if len(lengths) else positions
    return pa.Table.from_arrays(
        [
            doc_ids,
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
            flat.field("offset"),
            pa.array(order, type=pa.int32()),
        ],
        names=["doc_id", "kind", "text", "media_ref", "offset", "order"],
    )


class ExtractLinks:
    """Callable for ``map_batches``: documents batch → links rows.

    Stateless in data terms but holds compiled regexes and the resolve
    memo — pass the class to ``map_batches(ExtractLinks, ...)`` so setup
    runs once per actor, or an instance for task-based stages.

    Parameters
    ----------
    check_css : extract style_url spans (reference checkCss option)
    corpus_base : page URL prefix of a doc_id, for a batch without a
        ``page_url`` column

    Optional batch columns besides ``doc_id`` and ``spans``:
    ``page_url`` — the page each doc is (its links' ``parent_url`` and
    its fragment targets' key); ``base_url`` — the resolution base,
    defaults to ``page_url`` (the crawl passes the final response URL of
    a redirected page, src/index.ts:690); ``css`` — the doc is an entered
    stylesheet: its text and style_url runs are one CSS source
    (links.ts:243-264), expanded as a style_url span, so the extractor
    that reads it must have ``check_css`` on, as every crawl that enters
    a stylesheet does.
    """

    def __init__(self, check_css: bool = False, corpus_base: str = "http://corpus.test/"):
        self.check_css = check_css
        self.corpus_base = corpus_base
        self.resolver = LinkResolver()

    def extract_doc(self, doc_id: str, page_url: str, spans: list[dict],
                    parent_url: str | None = None):
        """One document through :meth:`extract_with_fragments`: resolved
        against ``page_url``, recorded under ``parent_url`` (default
        page_url). Returns (list of link dicts, list of fragment ids)."""
        links, frags = self.extract_with_fragments(pa.table({
            "doc_id": [doc_id], "page_url": [parent_url or page_url],
            "base_url": [page_url],
            "spans": pa.array([spans], schema.DOCUMENTS.field("spans").type)}))
        return links.to_pylist(), frags["fragment_id"].to_pylist()

    # kinds needing per-row Python expansion (the rare minority)
    _RARE_KINDS = ("jsonld_url", "meta_content", "meta_refresh", "srcset_raw",
                   "style_url")

    def extract_with_fragments(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        """documents batch → (links table, fragment_targets table).

        Vectorized: Arrow list-offset explode + per-kind masked dispatch +
        the batched resolve kernel (urlkit.resolve_links_arrow); Python
        touches only the rare kinds, ``<base>`` hrefs and stylesheets.
        Emit order follows span offsets: when some doc's spans are not
        offset-sorted, the flat spans are stably sorted by (doc, offset)
        once. Links after a doc's first non-empty ``<base>`` resolve
        against ``get_base_url(href, base)``, earlier ones against the
        doc's base (links.ts:81-86). A ``css`` doc's text and style_url
        runs become one style_url span first.
        """
        if batch.num_rows == 0:
            return schema.empty(schema.LINKS), schema.empty(schema.FRAGMENT_TARGETS)
        names = [c for c in ("doc_id", "spans", "page_url", "base_url", "css")
                 if c in batch.column_names]
        # one chunk per column from here on
        col = batch.select(names).combine_chunks().column
        spans = col("spans").chunk(0)
        if "css" in names:
            css = np.flatnonzero(col("css").to_numpy(zero_copy_only=False))
            if len(css):
                spans = _stylesheets_as_style_url(spans, css)
        doc_ids = col("doc_id").chunk(0)
        pages = col("page_url").chunk(0) if "page_url" in names else \
            pc.binary_join_element_wise(pa.scalar(self.corpus_base), doc_ids, "")
        bases = col("base_url").chunk(0) if "base_url" in names else pages

        flat = pc.list_flatten(spans)
        pidx = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        offs = flat.field("offset").to_numpy(zero_copy_only=False)
        if len(offs) > 1 and ((np.diff(offs) < 0) & (pidx[1:] == pidx[:-1])).any():
            perm = np.lexsort((offs, pidx))
            flat, pidx = flat.take(pa.array(perm)), pidx[perm]
        kinds = flat.field("kind")
        texts = flat.field("text")
        refs = flat.field("media_ref")
        kind_of = _KindCodes(kinds)

        # fragment targets: kind == fragment_target with non-empty text
        ft = kind_of.among(("fragment_target",)) & urlkit.nonempty(texts)
        if ft.any():
            frags_table = pa.Table.from_arrays(
                [pages.take(pa.array(pidx[ft])),
                 pc.filter(texts, pa.array(ft))],
                schema=schema.FRAGMENT_TARGETS)
        else:
            frags_table = schema.empty(schema.FRAGMENT_TARGETS)

        link_src, raw_arr, kind_arr = self._link_spans(kind_of, kinds,
                                                       texts, refs)
        n_links = len(link_src)
        if n_links == 0:
            return schema.empty(schema.LINKS), frags_table
        link_doc = pidx[link_src]
        # dense per-doc order (link_doc is non-decreasing: flat order is
        # doc-major and the merge sorted by flat index)
        change = np.ones(n_links, dtype=bool)
        np.not_equal(link_doc[1:], link_doc[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        counts = np.diff(starts, append=n_links)
        order = np.arange(n_links, dtype=np.int64) - np.repeat(starts, counts)

        doc_take = pa.array(link_doc)
        link_base = _rebased(bases.take(doc_take), bases, kind_of, refs, pidx,
                             link_src, link_doc)
        resolved = urlkit.resolve_links_arrow(raw_arr, link_base, self.resolver)
        links_table = pa.Table.from_arrays([
            doc_ids.take(doc_take),
            pages.take(doc_take),
            raw_arr,
            resolved["url"],
            resolved["url_with_fragment"],
            resolved["fragment"],
            resolved["parse_error"],
            kind_arr,
            pa.array(order, pa.int32()),
        ], schema=schema.LINKS)
        return links_table, frags_table

    def _link_spans(self, kind_of: "_KindCodes", kinds, texts, refs):
        """The flat span each link comes from, its raw link and its kind,
        in flat order: direct kinds by mask, the rare kinds expanded per
        span."""
        direct = kind_of.among(schema.DIRECT_LINK_KINDS) \
            & urlkit.nonempty(refs)
        rare = kind_of.among(self._RARE_KINDS)

        dir_idx = np.flatnonzero(direct)
        if not rare.any():
            return (dir_idx, refs.take(pa.array(dir_idx)),
                    kinds.take(pa.array(dir_idx)))
        exp_idx: list[int] = []
        exp_sub: list[int] = []
        exp_raw: list[str] = []
        exp_kind: list[str] = []
        rare_idx = np.flatnonzero(rare)
        take = pa.array(rare_idx)
        for i, k, ref, txt in zip(
                rare_idx.tolist(), kinds.take(take).to_pylist(),
                refs.take(take).to_pylist(), texts.take(take).to_pylist()):
            ref = ref or ""
            if k == "srcset_raw":
                found = [(u, "srcset_candidate")
                         for u in urlkit.parse_srcset(ref)]
            elif k == "meta_refresh":
                u = urlkit.parse_meta_refresh(ref)
                found = [(u, k)] if u else []
            elif k == "meta_content":
                found = [(ref, k)] if ref and urlkit.is_absolute_url(ref) \
                    else []
            elif k == "style_url":
                found = [(u, k) for u in
                         urlkit.extract_urls_from_css(txt or ref)] \
                    if self.check_css else []
            else:  # jsonld_url
                found = [(u, k) for u in
                         urlkit.extract_links_from_jsonld_text(txt or ref)]
            for j, (u, kk) in enumerate(found):
                exp_idx.append(i)
                exp_sub.append(j)
                exp_raw.append(u)
                exp_kind.append(kk)
        all_idx = np.concatenate(
            [dir_idx, np.asarray(exp_idx, dtype=np.int64)])
        all_sub = np.concatenate(
            [np.zeros(len(dir_idx), dtype=np.int64),
             np.asarray(exp_sub, dtype=np.int64)])
        perm = np.lexsort((all_sub, all_idx))
        raws = refs.take(pa.array(dir_idx)).to_pylist() + exp_raw
        kks = kinds.take(pa.array(dir_idx)).to_pylist() + exp_kind
        return (all_idx[perm], pa.array([raws[p] for p in perm], pa.string()),
                pa.array([kks[p] for p in perm], pa.string()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        links, _ = self.extract_with_fragments(batch)
        return links


class _KindCodes:
    """The span kinds of a flat spans batch, dictionary-encoded once: a
    batch holds a handful of distinct kinds, so each kind test is a
    lookup on the codes instead of a string kernel over every span."""

    def __init__(self, kinds: pa.Array):
        if kinds.null_count:
            kinds = kinds.fill_null("")
        enc = pc.dictionary_encode(kinds)
        self.names = enc.dictionary.to_pylist()
        self.codes = enc.indices.to_numpy(zero_copy_only=False)

    def among(self, names) -> np.ndarray:
        """Spans whose kind is one of ``names``."""
        return np.array([k in names for k in self.names],
                        dtype=bool)[self.codes]


def _stylesheets_as_style_url(spans: pa.Array, rows: np.ndarray) -> pa.Array:
    """``spans`` with each stylesheet row's text and style_url runs, in
    offset order, joined into one style_url span: getCssLinks parses the
    whole body (links.ts:243-264), so a url() may straddle two runs."""
    bodies = ["".join(s["text"] or s["media_ref"] or ""
                      for s in sorted(doc or [], key=lambda s: s["offset"])
                      if s["kind"] in ("text", "style_url"))
              for doc in spans.take(pa.array(rows)).to_pylist()]
    sheets = pa.array([[{"kind": "style_url", "text": body, "media_ref": "",
                         "offset": 0}] for body in bodies], spans.type)
    pick = np.arange(len(spans))
    pick[rows] = len(spans) + np.arange(len(rows))
    return pa.concat_arrays([spans, sheets]).take(pa.array(pick))


def _rebased(link_base: pa.Array, bases: pa.Array, kind_of: "_KindCodes",
             refs, pidx: np.ndarray, link_src: np.ndarray,
             link_doc: np.ndarray) -> pa.Array:
    """``link_base`` (each link's doc base) with the links that follow
    their doc's first non-empty ``<base>`` span rebased on its href."""
    is_base = kind_of.among(("base",))
    if is_base.any():
        is_base &= urlkit.nonempty(refs)
    if not is_base.any():
        return link_base
    base_idx = np.flatnonzero(is_base)
    docs, first = np.unique(pidx[base_idx], return_index=True)
    first = base_idx[first]
    after = np.full(len(bases), len(pidx), dtype=np.int64)
    after[docs] = first
    rebase = link_src > after[link_doc]
    if not rebase.any():
        return link_base
    slot = np.zeros(len(bases), dtype=np.int64)
    slot[docs] = np.arange(len(docs))
    hrefs = [urlkit.get_base_url(href, base) for href, base in zip(
        refs.take(pa.array(first)).to_pylist(),
        bases.take(pa.array(docs)).to_pylist())]
    return pc.replace_with_mask(
        link_base, pa.array(rebase),
        pa.array(hrefs, pa.string()).take(pa.array(slot[link_doc[rebase]])))
