"""Span → link extraction: the engine's core ``map_batches`` stage.

Re-expresses the reference's streaming HTML link extractor
(/root/reference/src/links.ts:67-181 and its tag→attribute table at
:8-41) over the structured span representation of the corpus: each
document row carries ``spans: list<struct<kind,text,media_ref,offset>>``;
this stage explodes them (zero-copy via Arrow list offsets) and emits one
``links`` row per extracted URL, preserving in-document span order.

Dispatch per span kind (schema.SPAN_KINDS):
  base            → rebase, first wins            (links.ts:83-86)
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
    import numpy as np
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
    corpus_base : page URL prefix of a doc_id (base for relative
        resolution); a batch with a ``page_url`` column gives each doc's
        page URL instead
    emit_fragment_targets : include fragment_target rows in a second
        output table via :meth:`extract_with_fragments`.
    """

    def __init__(self, check_css: bool = False, corpus_base: str = "http://corpus.test/"):
        self.check_css = check_css
        self.corpus_base = corpus_base
        self.resolver = LinkResolver()

    # -- per-document extraction (the inner kernel) ------------------------

    def extract_doc(self, doc_id: str, page_url: str, spans: list[dict],
                    parent_url: str | None = None):
        """Extract (links, fragment_ids) from one document's span list.

        ``page_url`` is the resolution base (the final response URL,
        src/index.ts:690); ``parent_url`` the URL recorded as the links'
        parent (the originally-checked URL) — defaults to page_url.
        Returns (list of link dicts, list of fragment ids). Span order is
        the emit order; ``order`` numbers emitted links densely.
        """
        parent = parent_url or page_url
        spans = sorted(spans, key=lambda s: s["offset"])
        base = page_url
        base_set = False
        out: list[dict] = []
        frags: list[str] = []
        resolve = self.resolver.resolve

        def emit(raw_link: str, kind: str):
            parsed = resolve(raw_link, base)
            out.append({
                "doc_id": doc_id,
                "parent_url": parent,
                "raw_link": raw_link,
                "url": parsed.url or "",
                "url_with_fragment": parsed.url_with_fragment or "",
                "fragment": parsed.fragment or "",
                "parse_error": parsed.error or "",
                "kind": kind,
                "order": len(out),
            })

        for span in spans:
            kind = span["kind"]
            ref = span["media_ref"] or ""
            if kind == "text":
                continue
            if kind == "base":
                if not base_set and ref:
                    base = urlkit.get_base_url(ref, page_url)
                    base_set = True
                continue
            if kind == "fragment_target":
                if span["text"]:
                    frags.append(span["text"])
                continue
            if kind in schema.DIRECT_LINK_KINDS:
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
                # only validate meta content that already looks like a URL
                if ref and urlkit.is_absolute_url(ref):
                    emit(ref, kind)
            elif kind == "style_url":
                if self.check_css:
                    for url in urlkit.extract_urls_from_css(span["text"] or ref):
                        emit(url, kind)
            elif kind == "jsonld_url":
                for url in urlkit.extract_links_from_jsonld_text(span["text"] or ref):
                    emit(url, kind)
            # unknown kinds are ignored (forward compatibility)
        return out, frags

    # -- batch kernels -----------------------------------------------------

    # kinds needing per-row Python expansion (the rare minority)
    _RARE_KINDS = ("jsonld_url", "meta_content", "meta_refresh", "srcset_raw",
                   "style_url")

    def extract_with_fragments(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        """documents batch → (links table, fragment_targets table).

        Vectorized: Arrow list-offset explode + per-kind masked dispatch +
        the batched resolve kernel (urlkit.resolve_links_arrow). Only two
        document shapes fall back to the scalar per-doc path: docs with a
        ``<base>`` span (positional semantics — links before the base tag
        resolve against the page URL, links.ts:81-86) and docs whose spans
        are not offset-sorted (emit order must follow offsets).
        """
        import numpy as np
        if batch.num_rows == 0:
            return schema.empty(schema.LINKS), schema.empty(schema.FRAGMENT_TARGETS)
        batch = batch.select([c for c in ("doc_id", "spans", "page_url")
                              if c in batch.column_names]).combine_chunks()
        spans = batch["spans"].chunk(0) if batch["spans"].num_chunks else \
            pa.array([], type=batch["spans"].type)
        flat = pc.list_flatten(spans)
        pidx = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        kinds = flat.field("kind")
        offs = flat.field("offset").to_numpy(zero_copy_only=False)

        slow_doc = np.zeros(batch.num_rows, dtype=bool)
        base_np = pc.fill_null(pc.equal(kinds, "base"), False) \
            .to_numpy(zero_copy_only=False)
        if base_np.any():
            slow_doc[pidx[base_np]] = True
        if len(offs) > 1:
            unsorted = (np.diff(offs) < 0) & (pidx[1:] == pidx[:-1])
            if unsorted.any():
                slow_doc[pidx[1:][unsorted]] = True
        if slow_doc.any():
            fast_rows = batch.filter(pa.array(~slow_doc))
            links_f, frags_f = self._extract_fast(fast_rows) \
                if fast_rows.num_rows else \
                (schema.empty(schema.LINKS), schema.empty(schema.FRAGMENT_TARGETS))
            links_s, frags_s = self._extract_scalar(batch.filter(pa.array(slow_doc)))
            return (pa.concat_tables([links_f, links_s]),
                    pa.concat_tables([frags_f, frags_s]))
        return self._extract_fast(batch)

    def _page_urls_array(self, batch: pa.Table) -> pa.Array:
        if "page_url" in batch.column_names:
            return batch["page_url"].combine_chunks()
        doc_ids = batch["doc_id"].combine_chunks()
        return pc.binary_join_element_wise(
            pa.scalar(self.corpus_base), doc_ids, "")

    def _extract_fast(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        """The no-base-tag, offset-sorted fast path (the common shape)."""
        import numpy as np
        batch = batch.combine_chunks()
        spans = batch["spans"].chunk(0) if batch["spans"].num_chunks else \
            pa.array([], type=batch["spans"].type)
        flat = pc.list_flatten(spans)
        pidx = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        kinds = flat.field("kind")
        texts = flat.field("text")
        refs = flat.field("media_ref")
        pages = self._page_urls_array(batch)
        doc_ids = batch["doc_id"].combine_chunks()
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.chunk(0) if doc_ids.num_chunks else \
                pa.array([], pa.string())

        # fragment targets: kind == fragment_target with non-empty text
        ft = pc.fill_null(
            pc.and_(pc.equal(kinds, "fragment_target"),
                    pc.and_(pc.is_valid(texts), pc.not_equal(texts, ""))),
            False).to_numpy(zero_copy_only=False)
        if ft.any():
            frags_table = pa.Table.from_arrays(
                [pages.take(pa.array(pidx[ft])),
                 pc.filter(texts, pa.array(ft))],
                schema=schema.FRAGMENT_TARGETS)
        else:
            frags_table = schema.empty(schema.FRAGMENT_TARGETS)

        direct = pc.fill_null(
            pc.and_(pc.is_in(kinds,
                             value_set=pa.array(sorted(schema.DIRECT_LINK_KINDS))),
                    pc.and_(pc.is_valid(refs), pc.not_equal(refs, ""))),
            False).to_numpy(zero_copy_only=False)
        rare = pc.fill_null(
            pc.is_in(kinds, value_set=pa.array(self._RARE_KINDS)),
            False).to_numpy(zero_copy_only=False)

        dir_idx = np.flatnonzero(direct)
        if not rare.any():
            link_src = dir_idx
            raw_arr = refs.take(pa.array(dir_idx))
            kind_arr = kinds.take(pa.array(dir_idx))
        else:
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
            link_src = all_idx[perm]
            raws = refs.take(pa.array(dir_idx)).to_pylist() + exp_raw
            kks = kinds.take(pa.array(dir_idx)).to_pylist() + exp_kind
            raw_arr = pa.array([raws[p] for p in perm], pa.string())
            kind_arr = pa.array([kks[p] for p in perm], pa.string())

        n_links = len(link_src)
        if n_links == 0:
            return schema.empty(schema.LINKS), frags_table
        link_doc = pidx[link_src]
        # dense per-doc order (link_doc is non-decreasing: flat order is
        # doc-major and the merge sorted by flat index)
        change = np.r_[True, link_doc[1:] != link_doc[:-1]]
        starts = np.flatnonzero(change)
        counts = np.diff(np.r_[starts, n_links])
        order = np.arange(n_links, dtype=np.int64) - np.repeat(starts, counts)

        doc_take = pa.array(link_doc)
        base_arr = pages.take(doc_take)
        resolved = urlkit.resolve_links_arrow(raw_arr, base_arr, self.resolver)
        links_table = pa.Table.from_arrays([
            doc_ids.take(doc_take),
            base_arr,
            raw_arr,
            resolved["url"],
            resolved["url_with_fragment"],
            resolved["fragment"],
            resolved["parse_error"],
            kind_arr,
            pa.array(order, pa.int32()),
        ], schema=schema.LINKS)
        return links_table, frags_table

    def _extract_scalar(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        """Per-doc scalar path: base-tag positional semantics and
        unsorted-offset docs."""
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()
        pages = self._page_urls_array(batch).to_pylist()
        links_rows: list[dict] = []
        frag_pages: list[str] = []
        frag_ids: list[str] = []
        for doc_id, spans, page in zip(doc_ids, spans_col, pages):
            links, frags = self.extract_doc(doc_id, page, spans or [])
            links_rows.extend(links)
            frag_pages.extend([page] * len(frags))
            frag_ids.extend(frags)
        links_table = (
            pa.Table.from_pylist(links_rows, schema=schema.LINKS)
            if links_rows else schema.empty(schema.LINKS)
        )
        frags_table = pa.Table.from_arrays(
            [pa.array(frag_pages, pa.string()), pa.array(frag_ids, pa.string())],
            schema=schema.FRAGMENT_TARGETS,
        )
        return links_table, frags_table

    def __call__(self, batch: pa.Table) -> pa.Table:
        links, _ = self.extract_with_fragments(batch)
        return links


def extract_css_doc_links(doc_id: str, page_url: str, spans: list[dict],
                          resolver: LinkResolver | None = None) -> list[dict]:
    """CSS-document branch (getCssLinks, links.ts:243-264): a text/css doc's
    spans are style_url/text runs; extract url()/@import from the whole
    body unconditionally (check_css gates *entering* css docs, not parsing
    them)."""
    resolver = resolver or LinkResolver()
    body = "".join(
        (s["text"] or s["media_ref"] or "")
        for s in sorted(spans, key=lambda x: x["offset"])
        if s["kind"] in ("text", "style_url")
    )
    out = []
    for url in urlkit.extract_urls_from_css(body):
        parsed = resolver.resolve(url, page_url)
        out.append({
            "doc_id": doc_id, "parent_url": page_url, "raw_link": url,
            "url": parsed.url or "", "url_with_fragment": parsed.url_with_fragment or "",
            "fragment": parsed.fragment or "", "parse_error": parsed.error or "",
            "kind": "style_url", "order": len(out),
        })
    return out
