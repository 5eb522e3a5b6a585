"""Arrow schemas for every logical table of the engine (SURVEY.md §1.3).

The reference keeps these shapes as implicit TypeScript types and
in-heap collections (src/index.ts:260-265, src/links.ts:43-49); here
each is a fixed pyarrow schema so blocks flow zero-copy through the
object store. ``encode``/``decode`` are the mesh's wire format: every
table a mesh message carries crosses Ray as one Arrow IPC stream.
"""

from __future__ import annotations

import pyarrow as pa

# --- the corpus (BASELINE.json input_hint) --------------------------------
SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOCUMENTS = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])

# Span-kind vocabulary (mirrors the tag→attribute table at
# /root/reference/src/links.ts:8-33 plus the special handlers).
SPAN_KINDS = frozenset([
    "text",            # pure text run — no URL
    "base",            # <base href> — sets resolution base, first wins
    "anchor",          # a/area/link/embed @href
    "img_src",         # img @src
    "media_src",       # audio/video/source/track/script/iframe/embed/frame/input @src
    "srcset_candidate",  # one srcset candidate URL (already split)
    "srcset_raw",      # a raw srcset attribute value (engine splits it)
    "cite",            # blockquote/del/ins/q @cite
    "object_data",     # object @data
    "background",      # body @background
    "icon",            # command @icon
    "longdesc",        # frame/iframe @longdesc
    "manifest",        # html @manifest
    "poster",          # video @poster
    "pluginspage",     # embed @pluginspage
    "pluginurl",       # embed @pluginurl
    "meta_content",    # meta @content that looks like an absolute URL
    "meta_refresh",    # meta http-equiv=refresh content ("0;url=X")
    "style_url",       # inline style / <style> text — css-extracted iff check_css
    "jsonld_url",      # <script type=application/ld+json> body text
    "fragment_target",  # element id / a[name] / GitHub permalink anchor
])

# Kinds whose media_ref is taken verbatim as one link.
DIRECT_LINK_KINDS = frozenset([
    "anchor", "img_src", "media_src", "srcset_candidate", "cite", "object_data",
    "background", "icon", "longdesc", "manifest", "poster", "pluginspage",
    "pluginurl",
])

# --- extraction output ----------------------------------------------------
LINKS = pa.schema([
    ("doc_id", pa.string()),
    ("parent_url", pa.string()),     # page URL the link came from (base-resolved)
    ("raw_link", pa.string()),       # as written in the document
    ("url", pa.string()),            # resolved, normalized, fragment stripped
    ("url_with_fragment", pa.string()),
    ("fragment", pa.string()),       # decoded; '' if none
    ("parse_error", pa.string()),    # '' if parsed
    ("kind", pa.string()),
    ("order", pa.int32()),           # in-document span order (the input_hint invariant)
])

FRAGMENT_TARGETS = pa.schema([
    ("page_url", pa.string()),
    ("fragment_id", pa.string()),
])

# --- crawl state tables ---------------------------------------------------
FRONTIER = pa.schema([
    ("url", pa.string()),            # fragmentless normalized URL (the check key)
    ("url_hash", pa.uint64()),
    ("host", pa.string()),
    ("parent", pa.string()),         # '' for seeds
    ("depth", pa.int32()),
    ("do_crawl", pa.bool_()),        # recurse into the body?
    ("root_path", pa.string()),
    ("attempt", pa.int32()),         # protocol-retry counter (src/index.ts:1081-1088)
    ("not_before", pa.float64()),    # epoch seconds; 0 = runnable now (src/queue.ts delay)
])

RESULTS = pa.schema([
    ("url", pa.string()),
    ("status", pa.int32()),
    ("state", pa.string()),          # OK | BROKEN | SKIPPED
    ("parent", pa.string()),
    ("failure_details", pa.string()),  # JSON-encoded list; '' if none
    ("round", pa.int32()),
])

EDGES = pa.schema([
    ("url", pa.string()),            # fragmentless child URL
    ("parent", pa.string()),
])

PENDING_FRAGMENTS = pa.schema([
    ("target_url", pa.string()),     # fragmentless page the fragment points into
    ("url_with_fragment", pa.string()),
    ("fragment", pa.string()),
    ("parent", pa.string()),
])

SEEN = pa.schema([
    ("url_hash", pa.uint64()),
    ("url", pa.string()),
])

FETCH_RESULTS = pa.schema([
    ("url", pa.string()),
    ("url_hash", pa.uint64()),
    ("host", pa.string()),
    ("parent", pa.string()),
    ("depth", pa.int32()),
    ("do_crawl", pa.bool_()),
    ("root_path", pa.string()),
    ("attempt", pa.int32()),
    ("status", pa.int32()),          # 0 = request threw (network-level failure)
    ("final_url", pa.string()),      # response URL after any followed redirects
    ("has_body", pa.bool_()),
    ("body_doc_id", pa.string()),
    ("content_type", pa.string()),
    ("has_location", pa.bool_()),
    ("retry_after_epoch", pa.float64()),  # 0 = none / unparseable
    ("cf_mitigated", pa.bool_()),
    ("redirect_skipped", pa.string()),    # target URL whose skip rule fired mid-redirect
    ("error_details", pa.string()),       # JSON list of transport errors
    ("soft404", pa.bool_()),              # page body looks like a soft 404 (M12)
])

# candidate child links, fully prepared in the fetch actor (hashes,
# crawl gate, host) so the driver only runs the dedup joins
CANDIDATES = pa.schema([
    ("url", pa.string()),
    ("url_hash", pa.uint64()),
    ("edge_hash", pa.uint64()),       # edge_key(url_hash, hash64(parent))
    ("host", pa.string()),
    ("parent", pa.string()),
    ("depth", pa.int32()),
    ("do_crawl", pa.bool_()),
    ("root_path", pa.string()),
])

# results decided inside the fetch actor (parse errors, link-level skips)
LINK_RESULTS = pa.schema([
    ("url", pa.string()),
    ("status", pa.int32()),
    ("state", pa.string()),
    ("parent", pa.string()),
])

PENDING_FRAGS = pa.schema([
    ("target_url", pa.string()),
    ("fragment", pa.string()),
])

# a crawl result row (RESULTS, plus whether the row is a frontier
# URL's own result: the duplicate-broken join reads only those)
RESULT_ROWS = RESULTS.append(pa.field("frontier_level", pa.bool_()))

# --- listener event rows a mesh node buffers for the driver ---------------
PAGESTART_ROWS = pa.schema([
    ("url", pa.string()),
    ("do_crawl", pa.bool_()),
])

WARN_ROWS = pa.schema([
    ("url", pa.string()),
    ("status", pa.int32()),
    ("final_url", pa.string()),
    ("warn_status", pa.bool_()),
    ("warn_redirect", pa.bool_()),
    ("warn_insecure", pa.bool_()),
])

RETRY_ROWS = pa.schema([
    ("url", pa.string()),
    ("not_before", pa.float64()),
    ("now", pa.float64()),           # when the retry was scheduled
])

# --- mock HTTP behavior (FIXTURES.md http_map; replaces undici MockAgent) --
HTTP_MAP = pa.schema([
    ("url", pa.string()),
    ("method", pa.string()),         # 'HEAD' | 'GET' | '*'
    ("seq", pa.int32()),             # nth call to this (url, method); -1 = always
    ("status", pa.int32()),
    ("content_type", pa.string()),
    ("retry_after", pa.string()),
    ("headers_json", pa.string()),
    ("body_doc_id", pa.string()),    # '' = empty body
    ("error", pa.string()),          # '' = none; else a raised transport error
])

# the request log: one row per request a transport sent, in request order
# (status 0 when the request threw)
CALLS = pa.schema([
    ("url", pa.string()),
    ("method", pa.string()),
    ("status", pa.int32()),
])

# one empty table per schema object (Arrow tables are immutable, so every
# caller can share it). Keyed by id, since a schema's hash is recomputed on
# every call (~40 us). Each entry holds its schema, so the id stays that
# schema's while it is cached.
_EMPTY: dict[int, tuple[pa.Schema, pa.Table]] = {}


def empty(schema: pa.Schema) -> pa.Table:
    hit = _EMPTY.get(id(schema))
    if hit is None:
        hit = _EMPTY[id(schema)] = (schema, schema.empty_table())
    return hit[1]


def table(schema: pa.Schema, **columns) -> pa.Table:
    """Build a table for ``schema`` from keyword columns, defaulting any
    missing column to a sensible zero value."""
    n = max((len(v) for v in columns.values()), default=0)
    arrays = []
    for field in schema:
        if field.name in columns:
            arrays.append(pa.array(columns[field.name], type=field.type))
        else:
            default = 0 if pa.types.is_integer(field.type) or pa.types.is_floating(field.type) \
                else False if pa.types.is_boolean(field.type) else ""
            arrays.append(pa.array([default] * n, type=field.type))
    return pa.Table.from_arrays(arrays, schema=schema)


def encode(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream: the wire format of every table
    a mesh message carries. The writer copies only the rows a sliced
    table shows, and Ray ships the buffer as bytes, without the
    column-by-column rebuild its ``pa.Table`` pickling does."""
    sink = pa.BufferOutputStream()
    writer = pa.ipc.RecordBatchStreamWriter(sink, table.schema)
    writer.write_table(table)
    writer.close()
    return sink.getvalue()


def decode(buf) -> pa.Table:
    """The table ``encode`` wrote (zero-copy over ``buf``)."""
    return pa.ipc.open_stream(buf).read_all()
