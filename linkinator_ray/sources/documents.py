"""Corpus source: the interleaved text+media documents table.

The corpus plays the role of the reference's local static web server
(/root/reference/src/server.ts:34-189): a URL on the corpus host
resolves to a document row instead of a file on disk — mime typing by
extension, ``index.html`` for directory paths, 301 redirect for
extension-less directories, optional clean-URLs (``/about`` →
``about.html``, server.ts:119-143) and directory listings
(server.ts:172-184; listings are materialized as synthetic docs by the
fixture generator).

Storage is the Lance schema from BASELINE.json
``(doc_id: string, spans: list<struct<kind,text,media_ref,offset>>)``;
this sandbox has no ``lance`` package, so tables are written/read as
Parquet with the identical Arrow schema — ``read_documents`` prefers
Lance when importable.
"""

from __future__ import annotations

import re
from urllib.parse import unquote, urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from linkinator_ray import schema, urlkit

MIME_BY_EXT = {
    ".html": "text/html", ".htm": "text/html", ".xhtml": "application/xhtml+xml",
    ".md": "text/markdown", ".mdx": "text/markdown",
    ".css": "text/css", ".js": "application/javascript",
    ".json": "application/json", ".txt": "text/plain",
    ".png": "image/png", ".jpg": "image/jpeg", ".jpeg": "image/jpeg",
    ".gif": "image/gif", ".svg": "image/svg+xml", ".ico": "image/x-icon",
    ".mp3": "audio/mpeg", ".mp4": "video/mp4", ".webm": "video/webm",
    ".pdf": "application/pdf", ".xml": "application/xml",
}
DEFAULT_MIME = "application/octet-stream"

# one resolved corpus request per row (CorpusIndex.resolve_many)
RESOLUTIONS = pa.schema([
    ("on_corpus", pa.bool_()),      # False: the URL is not a corpus URL
    ("status", pa.int32()),         # 200 | 301 | 404 (0 off the corpus)
    ("doc_id", pa.string()),        # '' unless 200
    ("content_type", pa.string()),
    ("location", pa.string()),      # the 301's target path
    ("row", pa.int64()),            # documents row of doc_id, -1 if none
])


def ext_codes(doc_ids: pa.Array) -> np.ndarray:
    """Position in ``MIME_BY_EXT`` of each doc_id's extension (the last
    ``.ext`` of the file name, not counting leading dots, as
    ``posixpath.splitext``); ``len(MIME_BY_EXT)`` for any other. The
    pattern runs anchored on the reversed ids: the extension reversed,
    its dot, any dots, then a file-name character."""
    ext = pc.struct_field(pc.extract_regex(
        pc.utf8_reverse(doc_ids), r"^(?P<ext>[^./]*\.)\.*[^./]"), "ext")
    pos = pc.index_in(pc.utf8_lower(pc.utf8_reverse(ext)),
                      value_set=pa.array(list(MIME_BY_EXT)))
    return pc.fill_null(pos, len(MIME_BY_EXT)).to_numpy(zero_copy_only=False) \
        .astype(np.int8)


# the mime code of an HTML page (a directory listing's type)
_HTML_CODE = list(MIME_BY_EXT).index(".html")


def mime_values(markdown_as_html: bool = False) -> pa.Array:
    """The MIME type of each ``ext_codes`` value, then ``''`` (the code
    of a row that resolved to no document)."""
    mimes = list(MIME_BY_EXT.values())
    if markdown_as_html:
        # the reference compiles .md/.mdx to HTML before serving
        # (src/server.ts:147-165) when markdown mode is on
        mimes = ["text/html" if m == "text/markdown" else m for m in mimes]
    return pa.array(mimes + [DEFAULT_MIME, ""], pa.string())


def read_documents(path: str, *, columns: list[str] | None = None):
    """Read a documents table as a ray.data.Dataset (Lance preferred,
    Parquet otherwise)."""
    import ray.data as rd
    try:
        import lance  # noqa: F401
        return rd.read_lance(path, columns=columns)
    except ImportError:
        return rd.read_parquet(path, columns=columns)


def write_documents(table: pa.Table, path: str) -> None:
    pq.write_table(table, path)


class CorpusIndex:
    """Request URL → document row, and the static-server path rules.

    One sorted index of 64-bit FNV hashes (``urlkit.hash64``) keyed by
    the normalized request URL of each document: ``http://<doc_id>`` in
    multi-host mode (doc_ids are "host/path"), ``http://<host>/<doc_id>``
    in single-host mode, plus the ``…/`` URL of every ``index.html``.
    Each entry holds its table row and kind (``URL_KEY``, ``DIR_KEY``,
    or ``ID_KEY`` for a doc_id no plain request reaches as itself, such
    as one with ``%`` or a trailing ``/``).

    ``resolve_many`` probes a batch with the ``url_hash`` the frontier
    already carries: a hit is one ``searchsorted`` and a string-equality
    check against the doc_id column. Only the rows the probe misses go
    through the static-server rules (404, 301 for a directory without
    its slash, clean URLs, listings, and https, percent-escaped or odd
    URLs), which look documents up in the same index by the key of the
    path they compute (``rows_of``). At 100 TB scale the same probe
    becomes a hash-join of the frontier against the documents Dataset
    on this key (SURVEY.md §2.4 J4) behind the same interface.
    """

    LISTING_PREFIX = "\x00listing:"

    def __init__(self, documents: pa.Table, *, host: str = "corpus.test",
                 clean_urls: bool = False, markdown: bool = False,
                 multi_host: bool = False, directory_listing: bool = False,
                 prebuilt: dict | None = None):
        self.host = host
        self.clean_urls = clean_urls
        self.markdown = markdown
        self.directory_listing = directory_listing
        self.multi_host = multi_host  # doc_id carries "host/path"
        # Spans stay in the Arrow table (zero-copy through the object
        # store when broadcast to fetch actors) and materialize per doc
        # on demand — each doc's body is read at most once per crawl.
        if documents is None:
            documents = schema.empty(schema.DOCUMENTS)
        self._table = documents.combine_chunks()
        self._spans_col = self._table["spans"].combine_chunks()
        self._ids_col = self._table["doc_id"].combine_chunks()
        self._key_prefix = url_key_prefix(host, multi_host)
        # zero-copy index structures shipped through the object store
        # (actor __init__ pays ~0), or built here
        blob = prebuilt if prebuilt is not None \
            else build_corpus_index_blob(self._table, multi_host, host)
        self._key_sorted = blob["key_sorted"]
        self._key_row = blob["key_row"]
        self._key_kind = blob["key_kind"]
        self._ext_code = blob["ext_code"]
        self._dir_hash_sorted = blob["dir_hash_sorted"]
        self._hosts = pa.array(blob["hosts"] if multi_host else [],
                               pa.string())
        self._mimes = mime_values(markdown)

    def _lookup(self, hashes: np.ndarray, skip_kind: int, same) -> np.ndarray:
        """Index entry of each hash, -1 where none: one ``searchsorted``
        probe over the entries not of ``skip_kind``, each candidate
        verified by ``same(rows, entries)`` (a mask over the candidate
        rows); a row whose hash run holds other keys walks on to the next
        equal hash."""
        n = len(hashes)
        out = np.full(n, -1, dtype=np.int64)
        keys = self._key_sorted
        if n == 0 or len(keys) == 0:
            return out
        pos = np.searchsorted(keys, hashes)
        live = np.arange(n)
        while True:
            live = live[pos[live] < len(keys)]
            live = live[keys[pos[live]] == hashes[live]]
            if not len(live):
                return out
            cand = live[self._key_kind[pos[live]] != skip_kind]
            if len(cand):
                hit = cand[same(cand, pos[cand])]
                out[hit] = pos[hit]
                live = live[out[live] < 0]
            pos[live] += 1

    def rows_of(self, doc_ids: pa.Array) -> np.ndarray:
        """Table row of each doc_id, -1 where absent: the doc_id's URL
        key, hashed and probed, string-verified against the doc_id
        column."""
        if len(doc_ids) == 0 or len(self._key_sorted) == 0:
            return np.full(len(doc_ids), -1, dtype=np.int64)
        h = urlkit.hash64_arrow(pc.binary_join_element_wise(
            self._key_prefix, doc_ids, ""))

        def same(rows, entries):
            return pc.equal(
                self._ids_col.take(pa.array(self._key_row[entries])),
                urlkit.take_rows(doc_ids, rows)) \
                .to_numpy(zero_copy_only=False)
        entry = self._lookup(h, DIR_KEY, same)
        return np.where(entry >= 0, self._key_row[entry], -1)

    def _probe_urls(self, urls: pa.Array, url_hash: np.ndarray) -> np.ndarray:
        """Table row of each request URL that is a document's own URL
        key (so the static-server rules would answer 200 with that
        document), -1 for every other row."""
        prefix = self._key_prefix

        def same(rows, entries):
            want = self._ids_col.take(pa.array(self._key_row[entries]))
            as_dir = self._key_kind[entries] == DIR_KEY
            if as_dir.any():
                want = pc.if_else(as_dir, pc.utf8_slice_codeunits(
                    want, 0, -len("index.html")), want)
            return pc.equal(
                urlkit.take_rows(urls, rows),
                pc.binary_join_element_wise(prefix, want, "")) \
                .to_numpy(zero_copy_only=False)
        entry = self._lookup(url_hash, ID_KEY, same)
        return np.where(entry >= 0, self._key_row[entry], -1)

    def row_of(self, doc_id: str) -> int | None:
        """Table row for one doc_id (a one-row :meth:`rows_of`)."""
        row = int(self.rows_of(pa.array([doc_id], pa.string()))[0])
        return None if row < 0 else row

    def _dirs_have(self, prefixes: pa.Array) -> np.ndarray:
        sorted_h = self._dir_hash_sorted
        if len(sorted_h) == 0 or len(prefixes) == 0:
            return np.zeros(len(prefixes), dtype=bool)
        h = urlkit.hash64_arrow(prefixes)
        pos = np.minimum(np.searchsorted(sorted_h, h), len(sorted_h) - 1)
        return sorted_h[pos] == h

    def spans_of(self, doc_id: str) -> list:
        if doc_id.startswith(self.LISTING_PREFIX):
            return self._listing_spans(doc_id[len(self.LISTING_PREFIX):])
        row = self.row_of(doc_id)
        return [] if row is None else self.spans_at(row)

    def spans_at(self, row: int) -> list:
        return self._spans_col[row].as_py() or []

    def _listing_spans(self, dir_prefix: str) -> list:
        """Synthetic auto-index page: one anchor per direct child
        (server.ts:172-184 renders <ul><li><a …> of dir contents)."""
        prefix = dir_prefix + "/" if dir_prefix else ""
        children = set()
        for doc_id in self.doc_ids():
            if not doc_id.startswith(prefix):
                continue
            rest = doc_id[len(prefix):]
            children.add(rest.split("/", 1)[0] + ("/" if "/" in rest else ""))
        for d in _dirs_of(self.doc_ids()):
            if d.startswith(prefix) and d != dir_prefix:
                rest = d[len(prefix):]
                children.add(rest.split("/", 1)[0] + "/")
        return [
            {"kind": "anchor", "text": child, "media_ref": child,
             "offset": i * 10}
            for i, child in enumerate(sorted(children))
        ]

    def doc_ids(self) -> list[str]:
        if not hasattr(self, "_ids_list"):
            self._ids_list = self._ids_col.to_pylist()
        return self._ids_list

    @property
    def table(self) -> pa.Table:
        return self._table

    def resolve_many(self, urls: pa.Array,
                     url_hash: np.ndarray | None = None) -> pa.Table:
        """Resolve a batch of request URLs, one static-server 'request'
        each, to RESOLUTIONS rows in input order.

        ``url_hash`` is ``urlkit.hash64`` of each URL (the frontier's
        column; hashed here when absent). A URL that is a document's own
        key resolves by the index probe alone; only the other rows go
        through the static-server rules (``_resolve_rules``). Every hit
        is string-verified, so a row whose hash is not its URL's only
        misses the probe."""
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        n = len(urls)
        if url_hash is None:
            url_hash = urlkit.hash64_arrow(urls)
        row = self._probe_urls(urls, np.asarray(url_hash, dtype=np.uint64))
        on = np.ones(n, dtype=bool)
        status = np.full(n, 200, dtype=np.int32)
        code = self._mime_codes(row)
        listings = locations = (None, None)
        miss = np.flatnonzero(row < 0)
        if len(miss):
            on[miss], status[miss], row[miss], code[miss], listings, \
                locations = self._resolve_rules(urlkit.take_rows(urls, miss))
        found = row >= 0
        doc_id = self._ids_col.take(pa.array(row, mask=~found))
        if not found.all():
            doc_id = doc_id.fill_null("")
        location = pa.repeat(pa.scalar("", pa.string()), n)
        if listings[0] is not None:
            doc_id = _patch(doc_id, miss[listings[0]], listings[1])
        if locations[0] is not None:
            location = _patch(location, miss[locations[0]], locations[1])
        return pa.Table.from_arrays([
            pa.array(on), pa.array(status), doc_id,
            self._mimes.take(pa.array(code)), location, pa.array(row)],
            schema=RESOLUTIONS)

    def _resolve_rules(self, urls: pa.Array):
        """The static-server rules over URLs the index probe missed:
        ``(on_corpus, status, row, mime code)`` numpy columns, then the
        listing doc_ids and the 301 locations as ``(rows, values)``
        patches (``(None, None)`` when there are none).

        Plain URLs (lower-case host, no port, userinfo, ``%``, ``?`` or
        ``#``) split into host and path with one Arrow regex; the rest
        go through ``urlsplit``/``unquote`` first. Everything after the
        split is vectorized. In multi-host mode (scaled bench corpora)
        doc_ids are "host/path" and any host whose docs are present
        resolves. The path rules run on every row; a row off the corpus
        then answers status 0 with no document."""
        hosts, paths = _split_host_path(urls)
        if self.multi_host:
            on = pc.is_in(hosts, value_set=self._hosts)
            paths = pc.binary_join_element_wise(
                hosts, pc.utf8_ltrim(paths, "/"), "/")
        else:
            on = pc.equal(hosts, self.host)
        on = on.to_numpy(zero_copy_only=False)
        status, row, code, listings, locations = self._resolve_paths(paths)
        off = ~on
        if off.any():
            status[off], row[off], code[off] = 0, -1, len(self._mimes) - 1
            listings = _on_rows(listings, on)
            locations = _on_rows(locations, on)
        return on, status, row, code, listings, locations

    def _mime_codes(self, row: np.ndarray) -> np.ndarray:
        """The mime code of each document ``row`` (the no-document code
        where it is -1)."""
        code = np.full(len(row), len(self._mimes) - 1, dtype=np.int64)
        found = row >= 0
        code[found] = self._ext_code[row[found]]
        return code

    def _resolve_paths(self, paths: pa.Array):
        """The static-server path rules over a batch of corpus paths:
        status, row and mime code numpy columns, then the listing
        doc_id and 301 location patches (``_resolve_rules``)."""
        raw = pc.utf8_ltrim(paths, "/")
        as_dir = pc.ends_with(paths, "/").to_numpy(zero_copy_only=False) \
            | ~urlkit.nonempty(raw)
        if as_dir.any():
            raw = pc.if_else(pa.array(as_dir), pc.binary_join_element_wise(
                raw, "index.html", ""), raw)
        row = self.rows_of(raw)
        if self.clean_urls:
            # /about → about.html (server.ts:119-143)
            for suffix in (".html", ".htm"):
                miss = np.flatnonzero(row < 0)
                row[miss] = self.rows_of(pc.binary_join_element_wise(
                    urlkit.take_rows(raw, miss), suffix, ""))
        found = row >= 0
        status = np.where(found, 200, 404).astype(np.int32)
        code = self._mime_codes(row)
        listings = locations = (None, None)
        miss = np.flatnonzero(~found)
        if len(miss) and self.directory_listing:
            # auto-index for directories without index.html
            # (server.ts:94-95, :172-184)
            miss = miss[pc.ends_with(urlkit.take_rows(raw, miss),
                                     "index.html")
                        .to_numpy(zero_copy_only=False)]
            prefixes = pc.utf8_rtrim(pc.utf8_slice_codeunits(
                urlkit.take_rows(raw, miss), 0, -len("index.html")), "/")
            listed = self._dirs_have(prefixes) | ~urlkit.nonempty(prefixes)
            idx = miss[listed]
            if len(idx):
                status[idx] = 200
                code[idx] = _HTML_CODE
                listings = (idx, pc.binary_join_element_wise(
                    self.LISTING_PREFIX, prefixes.filter(pa.array(listed)),
                    ""))
            miss = np.flatnonzero(status == 404)
        if len(miss):
            # directory without trailing slash → 301 to path + '/'
            # (server.ts:85-117)
            dirs = urlkit.take_rows(raw, miss)
            is_dir = self._dirs_have(dirs)
            idx = miss[is_dir]
            if len(idx):
                status[idx] = 301
                dirs = dirs.filter(pa.array(is_dir))
                if self.multi_host:
                    # the location is the URL's own path: drop the host
                    # that the doc_id form ("host/path") puts in front
                    dirs = pc.replace_substring_regex(dirs, "^[^/]*/", "",
                                                      max_replacements=1)
                locations = (idx, pc.binary_join_element_wise(
                    "/", dirs, "/", ""))
        return status, row, code, listings, locations


def _on_rows(patch: tuple, on: np.ndarray) -> tuple:
    """A ``(rows, values)`` patch less its rows that are not ``on``."""
    idx, values = patch
    if idx is None:
        return patch
    keep = on[idx]
    if not keep.any():
        return None, None
    return idx[keep], values.filter(pa.array(keep))


def _split_host_path(urls: pa.Array) -> tuple[pa.Array, pa.Array]:
    """(host, path) of each URL as the static server reads it."""
    plain, host, path = urlkit.split_plain_url_arrow(urls)
    path = pc.fill_null(path, "/")
    odd = np.flatnonzero(~plain)
    if len(odd):
        pairs = [_split_one(u)
                 for u in urlkit.take_rows(urls, odd).to_pylist()]
        host = _patch(host, odd, [h for h, _ in pairs])
        path = _patch(path, odd, [p for _, p in pairs])
    return host, path


def _split_one(url: str) -> tuple[str, str]:
    """(host, path) of a URL the plain pattern missed: a plain slice
    when nothing after ``://`` needs decoding, else urlsplit + unquote."""
    sep = url.find("://")
    if sep > 0:
        rest = url[sep + 3:]
        if not any(ch in rest for ch in "%?#@:"):
            slash = rest.find("/")
            host = rest if slash < 0 else rest[:slash]
            if host and host == host.lower():
                return host, "/" if slash < 0 else rest[slash:]
    parts = urlsplit(url)
    return (parts.hostname or "").lower(), unquote(parts.path or "/")


def _patch(col: pa.Array, idx: np.ndarray, values) -> pa.Array:
    """``col`` with rows ``idx`` replaced by ``values``."""
    if not len(idx):
        return col
    if not isinstance(values, pa.Array):
        values = pa.array(values, col.type)
    take = np.arange(len(col))
    take[idx] = len(col) + np.arange(len(idx))
    return pa.concat_arrays([col, values]).take(pa.array(take))


def _dirs_of(ids: list[str]) -> set[str]:
    """All directory prefixes of a doc-id list (ancestor early-break:
    shared directories are visited once)."""
    dirs: set[str] = set()
    for doc_id in ids:
        pos = doc_id.rfind("/")
        while pos > 0:
            prefix = doc_id[:pos]
            if prefix in dirs:
                break
            dirs.add(prefix)
            pos = doc_id.rfind("/", 0, pos)
    return dirs


# kinds of URL-key entries in the corpus index
URL_KEY = 0   # prefix + doc_id: a plain request that resolves to the doc
DIR_KEY = 1   # prefix + "<dir>/" of a "<dir>/index.html" doc
ID_KEY = 2    # prefix + doc_id that no plain request resolves to the doc
              # (rows_of lookups only)

# doc_ids whose URL key the static-server rules resolve to the doc
# itself: no character the rules decode or cut ([%?#@:]), no leading
# slash (they strip it), no trailing one (a directory)
_PLAIN_PATH = r"[^/%?#@:](?:[^%?#@:]*[^/%?#@:])?"
_PLAIN_HOST = r"[a-z0-9.-]+"


def url_key_prefix(host: str, multi_host: bool) -> str:
    """What the corpus index puts before a doc_id to make its URL key."""
    return "http://" if multi_host else f"http://{host}/"


def build_corpus_index_blob(documents: pa.Table, multi_host: bool,
                            host: str = "corpus.test") -> dict:
    """Driver-side (once per documents table, ``actors.corpus_index``)
    construction of the CorpusIndex lookup structures — plain numpy
    arrays + a small host list, so the broadcast to fetch actors is
    zero-copy and actor __init__ pays ~0.

    ``key_sorted`` holds the sorted ``hash64`` URL keys (after
    ``url_key_prefix``) of every doc, and the ``…/`` key of every
    ``index.html`` a plain request reaches, with the table row
    (``key_row``) and kind (``key_kind``) of each entry; ``ext_code`` is
    each row's ``ext_codes`` value."""
    prefix = url_key_prefix(host, multi_host)
    if documents.num_rows == 0:
        empty = np.empty(0, dtype=np.uint64)
        return {"key_sorted": empty, "key_row": np.empty(0, np.int64),
                "key_kind": np.empty(0, np.int8),
                "ext_code": np.empty(0, np.int8),
                "dir_hash_sorted": empty, "hosts": []}
    ids_col = documents["doc_id"].combine_chunks()
    head = f"{_PLAIN_HOST}/" if multi_host else ""
    if multi_host or re.fullmatch(_PLAIN_HOST, host):
        plain = pc.match_substring_regex(ids_col, f"^{head}{_PLAIN_PATH}$")
        # the directory of a plain ".../index.html" is plain too
        index = pc.ends_with(ids_col, "/index.html")
        if not multi_host:
            index = pc.or_(index, pc.equal(ids_col, "index.html"))
        index_rows = np.flatnonzero(pc.and_(plain, index)
                                    .to_numpy(zero_copy_only=False))
        plain = plain.to_numpy(zero_copy_only=False)
    else:
        # a host the rules never match: every key is a doc_id key
        plain = np.zeros(len(ids_col), dtype=bool)
        index_rows = np.empty(0, dtype=np.int64)
    dir_ids = pc.utf8_slice_codeunits(ids_col.take(pa.array(index_rows)),
                                      0, -len("index.html"))
    keys = pc.binary_join_element_wise(
        prefix, pa.concat_arrays([ids_col, dir_ids]), "")
    key_hash = urlkit.hash64_arrow(keys)
    rows = np.concatenate([np.arange(len(ids_col)), index_rows])
    kinds = np.concatenate([np.where(plain, URL_KEY, ID_KEY),
                            np.full(len(index_rows), DIR_KEY)]).astype(np.int8)
    perm = np.argsort(key_hash, kind="stable")
    # every directory is its own parent or an ancestor of a doc's parent
    parents = pc.unique(pc.struct_field(pc.extract_regex(
        ids_col, r"(?s)^(?P<dir>.*)/"), "dir")).drop_null().to_pylist()
    dirs = sorted(_dirs_of(parents) | {p for p in parents if p})
    dir_hash = np.sort(urlkit.hash64_array(dirs)) if dirs \
        else np.empty(0, dtype=np.uint64)
    hosts = [p for p in dirs if "/" not in p] if multi_host else []
    return {"key_sorted": key_hash[perm],
            "key_row": rows[perm].astype(np.int64), "key_kind": kinds[perm],
            "ext_code": ext_codes(ids_col), "dir_hash_sorted": dir_hash,
            "hosts": hosts}
