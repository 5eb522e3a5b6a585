"""URL scalar kit: resolution, canonicalization, hashing, micro-parsers.

Semantics match the reference's link parsing layer
(/root/reference/src/links.ts): WHATWG-style resolve+normalize
(links.ts:220-232), absolute-URL test (links.ts:193-202), base-tag
resolution (links.ts:183-191), meta-refresh (links.ts:57-65), srcset
(links.ts:204-218), CSS url()/@import extraction (links.ts:272-307),
JSON-LD schema.org URL fields (links.ts:315-353).

These are scalar functions used *inside* vectorized ``map_batches``
stages; the hot helpers (hash64_array, resolve_many) take numpy/list
batches and amortize per-call overhead with caches.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
import re
from urllib.parse import quote, unquote, urljoin, urlsplit, urlunsplit

import numpy as np

# ---------------------------------------------------------------------------
# schema.org fields expected to hold URLs (data vocabulary; the reference
# ships the same list as src/schema-org-url-fields.json)
# ---------------------------------------------------------------------------
SCHEMA_ORG_URL_FIELDS = frozenset([
    "acquireLicensePage", "actionableFeedbackPolicy", "afterMedia", "archivedAt",
    "associatedDisease", "beforeMedia", "benefitsSummaryUrl", "codeRepository",
    "colleague", "colorSwatch", "constraintProperty", "contentUrl",
    "correctionsPolicy", "discussionUrl", "diseasePreventionInfo",
    "diseaseSpreadStatistics", "diversityPolicy", "diversityStaffingReport",
    "documentation", "downloadUrl", "duringMedia", "embedUrl", "ethicsPolicy",
    "gameLocation", "gettingTestedInfo", "hasGS1DigitalLink", "hasMap",
    "hasMolecularFunction", "healthPlanMarketingUrl", "image", "inCodeSet",
    "inDefinedTermSet", "installUrl", "isBasedOn", "isBasedOnUrl",
    "isInvolvedInBiologicalProcess", "isLocatedInSubcellularLocation", "isPartOf",
    "labelDetails", "layoutImage", "license", "logo", "mainEntityOfPage", "map",
    "maps", "masthead", "merchantReturnLink", "missionCoveragePrioritiesPolicy",
    "newsUpdatesAndGuidelines", "noBylinesPolicy", "originalMediaLink",
    "paymentUrl", "prescribingInfo", "productReturnLink",
    "publicTransportClosuresInfo", "publishingPrinciples", "quarantineGuidelines",
    "relatedLink", "replyToUrl", "sameAs", "schoolClosuresInfo", "screenshot",
    "sdLicense", "season", "serviceUrl", "shippingSettingsLink",
    "significantLink", "significantLinks", "speakable", "target", "targetUrl",
    "thumbnailUrl", "tourBookingPage", "trackingUrl", "travelBans",
    "unnamedSourcesPolicy", "url", "usageInfo", "verificationFactCheckingPolicy",
    "webFeed",
])

_WINDOWS_PATH = re.compile(r"^[a-zA-Z]:\\")
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z\d+\-.]*:")
_META_REFRESH = re.compile(r"^\s*\d+\s*;\s*url\s*=\s*(.+)", re.IGNORECASE)
_CSS_COMMENT = re.compile(r"/\*[\s\S]*?\*/")
_CSS_IMPORT = re.compile(
    r"@import\s+(?:url\(\s*['\"]?([^'\")]+)['\"]?\s*\)|['\"]([^'\"]+)['\"])",
    re.IGNORECASE,
)
_CSS_URL = re.compile(r"url\(\s*['\"]?([^'\")]+)['\"]?\s*\)", re.IGNORECASE)

DEFAULT_PORTS = {"http": "80", "https": "443", "ws": "80", "wss": "443", "ftp": "21"}


def is_absolute_url(url: str) -> bool:
    """RFC-3986 scheme test, excluding Windows drive paths (links.ts:193-202)."""
    if _WINDOWS_PATH.match(url):
        return False
    return bool(_SCHEME.match(url))


def _resolve_dots(path: str) -> str:
    """WHATWG-style dot-segment removal, preserving a trailing slash."""
    if not path:
        return path
    normalized = posixpath.normpath(path)
    if path.endswith(("/", "/.", "/..")) and not normalized.endswith("/"):
        normalized += "/"
    if normalized == ".":
        normalized = "/"
    return normalized


def normalize_url(url: str, *, keep_fragment: bool = False) -> str:
    """Normalize an absolute URL the way WHATWG ``new URL(...).href`` does:
    lowercase scheme+host, strip default port, resolve dot segments,
    '/' for an empty http(s) path, %20 for spaces. Deterministic dedup key."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    netloc = parts.netloc
    host = parts.hostname
    if host is not None:
        userinfo = ""
        if parts.username:
            userinfo = parts.username
            if parts.password:
                userinfo += f":{parts.password}"
            userinfo += "@"
        port = ""
        if parts.port is not None and str(parts.port) != DEFAULT_PORTS.get(scheme):
            port = f":{parts.port}"
        netloc = f"{userinfo}{host.lower()}{port}"
    path = _resolve_dots(parts.path)
    if scheme in ("http", "https", "ws", "wss", "ftp") and not path:
        path = "/"
    # WHATWG percent-encodes spaces and control chars in the path
    path = quote(path, safe="/:@!$&'()*+,;=~%[]-._")
    fragment = parts.fragment if keep_fragment else ""
    return urlunsplit((scheme, netloc, path, parts.query, fragment))


class ParsedLink:
    """Result of parse_link — mirrors ParsedUrl (links.ts:43-49)."""

    __slots__ = ("link", "url", "url_with_fragment", "fragment", "error")

    def __init__(self, link, url=None, url_with_fragment=None, fragment=None, error=None):
        self.link = link
        self.url = url  # resolved, normalized, fragment stripped
        self.url_with_fragment = url_with_fragment
        self.fragment = fragment  # decoded, no leading '#'
        self.error = error


# fast-path guards: strings made ONLY of characters that normalize_url
# preserves verbatim, with no dot segments / query / port / userinfo —
# anything else falls through to the full resolver
_SAFE_PATH = re.compile(r"^[A-Za-z0-9/:@!$&'()*+,;=~%\[\]\-._]*$")
_SIMPLE_HOST = re.compile(r"^[a-z0-9\-.]+$")


def _path_is_plain(path: str) -> bool:
    if not _SAFE_PATH.match(path):
        return False
    if "//" in path:
        return False
    for seg in ("/../", "/./"):
        if seg in path:
            return False
    return not (path.startswith(("../", "./")) or path.endswith(("/..", "/."))
                or path in ("..", "."))


def _fast_resolve(head: str, base: str) -> str | None:
    """Resolve+normalize without urllib for the overwhelmingly common
    shapes (plain absolute http(s), root-relative, relative path).
    Returns None when unsure — the slow path is the semantic oracle
    (property-tested equal in tests/test_urlkit.py)."""
    if "?" in head or "?" in base:
        return None
    if head.startswith(("http://", "https://")):
        sep = head.index("://") + 3
        slash = head.find("/", sep)
        host = head[sep:] if slash < 0 else head[sep:slash]
        if not _SIMPLE_HOST.match(host):
            return None
        if slash < 0:
            return head + "/"
        path = head[slash:]
        return head if _path_is_plain(path) else None
    if not base.startswith(("http://", "https://")):
        return None
    bsep = base.index("://") + 3
    bslash = base.find("/", bsep)
    if bslash < 0 or not _SIMPLE_HOST.match(base[bsep:bslash]):
        return None
    if head.startswith("/"):
        return base[:bslash] + head if _path_is_plain(head) else None
    if not head or ":" in head or not _path_is_plain(head) or "#" in base:
        return None
    last = base.rfind("/")
    return base[:last + 1] + head


def parse_link(link: str, base_url: str) -> ParsedLink:
    """Resolve ``link`` against ``base_url`` and normalize (links.ts:220-232).

    Failure (no usable scheme/host after resolution, malformed syntax)
    yields ``error`` — the caller reports BROKEN with status 0
    (src/index.ts:717-730).
    """
    # fast path (no urllib) for plain shapes — ~10× the slow resolver
    hash_pos = link.find("#")
    head = link if hash_pos < 0 else link[:hash_pos]
    frag_raw = None if hash_pos < 0 else link[hash_pos + 1:]
    if head and "#" not in head:
        resolved = _fast_resolve(head, base_url)
        if resolved is not None:
            fragment = unquote(frag_raw) if frag_raw else None
            with_fragment = resolved + (f"#{frag_raw}" if frag_raw else "")
            return ParsedLink(link, resolved, with_fragment, fragment)
    try:
        resolved = urljoin(base_url, link) if base_url else link
        parts = urlsplit(resolved)
        if not parts.scheme:
            raise ValueError(f"no scheme in {resolved!r}")
        if parts.scheme in ("http", "https") and not parts.hostname:
            raise ValueError(f"no host in {resolved!r}")
        with_fragment = normalize_url(resolved, keep_fragment=True)
        fragment = unquote(parts.fragment) if parts.fragment else None
        no_fragment = normalize_url(resolved, keep_fragment=False)
        return ParsedLink(link, no_fragment, with_fragment, fragment)
    except ValueError as exc:
        return ParsedLink(link, error=str(exc))


def get_base_url(html_base_href: str, doc_url: str) -> str:
    """<base href> resolution: absolute wins, else resolve against the doc
    URL; fragment stripped (links.ts:183-191). First <base> wins — enforced
    by the caller."""
    if is_absolute_url(html_base_href):
        return html_base_href
    resolved = urljoin(doc_url, html_base_href)
    return normalize_url(resolved, keep_fragment=False)


def host_of(url: str) -> str:
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


def host_of_normalized(url: str) -> str:
    """Fast host extraction for URLs already normalized by
    :func:`normalize_url` (lowercase host, no userinfo/port surprises).
    ~10× cheaper than urlsplit — used in the crawl driver's hot loop."""
    sep = url.find("://")
    if sep < 0:
        return ""
    start = sep + 3
    end = len(url)
    for ch in ("/", "?", "#"):
        pos = url.find(ch, start)
        if pos >= 0 and pos < end:
            end = pos
    host = url[start:end]
    at = host.rfind("@")
    if at >= 0:
        host = host[at + 1:]
    colon = host.rfind(":")
    if colon >= 0 and host.find("]") < colon:
        host = host[:colon]
    return host.strip("[]")


def parse_meta_refresh(content: str) -> str | None:
    """'0;url=X' / '5; URL = X' → X (links.ts:57-65)."""
    match = _META_REFRESH.match(content)
    return match.group(1).strip() if match else None


def parse_srcset(value: str) -> list[str]:
    """Split a srcset attribute into candidate URLs (links.ts:204-218).

    HTML srcset grammar: comma-separated candidates, each
    ``url [descriptor]``; runs of whitespace collapse (the reference works
    around a library bug the same way at links.ts:210).
    """
    urls = []
    for candidate in value.split(","):
        candidate = candidate.strip()
        if not candidate:
            continue
        url = candidate.split()[0]
        if url:
            urls.append(url)
    return urls


def extract_urls_from_css(css: str) -> list[str]:
    """@import + url() extraction, comments stripped, data: skipped
    (links.ts:272-307). Note the reference extracts ``@import url(x)``
    twice (both regexes match) — reproduced for parity; the seen-set
    dedups downstream."""
    clean = _CSS_COMMENT.sub("", css)
    urls: list[str] = []
    for match in _CSS_IMPORT.finditer(clean):
        url = match.group(1) or match.group(2)
        if url:
            urls.append(url.strip())
    for match in _CSS_URL.finditer(clean):
        url = match.group(1)
        if url and not url.startswith("data:"):
            urls.append(url.strip())
    return urls


def _looks_like_url(value: str) -> bool:
    """Stand-in for JS ``new URL(value)`` validation: absolute with scheme."""
    if not is_absolute_url(value):
        return False
    try:
        parts = urlsplit(value)
    except ValueError:
        return False
    return bool(parts.scheme)


def extract_links_from_json(node, parent_key: str | None = None) -> list[str]:
    """JSON-LD walk collecting string values under known schema.org URL
    fields (links.ts:315-353); array items inherit the parent key."""
    links: list[str] = []
    if not isinstance(node, (dict, list)):
        if isinstance(node, str) and parent_key in SCHEMA_ORG_URL_FIELDS and _looks_like_url(node):
            links.append(node)
        return links
    if isinstance(node, list):
        for item in node:
            links.extend(extract_links_from_json(item, parent_key))
        return links
    for key, value in node.items():
        if isinstance(value, str) and key in SCHEMA_ORG_URL_FIELDS:
            if _looks_like_url(value):
                links.append(value)
        elif isinstance(value, list):
            for item in value:
                links.extend(extract_links_from_json(item, key))
        elif isinstance(value, dict):
            links.extend(extract_links_from_json(value, key))
    return links


def extract_links_from_jsonld_text(text: str) -> list[str]:
    """Parse a JSON-LD <script> body; parse errors ignored (links.ts:162-174)."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return []
    return extract_links_from_json(payload)


# ---------------------------------------------------------------------------
# hashing (stable across processes — the partitioning / dedup key)
# ---------------------------------------------------------------------------

_FNV_BASIS = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def hash64(text: str) -> int:
    """Stable 64-bit FNV-1a; the cuckoo-filter & shard key. One
    implementation shared with the vectorized forms — every dedup /
    routing structure uses the same function."""
    h = int(_FNV_BASIS)
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def hash64_array(values) -> np.ndarray:
    """Stable hash over a sequence of strings → uint64 (FNV-1a)."""
    import pyarrow as pa
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        return hash64_arrow(values)
    return hash64_arrow(pa.array(list(values), pa.string()))


# rows up to which hash64_arrow hashes string by string (break-even
# with the vectorized passes is ~64 URL-length strings)
_SCALAR_HASH_ROWS = 48


def hash64_arrow(col) -> np.ndarray:
    """Vectorized FNV-1a over an Arrow string column — operates on the
    flat UTF-8 buffer directly (one numpy pass per character position,
    shrinking active set), no per-row Python."""
    import pyarrow as pa
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if col.null_count:
        col = col.fill_null("")
    if n <= _SCALAR_HASH_ROWS:
        # a handful of rows: the per-character numpy passes below cost
        # more than the scalar loop
        return np.fromiter((hash64(s) for s in col.to_pylist()),
                           dtype=np.uint64, count=n)
    if pa.types.is_large_string(col.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype,
                            count=n + 1 + col.offset)[col.offset:]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.empty(0, dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    out = np.full(n, _FNV_BASIS, dtype=np.uint64)
    max_len = int(lengths.max()) if n else 0
    active = np.arange(n, dtype=np.int64)
    with np.errstate(over="ignore"):
        for j in range(max_len):
            keep = lengths[active] > j
            active = active[keep]
            if len(active) == 0:
                break
            chars = data[starts[active] + j].astype(np.uint64)
            out[active] = (out[active] ^ chars) * _FNV_PRIME
    return out


# lower-case host, optional port, then path/query/fragment (RE2)
_RE_URL_PARTS = (r"^(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<host>[a-z0-9.-]+)"
                 r"(?P<port>:[0-9]*)?(?P<rest>[/?#].*)?$")


def split_url_arrow(col):
    """Vectorized split of absolute URLs with a plain lower-case host
    into ``(matched, host, port, rest)``: a numpy mask of the rows the
    pattern took, and Arrow string columns (``''`` where a part is
    absent or the row missed). Rows it misses (userinfo, IPv6, upper
    case, odd characters) are left to the scalar helpers."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parts = pc.extract_regex(col, _RE_URL_PARTS)
    matched = pc.is_valid(parts).to_numpy(zero_copy_only=False)
    return (matched,) + tuple(
        pc.fill_null(pc.struct_field(parts, name), "")
        for name in ("host", "port", "rest"))


# ---------------------------------------------------------------------------
# vectorized batch resolution (the map_batches hot kernel)
# ---------------------------------------------------------------------------

# RE2 char class of characters normalize_url preserves verbatim ('-' last)
_FULLC = r"[A-Za-z0-9/:@!$&'()*+,;=~%._\[\]-]"
_RE_DOTSEG = r"(^|/)\.\.?(/|$)"
_RE_ABS_BARE = r"^https?://[a-z0-9.-]+$"
_RE_ABS_PATH = rf"^https?://[a-z0-9.-]+/{_FULLC}*$"
_RE_DSLASH_AFTER_SCHEME = r"://.*//"
_RE_ROOTREL = rf"^/{_FULLC}*$"
_RE_REL = rf"^{_FULLC}+$"
# scheme://host[:port] up to the end of the authority: bases with
# userinfo, an IPv6 literal, upper case or a 0-led / out-of-range port
# miss, and a default port (normalize_url drops it) is nulled below
_RE_BASE_ORIGIN = (r"^(?P<origin>https?://[a-z0-9.-]+"
                   r"(?::(?:[1-9][0-9]{0,3}|[1-5][0-9]{4}))?)(?:[/?#]|$)")
_RE_DEFAULT_PORT = r"^(?:http://.*:80|https://.*:443)$"
_RE_BASE_DIR = r"^(?P<dir>https?://[a-z0-9.-]+/(?:[^?#]*/)?)"


def resolve_links_arrow(raw, base, resolver: "LinkResolver | None" = None):
    """Batch resolve+normalize: the vectorized counterpart of
    :func:`parse_link` for whole Arrow columns.

    The three plain shapes :func:`_fast_resolve` recognizes (absolute
    http(s), root-relative, relative path — no fragment/query/dot
    segments) are classified with RE2 kernels and assembled with Arrow
    string concatenation; every other row falls back to the scalar
    resolver. Tested equal to parse_link row for row, over bases with
    ports, userinfo, upper case, queries and IPv6, in
    tests/test_urlkit.py::TestResolveLinksArrow.

    Returns a dict of four Arrow arrays:
    ``url, url_with_fragment, fragment, parse_error`` ('' = none), each
    aligned with ``raw``/``base``.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(raw, pa.ChunkedArray):
        raw = raw.combine_chunks()
    if isinstance(base, pa.ChunkedArray):
        base = base.combine_chunks()
    n = len(raw)
    empty_str = pa.nulls(n, pa.string())
    if n == 0:
        e = pa.array([], pa.string())
        return {"url": e, "url_with_fragment": e, "fragment": e, "parse_error": e}

    bad_dots = pc.match_substring_regex(raw, _RE_DOTSEG)
    slash = pa.scalar("/")

    # class A: plain absolute http(s)
    abs_bare = pc.match_substring_regex(raw, _RE_ABS_BARE)
    abs_path = pc.and_(
        pc.and_(pc.match_substring_regex(raw, _RE_ABS_PATH),
                pc.invert(pc.match_substring_regex(raw, _RE_DSLASH_AFTER_SCHEME))),
        pc.invert(bad_dots))
    cls_a = pc.or_(abs_bare, abs_path)
    url_a = pc.if_else(abs_bare,
                       pc.binary_join_element_wise(raw, slash, ""), raw)

    # base-derived prefixes (null when the base shape is not plain),
    # worked out once per distinct base: a batch's links share few bases
    bases = pc.dictionary_encode(base)
    uniq, base_pos = bases.dictionary, bases.indices
    origin = pc.struct_field(pc.extract_regex(uniq, _RE_BASE_ORIGIN), "origin")
    origin = pc.if_else(pc.match_substring_regex(origin, _RE_DEFAULT_PORT),
                        pa.scalar(None, pa.string()), origin).take(base_pos)
    base_dir = pc.struct_field(pc.extract_regex(uniq, _RE_BASE_DIR), "dir") \
        .take(base_pos)
    base_clean = pc.invert(pc.match_substring_regex(uniq, r"[?#]")) \
        .take(base_pos)

    # class B: root-relative plain path
    cls_b = pc.and_(
        pc.and_(pc.and_(pc.match_substring_regex(raw, _RE_ROOTREL),
                        pc.invert(pc.match_substring_regex(raw, "//"))),
                pc.invert(bad_dots)),
        pc.is_valid(origin))
    url_b = pc.binary_join_element_wise(
        pc.if_else(pc.is_valid(origin), origin, pa.scalar("")), raw, "")

    # class C: relative plain path (no scheme, no leading '/')
    cls_c = pc.and_(
        pc.and_(
            pc.and_(pc.and_(pc.match_substring_regex(raw, _RE_REL),
                            pc.invert(pc.match_substring(raw, ":"))),
                    pc.and_(pc.invert(pc.starts_with(raw, "/")),
                            pc.invert(bad_dots))),
            pc.invert(pc.match_substring(raw, "//"))),
        pc.and_(pc.is_valid(base_dir), base_clean))
    url_c = pc.binary_join_element_wise(
        pc.if_else(pc.is_valid(base_dir), base_dir, pa.scalar("")), raw, "")

    # the three classes are disjoint (scheme / leading '/' / neither);
    # null raws classify slow
    fast = pc.fill_null(pc.or_(pc.or_(cls_a, cls_b), cls_c), False)
    url = pc.if_else(cls_a, url_a,
                     pc.if_else(cls_b, url_b,
                                pc.if_else(cls_c, url_c, empty_str)))

    slow_mask = pc.invert(fast)
    n_slow = pc.sum(slow_mask).as_py() or 0
    if n_slow:
        idx = pc.indices_nonzero(slow_mask)
        raw_slow = raw.take(idx).to_pylist()
        base_slow = base.take(idx).to_pylist()
        resolve = (resolver or _DEFAULT_RESOLVER).resolve
        s_url, s_wfrag, s_frag, s_err = [], [], [], []
        for link, b in zip(raw_slow, base_slow):
            parsed = resolve(link if link is not None else "", b or "")
            s_url.append(parsed.url or "")
            s_wfrag.append(parsed.url_with_fragment or "")
            s_frag.append(parsed.fragment or "")
            s_err.append(parsed.error or "")
        url = pc.replace_with_mask(url, slow_mask, pa.array(s_url, pa.string()))
        wfrag = pc.replace_with_mask(url, slow_mask,
                                     pa.array(s_wfrag, pa.string()))
        frag = pc.replace_with_mask(
            pa.array([""] * n, pa.string()), slow_mask,
            pa.array(s_frag, pa.string()))
        err = pc.replace_with_mask(
            pa.array([""] * n, pa.string()), slow_mask,
            pa.array(s_err, pa.string()))
    else:
        wfrag = url
        frag = pa.array([""] * n, pa.string())
        err = pa.array([""] * n, pa.string())
    return {"url": url, "url_with_fragment": wfrag, "fragment": frag,
            "parse_error": err}


class LinkResolver:
    """Batch link resolver with a per-(base) memo — called inside
    ``map_batches``; the memo amortizes urljoin/normalize across the many
    links a single document (single base) yields."""

    def __init__(self):
        self._memo: dict[tuple[str, str], ParsedLink] = {}

    def resolve(self, link: str, base: str) -> ParsedLink:
        key = (link, base)
        hit = self._memo.get(key)
        if hit is None:
            hit = parse_link(link, base)
            if len(self._memo) > 1_000_000:
                self._memo.clear()
            self._memo[key] = hit
        return hit


_DEFAULT_RESOLVER = LinkResolver()
