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
# with the vectorized passes is ~20 strings of ~22 characters on a
# 4-CPU x86 box: ~95 µs either way at 20-24 rows)
_SCALAR_HASH_ROWS = 20
# leading bytes of each row hash64_arrow gathers in one block (longer
# rows take the rest a position at a time)
_HASH_BLOCK = 64
_HASH_CHUNK = 1 << 16


def hash64_arrow(col) -> np.ndarray:
    """Vectorized FNV-1a over an Arrow string column — operates on the
    flat UTF-8 buffer directly, no per-row Python: rows sorted longest
    first, so the rows still hashing at character position j are a
    prefix, and each position is one in-place numpy pass over it."""
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
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    order = np.argsort(-lengths, kind="stable")
    starts = offsets[:-1].astype(np.int64)[order]
    # rows longer than j: a prefix of the sorted rows
    longer = np.searchsorted(-lengths[order],
                             -np.arange(int(lengths.max())), side="left")
    # the first _HASH_BLOCK bytes of each row in one gather up front
    # (rows of a sliding window over the buffer), so a position reads a
    # column of it instead of gathering from the buffer; in chunks of
    # _HASH_CHUNK rows, which bounds the block at 4 MB
    width = min(len(longer), _HASH_BLOCK)
    padded = np.concatenate((data, np.zeros(width, dtype=np.uint8)))
    window = np.lib.stride_tricks.as_strided(
        padded, shape=(len(data) + 1, width), strides=(1, 1))
    acc = np.full(n, _FNV_BASIS, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c0 in range(0, n, _HASH_CHUNK):
            rows = acc[c0:c0 + _HASH_CHUNK]
            chunk_starts = starts[c0:c0 + _HASH_CHUNK]
            block = window[chunk_starts]
            # the chunk's rows longer than j: a prefix of the chunk
            for j, k in enumerate(np.minimum(longer, c0 + len(rows)) - c0):
                if k <= 0:
                    break
                head = rows[:k]
                head ^= block[:k, j] if j < width \
                    else data[chunk_starts[:k] + j]
                head *= _FNV_PRIME
    out = np.empty(n, dtype=np.uint64)
    out[order] = acc
    return out


# splitmix64's finalizer (Steele et al., "Fast splittable pseudorandom
# number generators", OOPSLA 2014): a bijection on u64
_SM_A = np.uint64(0xBF58476D1CE4E5B9)
_SM_B = np.uint64(0x94D049BB133111EB)
_SM_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # in place on one scratch array: each step is one ufunc call
    t = z >> _U30
    t ^= z
    t *= _SM_A
    z = t >> _U27
    z ^= t
    z *= _SM_B
    t = z >> _U31
    t ^= z
    return t


# names edge_key's formula in checkpoint manifests: a journal of edge keys
# made another way cannot seed this version's edge sets
EDGE_KEY_SCHEME = "splitmix64(url_hash ^ splitmix64(parent_hash + golden))"


def edge_key(url_hash, parent_hash) -> np.ndarray:
    """The dedup key of the (url, parent) edge, mixed from the two URL
    hashes (``hash64`` of each URL) instead of hashing the joined
    strings again. ``mix(url_hash ^ mix(parent_hash + golden))``, with
    ``mix`` a bijection, is a bijection in either argument when the
    other is fixed, so two edges that share a URL or a parent never
    share a key. Vectorized over u64 arrays (a pair of ints gives a
    0-d array)."""
    u = np.asarray(url_hash, dtype=np.uint64)
    p = np.asarray(parent_hash, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _splitmix64(u ^ _splitmix64(p + _SM_GOLDEN))


def nonempty(col) -> np.ndarray:
    """Rows of an Arrow string column that hold a non-empty string (a
    null row holds none), read off the offsets buffer: no compute call,
    for the many ``!= ''`` tests of a batch."""
    import pyarrow as pa
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=bool)
    width = 8 if pa.types.is_large_string(col.type) else 4
    offsets = np.frombuffer(col.buffers()[1], dtype=f"<i{width}",
                            count=n + 1, offset=col.offset * width)
    out = offsets[1:] != offsets[:-1]
    if col.null_count:
        out &= col.is_valid().to_numpy(zero_copy_only=False)
    return out


# an absolute URL with a lower-case host, no port and a path with
# nothing to decode or cut ([%?#@:]): the static server reads its host
# and path as they stand (RE2)
_RE_PLAIN_URL = (r"^[a-z][a-z0-9+.-]*://(?P<host>[a-z0-9.-]+)"
                 r"(?P<path>/[^%?#@:]*)?$")


def split_plain_url_arrow(col):
    """Vectorized split of plain absolute URLs (``_RE_PLAIN_URL``) into
    ``(matched, host, path)``: a numpy mask of the rows the pattern
    took, and Arrow string columns (null where a row missed; the path
    is null too when the URL has none). Rows it misses (userinfo, IPv6,
    upper case, a port, escapes, a query) are left to the scalar
    helpers."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parts = pc.extract_regex(col, _RE_PLAIN_URL)
    return (pc.is_valid(parts).to_numpy(zero_copy_only=False),
            pc.struct_field(parts, "host"), pc.struct_field(parts, "path"))


# ---------------------------------------------------------------------------
# vectorized batch resolution (the map_batches hot kernel)
# ---------------------------------------------------------------------------

# RE2 char classes of the path characters normalize_url keeps verbatim,
# less '/' and '.' ('-' last); the second also less ':' (a relative
# link's first segment would read as a scheme)
_SEGC = r"A-Za-z0-9:@!$&'()*+,;=~%_\[\]-"
_SEGC_NO_COLON = r"A-Za-z0-9@!$&'()*+,;=~%_\[\]-"


def _plain_segment(chars: str) -> str:
    """RE2 for one path segment of ``chars`` and '.', other than '.' and
    '..' (dot segments, which normpath would resolve): one with a
    character of ``chars``, or three dots or more. (Compiled on every
    kernel call, so the pattern keeps few character classes.)"""
    return rf"(?:[.{chars}]*[{chars}][.{chars}]*|\.\.\.+)"


# a path of plain segments: no dot segment, no empty segment ('//'),
# an optional trailing '/'
_RE_PLAIN_PATH = rf"(?:/{_plain_segment(_SEGC)})*/?"
# an in-range port without a leading 0 (1-59999), less the scheme's
# default port (normalize_url drops a default port): RE2 has no
# lookahead, so each form spells out the numbers it leaves out
_PORT_NOT_80 = (r"(?:[1-79][0-9]{0,3}|8(?:[1-9][0-9]{0,2}|0[0-9]{1,2})?"
                r"|[1-5][0-9]{4})")
_PORT_NOT_443 = (r"(?:[1-35-9][0-9]{0,3}"
                 r"|4(?:[0-35-9][0-9]{0,2}|4(?:[0-24-9][0-9]?|3[0-9])?)?"
                 r"|[1-5][0-9]{4})")
# a plain origin: http(s), a lower-case host, an optional port that is
# not the default one
_PLAIN_ORIGIN = (rf"(?:http://[a-z0-9.-]+(?::{_PORT_NOT_80})?"
                 rf"|https://[a-z0-9.-]+(?::{_PORT_NOT_443})?)")
# class A: a plain origin and a plain path; the port-less form is a
# quicker compile, and only the rows it misses meet the full one
_RE_CLASS_A_NO_PORT = rf"^https?://[a-z0-9.-]+{_RE_PLAIN_PATH}$"
_RE_CLASS_A = rf"^{_PLAIN_ORIGIN}{_RE_PLAIN_PATH}$"
# class B: a root-relative plain path
_RE_CLASS_B = rf"^{_RE_PLAIN_PATH}$"
# class C: a relative plain path (no scheme, no leading '/')
_SEG_C = _plain_segment(_SEGC_NO_COLON)
_RE_CLASS_C = rf"^{_SEG_C}(?:/{_SEG_C})*/?$"
# a base's origin, when its whole authority (up to the first [/?#]) is
# plain: userinfo, an IPv6 literal, upper case, a 0-led, out-of-range
# or default port miss
_RE_BASE_ORIGIN = rf"^(?P<origin>{_PLAIN_ORIGIN})(?:[/?#]|$)"
_RE_BASE_ORIGIN_NO_PORT = r"^(?P<origin>https?://[a-z0-9.-]+)(?:[/?#]|$)"
# a base's directory: a plain host with no port, up to the last '/',
# when the base has no query or fragment
_RE_BASE_DIR = r"^(?P<dir>https?://[a-z0-9.-]+/(?:[^?#]*/)?)[^?#]*$"


def take_rows(arr, idx: np.ndarray):
    """``arr`` at positions ``idx`` (no copy when ``idx`` is every row)."""
    import pyarrow as pa
    return arr if len(idx) == len(arr) else arr.take(pa.array(idx))


def _keep_rows(arr, keep: np.ndarray):
    """``arr`` at the rows of mask ``keep`` (no copy when it keeps all)."""
    import pyarrow as pa
    return arr if keep.all() else arr.filter(pa.array(keep))


def _base_prefix(base, idx: np.ndarray, prefix):
    """``prefix(distinct bases)`` (an Arrow string column, null where the
    base shape is not plain) taken back to the rows ``idx``: the links
    of a batch share few bases, so each is worked out once."""
    import pyarrow.compute as pc
    bases = pc.dictionary_encode(take_rows(base, idx))
    return prefix(bases.dictionary).take(bases.indices)


def _origin(uniq):
    import pyarrow as pa
    import pyarrow.compute as pc
    origin = pc.struct_field(pc.extract_regex(uniq, _RE_BASE_ORIGIN_NO_PORT),
                             "origin")
    if origin.null_count:
        # a port, or no plain origin at all: the full pattern
        miss = pc.is_null(origin)
        origin = pc.replace_with_mask(origin, miss, pc.struct_field(
            pc.extract_regex(uniq.filter(miss), _RE_BASE_ORIGIN), "origin"))
    return origin


def _base_dir(uniq):
    import pyarrow.compute as pc
    return pc.struct_field(pc.extract_regex(uniq, _RE_BASE_DIR), "dir")


def resolve_links_arrow(raw, base, resolver: "LinkResolver | None" = None):
    """Batch resolve+normalize: the vectorized counterpart of
    :func:`parse_link` for whole Arrow columns.

    The fragment is split off first. Rows are then routed by the shape
    of what precedes it (``http(s)://``, ``/``, anything else), and each
    route runs only its own class's RE2 pattern and one string join:
    A, a plain absolute http(s) URL, non-default port allowed; B, a
    plain root-relative path; C, a plain relative path (no query, no
    dot or empty segment, the characters normalize_url keeps). A route
    with no rows runs nothing. Every other row goes to the scalar
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
    if n == 0:
        e = pa.array([], pa.string())
        return {"url": e, "url_with_fragment": e, "fragment": e, "parse_error": e}
    # a null link or base reads as '' (as the scalar resolver takes it),
    # so no kernel below meets a null
    if raw.null_count:
        raw = raw.fill_null("")
    if base.null_count:
        base = base.fill_null("")

    def mask(arr) -> np.ndarray:
        return arr.to_numpy(zero_copy_only=False)

    # the fragment: everything after the first '#'. A fragment with a
    # tab or newline stays scalar (urlsplit would drop those characters)
    head, frag_raw = raw, None
    slow = np.zeros(n, dtype=bool)
    hashed = mask(pc.match_substring(raw, "#"))
    if hashed.any():
        parts = pc.split_pattern(raw.filter(pa.array(hashed)), "#",
                                 max_splits=1)
        head = pc.replace_with_mask(raw, pa.array(hashed),
                                    pc.list_element(parts, 0))
        frags = pc.list_element(parts, 1)
        frag_raw = pc.replace_with_mask(pa.nulls(n, pa.string()),
                                        pa.array(hashed), frags)
        slow[hashed] = mask(pc.match_substring_regex(frags, r"[\t\r\n]"))

    # "http" routes a row to class A, whose pattern checks the scheme
    # (a relative path that starts so goes to the scalar resolver)
    is_abs = mask(pc.starts_with(head, "http"))
    is_root = mask(pc.starts_with(head, "/"))
    fast_pos, fast_url = [], []

    idx = np.flatnonzero(is_abs & ~slow)
    if len(idx):
        sub = take_rows(head, idx)
        ok = mask(pc.match_substring_regex(sub, _RE_CLASS_A_NO_PORT))
        if not ok.all():
            ported = np.flatnonzero(~ok)
            ok[ported] = mask(pc.match_substring_regex(
                take_rows(sub, ported), _RE_CLASS_A))
        if ok.any():
            sub = _keep_rows(sub, ok)
            bare = pc.equal(pc.count_substring(sub, "/"), 2)
            fast_pos.append(idx[ok])
            fast_url.append(pc.if_else(
                bare, pc.binary_join_element_wise(sub, "/", ""), sub))

    idx = np.flatnonzero(is_root & ~slow)
    if len(idx):
        sub = take_rows(head, idx)
        ok = mask(pc.match_substring_regex(sub, _RE_CLASS_B))
        if ok.any():
            origin = _base_prefix(base, idx, _origin)
            if origin.null_count:
                ok &= mask(origin.is_valid())
            fast_pos.append(idx[ok])
            fast_url.append(pc.binary_join_element_wise(
                _keep_rows(origin, ok), _keep_rows(sub, ok), ""))

    idx = np.flatnonzero(~is_abs & ~is_root & ~slow)
    if len(idx):
        sub = take_rows(head, idx)
        ok = mask(pc.match_substring_regex(sub, _RE_CLASS_C))
        if ok.any():
            base_dir = _base_prefix(base, idx, _base_dir)
            if base_dir.null_count:
                ok &= mask(base_dir.is_valid())
            fast_pos.append(idx[ok])
            fast_url.append(pc.binary_join_element_wise(
                _keep_rows(base_dir, ok), _keep_rows(sub, ok), ""))

    pos = np.concatenate(fast_pos) if fast_pos \
        else np.empty(0, dtype=np.int64)
    if len(fast_url) == 1:
        url = fast_url[0]
    else:
        url = pa.concat_arrays(fast_url) if fast_url \
            else pa.array([], pa.string())
    wfrag = url
    frag = err = pa.repeat(pa.scalar("", pa.string()), len(pos))
    if frag_raw is not None and len(pos):
        raw_frag = frag_raw.take(pa.array(pos))
        has = nonempty(raw_frag)
        if has.any():
            raw_frag = pc.fill_null(raw_frag, "")
            wfrag = pc.if_else(pa.array(has), pc.binary_join_element_wise(
                url, raw_frag, "#"), url)
            # only a fragment with a percent escape needs decoding
            frag = raw_frag
            esc = mask(pc.match_substring(raw_frag, "%"))
            if esc.any():
                esc = pa.array(esc)
                frag = pc.replace_with_mask(raw_frag, esc, pa.array(
                    [unquote(f) for f in raw_frag.filter(esc).to_pylist()],
                    pa.string()))

    if len(pos) < n:
        rest = np.ones(n, dtype=bool)
        rest[pos] = False
        rest = np.flatnonzero(rest)
        resolve = (resolver or _DEFAULT_RESOLVER).resolve
        cols = ([], [], [], [])
        for link, b in zip(raw.take(pa.array(rest)).to_pylist(),
                           base.take(pa.array(rest)).to_pylist()):
            parsed = resolve(link if link is not None else "", b or "")
            for col, value in zip(cols, (parsed.url, parsed.url_with_fragment,
                                         parsed.fragment, parsed.error)):
                col.append(value or "")
        url, wfrag, frag, err = (
            pa.concat_arrays([fast, pa.array(col, pa.string())])
            for fast, col in zip((url, wfrag, frag, err), cols))
        pos = np.concatenate([pos, rest])
    out = {"url": url, "url_with_fragment": wfrag, "fragment": frag,
           "parse_error": err}
    if len(pos) and not (pos[1:] > pos[:-1]).all():
        # back to row order (row pos[i] is at i), once per distinct array
        order = np.empty(n, dtype=np.int64)
        order[pos] = np.arange(n)
        order = pa.array(order)
        taken = {}
        for key, arr in out.items():
            if id(arr) not in taken:
                taken[id(arr)] = arr.take(order)
            out[key] = taken[id(arr)]
    return out


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
