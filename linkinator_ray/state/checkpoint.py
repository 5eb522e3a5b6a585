"""Per-round checkpoint / resume with lineage (north_rule requirement).

The reference has no crash recovery — a killed run loses everything
(SURVEY.md §4). Here every executor writes one checkpoint format: the
rounds executors after every BFS round, the mesh at every epoch
snapshot. A checkpoint holds the frontier, pending fragments, duplicate
edges, results-so-far, counters, the key journal and a lineage
manifest ``{run_id, round, parent_round, row_counts, wall_clock}``.
Writes go to a temp dir that is renamed into place, so a
partially-written round is never picked up; resume loads the newest
complete round and re-enters the loop.

Layout (one dir per round or mesh epoch):

    {checkpoint_dir}/round_{k:06d}/
        manifest.json
        frontier.parquet  pending_fragments.parquet  dup_edges.parquet
        results.parquet   broken_first.parquet       delay_map.parquet
        url_keys.parquet  edge_keys.parquet          seq_counters.parquet

``seq_counters`` holds the mock transport's scripted-sequence counters
(the mesh's merged by max), so a resumed check answers each scripted
URL from where the run stopped, not from ``seq`` 0.

Seen state is checkpointed as keys, never as filter geometry: round k's
``url_keys`` holds the u64 URL keys inserted into the seen set since
round k - 1, and ``edge_keys`` the edge keys, each with its routing
``url_hash`` (an edge lives on its child URL's hash owner). The
journals of rounds f..k together are every key seen by round k, so a
resume rebuilds exact sets and cuckoo filters alike under any shard or
node count. The chain starts at f = 1, or, for a run resumed from
another directory, at its first round here, whose journal also holds
every key it replayed (the manifest's ``journal_from``).

An edge key is ``urlkit.edge_key(url_hash, parent_hash)``, mixed from
the two URL hashes; every manifest names that scheme
(``extra.edge_key``), and the journal of a round that names another one
(or none: an earlier version keyed edges by ``hash64(url|parent)``) is
refused rather than restored into edge sets it no longer matches.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from linkinator_ray import urlkit


def _write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path)
    # durability: the atomic-rename protocol only guarantees "a
    # partially-written round is never picked up" if the data blocks
    # reach disk BEFORE the rename is journaled — fsync each file, then
    # the directories (save_round), or a power loss can leave a renamed
    # round dir holding truncated files that resume would trust
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_round(checkpoint_dir: str, run_id: str, round_no: int,
               tables: dict[str, pa.Table], counters: dict,
               extra: dict | None = None) -> str:
    final_dir = os.path.join(checkpoint_dir, f"round_{round_no:06d}")
    tmp_dir = final_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)
    row_counts = {}
    for name, table in tables.items():
        _write(table, os.path.join(tmp_dir, f"{name}.parquet"))
        row_counts[name] = table.num_rows
    manifest = {
        "run_id": run_id,
        "round": round_no,
        "parent_round": round_no - 1,
        "row_counts": row_counts,
        "wall_clock": time.time(),
        "counters": counters,
        "extra": {**(extra or {}), "edge_key": urlkit.EDGE_KEY_SCHEME},
    }
    with open(os.path.join(tmp_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    _fsync_dir(tmp_dir)
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)
    _fsync_dir(checkpoint_dir)  # persist the rename itself
    return final_dir


def latest_round(checkpoint_dir: str) -> int | None:
    if not os.path.isdir(checkpoint_dir):
        return None
    rounds = []
    for name in os.listdir(checkpoint_dir):
        if name.startswith("round_") and not name.endswith(".tmp"):
            try:
                rounds.append(int(name.split("_")[1]))
            except ValueError:
                continue
    # validate candidates newest-first and return the first whose
    # manifest parses (a corrupt manifest — pre-fsync crash — is not a
    # round); a long run accumulates thousands of epoch dirs, so only
    # the winning candidate's manifest is opened, not every one
    for r in sorted(rounds, reverse=True):
        manifest = os.path.join(checkpoint_dir, f"round_{r:06d}",
                                "manifest.json")
        try:
            with open(manifest) as f:
                json.load(f)
        except (OSError, ValueError):
            continue
        return r
    return None


def load_round(checkpoint_dir: str, round_no: int):
    round_dir = os.path.join(checkpoint_dir, f"round_{round_no:06d}")
    with open(os.path.join(round_dir, "manifest.json")) as f:
        manifest = json.load(f)
    tables = {}
    for name in manifest["row_counts"]:
        tables[name] = pq.read_table(os.path.join(round_dir, f"{name}.parquet"))
    return manifest, tables


def pending_table(pending: dict[str, set]) -> pa.Table:
    """Pending fragment wants ``{target_url: {fragment}}`` as rows."""
    return pa.table({
        "target_url": pa.array(
            [u for u, fs in pending.items() for _ in fs], pa.string()),
        "fragment": pa.array(
            [f for fs in pending.values() for f in fs], pa.string()),
    })


def seq_counter_table(counters: dict) -> pa.Table:
    """The mock transport's scripted-sequence counters ``{(url, method):
    count}`` as rows."""
    return pa.table({
        "url": pa.array([u for u, _ in counters], pa.string()),
        "method": pa.array([m for _, m in counters], pa.string()),
        "count": pa.array(list(counters.values()), pa.int64()),
    })


def seq_counters_of(table: pa.Table) -> dict:
    return {(u, m): c for u, m, c in zip(table["url"].to_pylist(),
                                         table["method"].to_pylist(),
                                         table["count"].to_pylist())}


# -- the key journal ---------------------------------------------------------

_NO_KEYS = np.empty(0, dtype=np.uint64)


class KeyJournal:
    """Keys inserted into the seen sets since the last checkpoint: URL
    keys, and edge keys each with its routing ``url_hash``. RAM holds
    one round's new keys; ``drain`` hands them to the next checkpoint.
    Off (every add is a no-op) in runs that write no checkpoints."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._urls: list[np.ndarray] = []
        self._edges: list[np.ndarray] = []
        self._routes: list[np.ndarray] = []

    def add_urls(self, keys: np.ndarray) -> None:
        if self.enabled and len(keys):
            self._urls.append(np.asarray(keys, dtype=np.uint64))

    def add_edges(self, keys: np.ndarray, routes: np.ndarray) -> None:
        if self.enabled and len(keys):
            self._edges.append(np.asarray(keys, dtype=np.uint64))
            self._routes.append(np.asarray(routes, dtype=np.uint64))

    def add_candidates(self, cand: pa.Table, edge_fresh: np.ndarray,
                       keep: np.ndarray) -> None:
        """What ``dedup_candidates`` inserted: the edge keys of the
        edge-fresh rows and the URL keys of the kept rows."""
        if not self.enabled:
            return
        url_hash = cand["url_hash"].to_numpy(zero_copy_only=False)
        if edge_fresh.any():
            self.add_edges(cand["edge_hash"].to_numpy(
                zero_copy_only=False)[edge_fresh], url_hash[edge_fresh])
        if keep.any():
            self.add_urls(url_hash[keep])

    def drain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(url_keys, edge_keys, edge_routes)`` since the last drain."""
        out = tuple(np.concatenate(parts) if parts else _NO_KEYS
                    for parts in (self._urls, self._edges, self._routes))
        self._urls, self._edges, self._routes = [], [], []
        return out


def journal_tables(url_keys: np.ndarray, edge_keys: np.ndarray,
                   edge_routes: np.ndarray) -> dict[str, pa.Table]:
    """A round's journal as checkpoint tables: one binary-blob row per
    u64 array, not one row per key."""
    def blob(keys):
        return pa.array([np.asarray(keys, dtype=np.uint64).tobytes()],
                        pa.binary())
    return {"url_keys": pa.table({"data": blob(url_keys)}),
            "edge_keys": pa.table({"data": blob(edge_keys),
                                   "routes": blob(edge_routes)})}


def load_key_journal(checkpoint_dir: str, last: int, first: int = 1):
    """Union of the key journals of rounds first..last: ``(url_keys,
    edge_keys, edge_routes)`` u64 arrays. Each round holds only its own
    new keys, so this is one sequential pass over 8 B per key. Raises
    ``ValueError`` when a round is missing, carries no journal, or keys
    its edges by another scheme than ``urlkit.edge_key`` (checkpoints
    from earlier versions): its seen state is unknown, and a resume
    with edge keys that no longer match would report every re-found
    edge as fresh."""
    urls, ekeys, eroutes = [], [], []

    def keys(table, column):
        return np.frombuffer(table[column][0].as_py() or b"",
                             dtype=np.uint64)
    for r in range(first, last + 1):
        round_dir = os.path.join(checkpoint_dir, f"round_{r:06d}")
        try:
            with open(os.path.join(round_dir, "manifest.json")) as f:
                manifest = json.load(f)
        except OSError:
            raise ValueError(
                f"checkpoint {checkpoint_dir}: round {r} is missing; the "
                f"key journal needs every round {first}..{last}") from None
        if "url_keys" not in manifest["row_counts"]:
            raise ValueError(
                f"checkpoint {checkpoint_dir}: round {r} has no key "
                "journal (written by an earlier version); its seen state "
                "cannot be restored")
        scheme = manifest.get("extra", {}).get("edge_key")
        if scheme != urlkit.EDGE_KEY_SCHEME:
            raise ValueError(
                f"checkpoint {checkpoint_dir}: round {r} keys its edges by "
                f"{scheme or 'hash64(url|parent) (an earlier version)'}, "
                f"not {urlkit.EDGE_KEY_SCHEME}; its edge journal cannot be "
                "restored")
        t = pq.read_table(os.path.join(round_dir, "url_keys.parquet"))
        urls.append(keys(t, "data"))
        t = pq.read_table(os.path.join(round_dir, "edge_keys.parquet"))
        ekeys.append(keys(t, "data"))
        eroutes.append(keys(t, "routes"))
    return tuple(np.concatenate(parts) if parts else _NO_KEYS
                 for parts in (urls, ekeys, eroutes))
