"""Sharded URL-seen set — the engine's global dedup structure.

The reference keeps one in-heap ``Set<string>`` consulted before every
enqueue (/root/reference/src/index.ts:261, :813-817). Here the set is
sharded by ``url_hash % num_shards``; each shard is either an exact set
(test mode, authoritative) or a cuckoo filter (scale mode, ~2 B/key at
10^10 URLs — see state/cuckoo.py). Shards run as Ray actors in
distributed mode so membership is consistent across fetch rounds, with
the batched ``contains_or_insert`` RPC amortizing round-trips; the local
mode uses the same class in-process.

Checkpointing: each shard dumps to an Arrow-friendly blob per round
(state/checkpoint.py) so a killed run resumes with the exact seen state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from linkinator_ray.state.cuckoo import CuckooFilter


class SeenShard:
    """One shard. ``mode`` = 'exact' | 'cuckoo'.

    Exact mode keeps a sorted uint64 key array: batched membership is a
    vectorized searchsorted (no per-key Python), inserts are a sorted
    merge — O(n log n) per batch but C-speed throughout.
    """

    def __init__(self, shard_id: int = 0, mode: str = "exact",
                 capacity: int = 1 << 20):
        self.shard_id = shard_id
        self.mode = mode
        self._keys = np.empty(0, dtype=np.uint64)  # sorted
        self._filter = CuckooFilter(capacity, seed=0x5EED ^ shard_id) if mode == "cuckoo" else None

    def contains_or_insert(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.asarray(hashes, dtype=np.uint64)
        if self._filter is not None:
            return self._filter.contains_or_insert(hashes)
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        # unique with first-occurrence index (original order)
        uniq, first_idx, inverse = np.unique(hashes, return_index=True,
                                             return_inverse=True)
        pos = np.searchsorted(self._keys, uniq)
        pos = np.minimum(pos, max(len(self._keys) - 1, 0))
        known = (self._keys[pos] == uniq) if len(self._keys) else \
            np.zeros(len(uniq), dtype=bool)
        # a row is 'seen' if its key was known, or it's a within-batch dup
        out = known[inverse]
        is_first = np.zeros(len(hashes), dtype=bool)
        is_first[first_idx] = True
        out |= ~is_first
        fresh = uniq[~known]
        if len(fresh):
            # two sorted runs → O(n) positional insert, not a full re-sort
            pos = np.searchsorted(self._keys, fresh)
            self._keys = np.insert(self._keys, pos, fresh)
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.asarray(hashes, dtype=np.uint64)
        if self._filter is not None:
            return self._filter.contains(hashes)
        if len(self._keys) == 0 or len(hashes) == 0:
            return np.zeros(len(hashes), dtype=bool)
        pos = np.searchsorted(self._keys, hashes)
        pos = np.minimum(pos, len(self._keys) - 1)
        return self._keys[pos] == hashes

    def size(self) -> int:
        if self._filter is not None:
            return self._filter.count
        return len(self._keys)

    # -- checkpoint --------------------------------------------------------

    def dump(self) -> dict:
        if self._filter is not None:
            blob = self._filter.dump()
            blob["mode"] = "cuckoo"
        else:
            blob = {"mode": "exact", "keys": self._keys.copy()}
        blob["shard_id"] = self.shard_id
        return blob

    def restore(self, blob: dict) -> None:
        if blob["mode"] == "cuckoo":
            self.mode = "cuckoo"
            self._filter = CuckooFilter.restore(blob, seed=0x5EED ^ self.shard_id)
        else:
            self.mode = "exact"
            self._filter = None
            keys = np.asarray(blob["keys"], dtype=np.uint64).copy()
            keys.sort()
            self._keys = keys


def seen_blob_to_table(blob: dict) -> pa.Table:
    """Shard dump blob → Arrow checkpoint table (shared by SeenSet and
    the mesh nodes). Exact mode: one uint64 row per key. Cuckoo mode:
    ONE row carrying the slot table as a binary blob — a 4M-slot filter
    serializes as one 8 MB buffer, not 4M tagged rows."""
    if blob["mode"] == "exact":
        return pa.table({
            "kind": pa.array(["exact"] * len(blob["keys"]), pa.string()),
            "value": pa.array(blob["keys"], pa.uint64()),
        })
    table = np.ascontiguousarray(blob["table"], dtype=np.uint16)
    victims = np.ascontiguousarray(blob["victims"], dtype=np.uint64)
    return pa.table({
        "kind": pa.array(["cuckoo"], pa.string()),
        "n_buckets": pa.array([table.shape[0]], pa.int64()),
        "count": pa.array([int(blob.get("count", (table != 0).sum()))],
                          pa.int64()),
        "data": pa.array([table.tobytes()], pa.binary()),
        "victims": pa.array([victims.tobytes()], pa.binary()),
    })


def seen_table_to_blob(tbl: pa.Table) -> dict:
    """Checkpoint table → shard restore blob (inverse of the above;
    also reads the legacy per-slot row format)."""
    if tbl.num_rows == 0:
        return {"mode": "exact", "keys": np.empty(0, dtype=np.uint64)}
    first_kind = tbl["kind"][0].as_py()
    if first_kind == "exact":
        values = np.asarray(tbl["value"].to_numpy(zero_copy_only=False),
                            dtype=np.uint64)
        return {"mode": "exact", "keys": values}
    if first_kind == "cuckoo":  # compact blob row
        n_buckets = int(tbl["n_buckets"][0].as_py())
        data = np.frombuffer(tbl["data"][0].as_py(), dtype=np.uint16) \
            .reshape(n_buckets, 4)
        victims = np.frombuffer(tbl["victims"][0].as_py(), dtype=np.uint64)
        return {"mode": "cuckoo", "table": data.copy(),
                "count": int(tbl["count"][0].as_py()), "victims": victims}
    # legacy: per-slot "slot"/"victim" rows
    kinds = tbl["kind"].to_pylist()
    values = np.asarray(tbl["value"].to_numpy(zero_copy_only=False),
                        dtype=np.uint64)
    n_slots = sum(1 for k in kinds if k == "slot")
    table = values[:n_slots].astype(np.uint16).reshape(-1, 4)
    return {"mode": "cuckoo", "table": table,
            "count": int((table != 0).sum()) + (len(values) - n_slots),
            "victims": values[n_slots:]}


class SeenSet:
    """Driver-side facade over the shard pool.

    In Ray mode the shards are hosted by pooled actors (state/actors.py)
    and ``contains_or_insert`` fans a batch out by ``hash % K`` in ONE
    call per shard (a batched semi-join of the frontier against the seen
    state — SURVEY.md §2.4 J3). Local mode holds plain objects.
    """

    def __init__(self, num_shards: int = 8, mode: str = "exact",
                 use_ray: bool = False, capacity_per_shard: int = 1 << 20):
        self.num_shards = num_shards
        self.mode = mode
        self.use_ray = use_ray
        args = [(i, mode, capacity_per_shard) for i in range(num_shards)]
        self.lease = None
        if use_ray:
            from linkinator_ray.state import actors
            self.lease = actors.Lease(SeenShard, args)
        else:
            self._local_shards = [SeenShard(*a) for a in args]

    @property
    def _shards(self) -> list:
        return self.lease.wait() if self.use_ray else self._local_shards

    def contains_or_insert(self, hashes: np.ndarray) -> np.ndarray:
        """Batched test-and-set across shards; order-preserving."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        shard_of = (hashes % np.uint64(self.num_shards)).astype(np.int64)
        out = np.zeros(len(hashes), dtype=bool)
        if self.use_ray:
            import ray
            futures = {}
            index_of = {}
            for s in range(self.num_shards):
                idx = np.flatnonzero(shard_of == s)
                if len(idx):
                    futures[s] = self._shards[s].contains_or_insert.remote(hashes[idx])
                    index_of[s] = idx
            for s, fut in futures.items():
                out[index_of[s]] = ray.get(fut)
        else:
            for s in range(self.num_shards):
                idx = np.flatnonzero(shard_of == s)
                if len(idx):
                    out[idx] = self._shards[s].contains_or_insert(hashes[idx])
        return out

    def size(self) -> int:
        if self.use_ray:
            import ray
            return sum(ray.get([s.size.remote() for s in self._shards]))
        return sum(s.size() for s in self._shards)

    # -- checkpoint --------------------------------------------------------

    def dump_tables(self) -> list[pa.Table]:
        """One Arrow table per shard (exact mode: the key column; cuckoo:
        the filter table flattened + overflow)."""
        return [seen_blob_to_table(blob) for blob in self._dump_blobs()]

    def _dump_blobs(self) -> list[dict]:
        if self.use_ray:
            import ray
            return ray.get([s.dump.remote() for s in self._shards])
        return [s.dump() for s in self._shards]

    def restore_tables(self, tables: list[pa.Table]) -> None:
        """Restore from checkpoint shard dumps. Blob i maps to shard i
        ONLY when the layouts match — lookups route by ``hash % K``, so
        restoring K' blobs into K != K' shards would silently misroute
        every membership probe. Exact-mode dumps carry raw keys and
        re-shard into any layout; cuckoo dumps are positional
        fingerprint tables and cannot."""
        blobs = [seen_table_to_blob(t) for t in tables]
        if len(blobs) != self.num_shards:
            if all(b["mode"] == "exact" for b in blobs):
                keys = np.concatenate(
                    [np.asarray(b["keys"], dtype=np.uint64) for b in blobs]) \
                    if blobs else np.empty(0, dtype=np.uint64)
                if len(keys):
                    self.contains_or_insert(keys)
                return
            raise ValueError(
                f"seen checkpoint has {len(blobs)} shard(s) but this run "
                f"uses {self.num_shards}; cuckoo shard dumps hold "
                f"positional fingerprints and cannot be re-sharded — "
                f"resume with seen_shards={len(blobs)}")
        if self.use_ray:
            import ray
            ray.get([self._shards[i].restore.remote(blob)
                     for i, blob in enumerate(blobs)])
        else:
            for i, blob in enumerate(blobs):
                self._shards[i].restore(blob)
