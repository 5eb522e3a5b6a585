"""Sharded URL-seen set — the engine's global dedup structure.

The reference keeps one in-heap ``Set<string>`` consulted before every
enqueue (/root/reference/src/index.ts:261, :813-817). Here the set is
sharded by ``url_hash % K`` over the K mesh nodes (state/mesh.py): each
node is the ``SeenShard`` of its own range, consulted with one batched
``contains_or_insert`` per routed candidate batch, and a Ray-free check's
one in-process node holds the whole set. A shard is either an exact set
(test mode, authoritative) or a cuckoo filter (scale mode, ~2 B/key at
10^10 URLs — see state/cuckoo.py).

Checkpointing: the seen set is never dumped. Nodes journal the keys
they insert (state/checkpoint.py ``KeyJournal``), and a resume replays
the journal through ``contains_or_insert``, so a checkpoint restores
into any node count, Ray-free or on Ray.
"""

from __future__ import annotations

import numpy as np

from linkinator_ray.state.cuckoo import CuckooFilter

# keys a shard's cuckoo filter is sized for (exact shards grow as needed)
SEEN_CAPACITY = 1 << 20


class SeenShard:
    """One shard. ``mode`` = 'exact' | 'cuckoo'.

    Exact mode keeps a sorted uint64 key array: batched membership is a
    vectorized searchsorted (no per-key Python), inserts are a sorted
    merge — O(n log n) per batch but C-speed throughout.
    """

    def __init__(self, shard_id: int = 0, mode: str = "exact",
                 capacity: int = SEEN_CAPACITY):
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
