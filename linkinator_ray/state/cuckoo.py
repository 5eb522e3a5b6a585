"""Numpy cuckoo filter — the probabilistic URL-seen membership structure.

Replaces the reference's in-heap ``Set<string>`` URL cache
(/root/reference/src/index.ts:261) at 10^10-URL scale: ~2 bytes/key at a
~0.1% false-positive rate (16-bit fingerprints, 4-slot buckets). A false
positive silently skips a URL (it is believed seen); the engine's exact
mode (state/seen.py) is authoritative for conformance tests.

Standard cuckoo-filter construction (Fan et al., "Cuckoo Filter:
Practically Better Than Bloom", CoNEXT 2014): two candidate buckets per
key, i2 = i1 XOR H(fingerprint); eviction random walk on insert; a
victim cache holds the homeless (bucket, fingerprint) pair when the
walk fails, so the filter never has false negatives.
"""

from __future__ import annotations

import numpy as np

_EMPTY = 0  # fingerprints are forced nonzero
_MIX = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


class CuckooFilter:
    """4-way bucketed cuckoo filter over uint64 pre-hashed keys.

    All operations take/return numpy arrays — callers batch. Not
    thread-safe; one filter per seen-set shard actor.
    """

    MAX_KICKS = 500

    def __init__(self, capacity: int, seed: int = 0x5EED):
        # buckets sized to next power of two ≥ capacity/4 (4 slots/bucket)
        n_buckets = 1
        while n_buckets * 4 < capacity:
            n_buckets *= 2
        self.n_buckets = n_buckets
        self.mask = np.uint64(n_buckets - 1)
        self.table = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.default_rng(seed)
        # victim cache: (bucket_index, fingerprint) pairs that lost the
        # eviction walk — checked on every membership probe
        self._victims: set[tuple[int, int]] = set()

    # -- key → (fingerprint, bucket1, bucket2) -----------------------------

    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = ((keys >> np.uint64(48)) ^ (keys >> np.uint64(16))).astype(np.uint16)
        fp = np.where(fp == _EMPTY, np.uint16(1), fp)
        return fp

    def _index1(self, keys: np.ndarray) -> np.ndarray:
        return (keys & self.mask).astype(np.uint64)

    def _index2(self, index1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = fp.astype(np.uint64) * np.uint64(_MIX)
        return (index1 ^ h) & self.mask

    def _alt(self, idx: int, fp: int) -> int:
        return (idx ^ ((fp * _MIX) & _U64)) & int(self.mask)

    def _is_victim(self, i1: int, i2: int, fp: int) -> bool:
        return (i1, fp) in self._victims or (i2, fp) in self._victims

    # -- queries -----------------------------------------------------------

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._index2(i1, fp)
        found = (self.table[i1] == fp[:, None]).any(axis=1)
        found |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self._victims:
            for pos in np.flatnonzero(~found):
                if self._is_victim(int(i1[pos]), int(i2[pos]), int(fp[pos])):
                    found[pos] = True
        return found

    def _insert_one(self, fp: int, i1: int, i2: int) -> None:
        for idx in (i1, i2):
            row = self.table[idx]
            empty = np.flatnonzero(row == _EMPTY)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # evict: random walk; the displaced fingerprint moves to its own
        # alternate bucket, preserving membership
        idx = int(self._rng.choice((i1, i2)))
        cur_fp = fp
        for _ in range(self.MAX_KICKS):
            slot = int(self._rng.integers(4))
            cur_fp, self.table[idx, slot] = int(self.table[idx, slot]), cur_fp
            idx = self._alt(idx, cur_fp)
            row = self.table[idx]
            empty = np.flatnonzero(row == _EMPTY)
            if len(empty):
                row[empty[0]] = cur_fp
                self.count += 1
                return
        # saturated: park the homeless fingerprint in the victim cache
        self._victims.add((idx, cur_fp))
        self.count += 1

    def contains_or_insert(self, keys: np.ndarray) -> np.ndarray:
        """Batched test-and-set: True where the key was already present
        (possibly falsely); absent keys are inserted. Fully vectorized:
        membership is one gather, inserts place whole conflict-free
        bucket groups per numpy pass (the serial eviction walk survives
        only for keys whose both buckets are full).

        Within-batch semantics match the serial loop exactly: a key's
        bucket PAIR is determined by (min(i1,i2), fp) — any later batch
        row with the same pair would have seen the earlier insert, so it
        reports present and does not insert."""
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.zeros(0, dtype=bool)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._index2(i1, fp)
        found = (self.table[i1] == fp[:, None]).any(axis=1)
        found |= (self.table[i2] == fp[:, None]).any(axis=1)
        if self._victims:
            for pos in np.flatnonzero(~found):
                if self._is_victim(int(i1[pos]), int(i2[pos]), int(fp[pos])):
                    found[pos] = True
        combined = (np.minimum(i1, i2) << np.uint64(16)) | fp.astype(np.uint64)
        _, first_idx = np.unique(combined, return_index=True)
        is_first = np.zeros(n, dtype=bool)
        is_first[first_idx] = True
        out = found | ~is_first
        todo = np.flatnonzero(is_first & ~found)
        if len(todo):
            self._bulk_insert(fp[todo], i1[todo], i2[todo])
        return out

    def _bulk_insert(self, fp: np.ndarray, i1: np.ndarray,
                     i2: np.ndarray) -> None:
        """Place a batch of distinct-pair fingerprints: per phase (home
        bucket, then alternate) repeatedly place one key per distinct
        bucket into its first empty slot — each pass is pure numpy.
        Keys whose both buckets are full walk the serial eviction path."""
        pend = np.arange(len(fp), dtype=np.int64)
        for barr in (i1, i2):
            next_phase: list[int] = []
            while len(pend):
                b = barr[pend]
                _, fpos = np.unique(b, return_index=True)
                sel_mask = np.zeros(len(pend), dtype=bool)
                sel_mask[fpos] = True
                sel = pend[sel_mask]
                rows = self.table[barr[sel]]
                empties = rows == _EMPTY
                has_empty = empties.any(axis=1)
                slots = np.argmax(empties, axis=1)
                ok = sel[has_empty]
                if len(ok):
                    self.table[barr[ok], slots[has_empty]] = fp[ok]
                    self.count += len(ok)
                next_phase.extend(sel[~has_empty].tolist())
                pend = pend[~sel_mask]
            pend = np.asarray(next_phase, dtype=np.int64)
        for j in pend:
            self._insert_one(int(fp[j]), int(i1[j]), int(i2[j]))
