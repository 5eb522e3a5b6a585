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

Layout and kernels:

- each 4-slot bucket is one ``uint64`` word of four 16-bit lanes, filled
  from the low lane up (a bucket's occupancy is the number of nonzero
  lanes, and they are contiguous). A probe gathers one word per
  candidate bucket and tests all four lanes at once with the SWAR
  zero-lane test (``(x - 0x0001…) & ~x & 0x8000…`` of ``word ^ fp·0x0001…``);
- fingerprint and home bucket come from a splitmix64 mix of the key, not
  from its low bits: callers shard keys by ``key % K`` (every filter of a
  K-node mesh sees one residue class), so the key's own low bits would
  reach only 1/K of the home buckets and overfill them;
- new keys are placed with one stable sort by bucket: a key's slot is
  its bucket's occupancy plus its rank among the batch's keys for that
  bucket, and each bucket's new lanes are OR-ed in with one
  ``add.reduceat``. The same sort finds the batch's repeated keys. Keys
  left over at the home bucket try the alternate bucket the same way;
  only keys whose two buckets are both full take the serial eviction
  walk.
"""

from __future__ import annotations

import numpy as np

from linkinator_ray.urlkit import _splitmix64

_MIX = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
_LANE = 0xFFFF
_LOW_LANES = np.uint64(0x0001000100010001)
_HIGH_BITS = np.uint64(0x8000800080008000)
_MIX_U64 = np.uint64(_MIX)
_ONE, _U16, _U48 = np.uint64(1), np.uint64(16), np.uint64(48)


def _zero_lanes(x: np.ndarray) -> np.ndarray:
    """The high bit of each all-zero 16-bit lane of ``x`` (the SWAR
    zero-lane test; ``x`` is overwritten)."""
    t = x - _LOW_LANES
    np.invert(x, out=x)
    x &= t
    x &= _HIGH_BITS
    return x


# a word holds k filled lanes iff it is at least the k-th floor (lanes
# fill from the low end), so its occupancy is a searchsorted
_LANE_FLOORS = np.array([1, 1 << 16, 1 << 32, 1 << 48], dtype=np.uint64)


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
        self.table = np.zeros(n_buckets, dtype=np.uint64)
        self.count = 0
        self._rng = np.random.default_rng(seed)
        # victim cache: (bucket_index, fingerprint) pairs that lost the
        # eviction walk — checked on every membership probe
        self._victims: set[tuple[int, int]] = set()

    # -- key → (fingerprint, bucket1, bucket2) -----------------------------

    def _locate(self, keys: np.ndarray):
        """(fingerprint, home bucket, alternate bucket) of each key, all
        uint64: the fingerprint is the mixed key's top 16 bits (forced
        nonzero; 0 marks an empty lane), the home bucket its low bits."""
        # (u64 array arithmetic wraps silently)
        mixed = _splitmix64(np.asarray(keys, dtype=np.uint64))
        fp = np.maximum(mixed >> _U48, _ONE)
        i1 = mixed
        i1 &= self.mask
        i2 = fp * _MIX_U64
        i2 ^= i1
        i2 &= self.mask
        return fp, i1, i2

    def _alt(self, idx: int, fp: int) -> int:
        return (idx ^ ((fp * _MIX) & _U64)) & int(self.mask)

    def _probe(self, fp: np.ndarray, i1: np.ndarray,
               i2: np.ndarray) -> np.ndarray:
        """True where either bucket word has a lane equal to the
        fingerprint (copied into all four lanes, each word XOR it has
        a zero lane)."""
        spread = fp * _LOW_LANES
        x1 = self.table[i1]
        x1 ^= spread
        x2 = self.table[i2]
        x2 ^= spread
        hit = _zero_lanes(x1)
        hit |= _zero_lanes(x2)
        found = hit != 0
        if self._victims:
            for pos in np.flatnonzero(~found):
                f = int(fp[pos])
                if (int(i1[pos]), f) in self._victims \
                        or (int(i2[pos]), f) in self._victims:
                    found[pos] = True
        return found

    # -- queries -----------------------------------------------------------

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self._probe(*self._locate(keys))

    def contains_or_insert(self, keys: np.ndarray) -> np.ndarray:
        """Batched test-and-set: True where the key was already present
        (possibly falsely); absent keys are inserted.

        Within a batch, a row whose home bucket and fingerprint repeat
        an earlier row's (a repeated key, as the serial loop would have
        found it) reports present and does not insert. Only rows the
        probe did not find are sorted: one sort by (home bucket,
        fingerprint, row) finds the repeats and orders the rest for
        placement."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._locate(keys)
        out = self._probe(fp, i1, i2)
        new = np.flatnonzero(~out)
        if len(new):
            home, rows = self._sorted((i1[new] << _U16) | fp[new], 16)
            later = np.zeros(len(home), dtype=bool)
            np.equal(home[1:], home[:-1], out=later[1:])
            if later.any():
                out[new[rows[later]]] = True
                rows = rows[~later]
            new = new[rows]
            self._bulk_insert(fp[new], i1[new], i2[new])
        return out

    # -- inserts -----------------------------------------------------------

    def _sorted(self, values: np.ndarray, extra_bits: int = 0):
        """``values`` (bucket indices, plus ``extra_bits`` low bits)
        sorted, and the batch row of each, ties in row order: one
        unstable value sort of ``value << s | row``, which is stable
        because the row makes every value distinct."""
        shift = max(1, (len(values) - 1).bit_length())
        if self.n_buckets.bit_length() + extra_bits + shift > 64:
            order = np.argsort(values, kind="stable")
            return values[order], order
        s = np.sort((values << np.uint64(shift))
                    | np.arange(len(values), dtype=np.uint64))
        return s >> np.uint64(shift), \
            (s & np.uint64((1 << shift) - 1)).astype(np.int64)

    def _place(self, fp: np.ndarray, bucket: np.ndarray) -> np.ndarray:
        """Put each key into the next free lane of its bucket (``bucket``
        sorted: slot = occupancy + rank within the bucket) and return
        the positions of the keys that found no free lane."""
        n = len(bucket)
        head = np.ones(n, dtype=bool)
        np.not_equal(bucket[1:], bucket[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        first = bucket[starts]
        words = self.table[first]
        occupancy = np.searchsorted(_LANE_FLOORS, words, side="right")
        spread = len(starts) == n  # every key has a bucket to itself
        slot = occupancy if spread else \
            (occupancy - starts)[np.cumsum(head) - 1] + np.arange(n)
        left = np.flatnonzero(slot >= 4)
        lanes = fp << (_U16 * np.minimum(slot, 3).astype(np.uint64))
        if len(left):
            lanes[left] = 0
        # lanes of one bucket are disjoint: their sum is their OR
        self.table[first] = words | (lanes if spread
                                     else np.add.reduceat(lanes, starts))
        self.count += n - len(left)
        return left

    def _bulk_insert(self, fp: np.ndarray, i1: np.ndarray,
                     i2: np.ndarray) -> None:
        """Place distinct fingerprints, ``i1`` sorted: home buckets
        first, then (sorted by bucket) the alternates of the keys left
        over; keys whose both buckets are full walk the serial eviction
        path."""
        left = self._place(fp, i1)
        if len(left):
            alt, order = self._sorted(i2[left])
            left = left[order]
            left = left[self._place(fp[left], alt)]
        for j in left:
            self._insert_one(int(fp[j]), int(i1[j]), int(i2[j]))

    def _insert_one(self, fp: int, i1: int, i2: int) -> None:
        for idx in (i1, i2):
            if self._put(idx, fp):
                return
        # evict: random walk; the displaced fingerprint moves to its own
        # alternate bucket, preserving membership (every bucket on the
        # walk is full, so lanes stay contiguous)
        idx = int(self._rng.choice((i1, i2)))
        cur_fp = fp
        for _ in range(self.MAX_KICKS):
            shift = 16 * int(self._rng.integers(4))
            word = int(self.table[idx])
            self.table[idx] = (word & ~(_LANE << shift) & _U64) \
                | (cur_fp << shift)
            cur_fp = (word >> shift) & _LANE
            idx = self._alt(idx, cur_fp)
            if self._put(idx, cur_fp):
                return
        # saturated: park the homeless fingerprint in the victim cache
        self._victims.add((idx, cur_fp))
        self.count += 1

    def _put(self, idx: int, fp: int) -> bool:
        """Put ``fp`` into the next free lane of bucket ``idx``."""
        word = int(self.table[idx])
        slot = (word.bit_length() + 15) // 16
        if slot == 4:
            return False
        self.table[idx] = word | (fp << (16 * slot))
        self.count += 1
        return True
