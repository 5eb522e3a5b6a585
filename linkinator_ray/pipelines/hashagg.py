"""Two-level hash aggregation for HIGH-CARDINALITY group keys.

Ray Data's ``groupby().aggregate()`` pays ~0.2 ms of per-distinct-group
overhead in its shuffle-aggregate path (measured on this Ray build:
80k-row/77k-group Count = 17 s; the same aggregate expressed as below =
0.4 s). Fine for dozens of groups, pathological for vocabulary- or
bucket-sized key spaces.

Pattern (the classic combiner + salted exchange):

1. ``map_batches``: one C-speed Arrow ``group_by`` per batch (the
   partial / combiner step) + a ``__part`` column = stable
   hash(keys) % P — all zero-copy pyarrow, no pandas block conversion;
2. ``groupby("__part").map_groups``: P groups total — each call merges
   its partition's partials with one more Arrow ``group_by``.

The exchange moves pre-combined rows only (≤ distinct keys per batch),
and per-group overhead is paid P times, not once per distinct key. P
defaults to the cluster CPU count — at 100 TB raise it so each partition's
distinct-key set fits a worker's heap.

``how`` supports count/sum/min/max (count counts ROWS — Arrow
``count_all`` — and re-merges as sum). Null group keys form their own
group (Arrow semantics); no caller routes nullable keys.

Partition routing hashes string keys with the buffer-level FNV kernel
(urlkit.hash64_arrow) and numeric keys with splitmix64 — deterministic
across processes, no pandas hashing in the hot path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_PARTIAL_HOW = {"count": "count_all", "sum": "sum", "min": "min", "max": "max"}
_FINAL_HOW = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
_FNV_PRIME = np.uint64(0x100000001B3)


def default_parts(cap: int = 64) -> int:
    import ray

    from linkinator_ray.state import actors
    n = (actors.session_cpus() if ray.is_initialized() else None) or 8
    return min(cap, max(4, n))


def auto_concurrency(cap: int = 64) -> tuple[int, int]:
    """Autoscaling actor-pool bounds for stateful ``map_batches`` stages.

    The UPPER bound tracks cluster CPUs (capped) instead of a hardcoded
    constant: a fixed ``(1, 8)`` would strangle the stage on a real
    multi-node cluster, while the autoscaling pool only grows under
    backlog, so a high cap costs nothing on small inputs. Measured at
    sf0.1/32 cpus: the minhash signature stage drops ~35% wall time
    going from cap 8 to cap-tracks-CPUs."""
    return (1, default_parts(cap=cap))


def _splitmix64(v: np.ndarray) -> np.ndarray:
    z = v + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _part_of_table(t: pa.Table, keys: list[str], num_parts: int) -> pa.Array:
    """Stable per-row partition id from the key columns — FNV over
    string buffers, splitmix64 over numerics, combined FNV-style."""
    from linkinator_ray.urlkit import hash64_arrow
    h = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = t.column(k)
            ty = col.type
            if pa.types.is_string(ty) or pa.types.is_large_string(ty):
                kh = hash64_arrow(col)
            else:
                if col.null_count:
                    col = col.fill_null(0)
                v = np.asarray(col.to_numpy(zero_copy_only=False))
                if v.dtype.kind == "f":
                    # canonicalize before bit-pattern hashing: pandas
                    # groups -0.0 with 0.0 (+0.0 addition normalizes
                    # the sign) and treats every NaN as one key
                    v = v.astype(np.float64) + 0.0
                    v[np.isnan(v)] = np.nan
                    kh = _splitmix64(v.view(np.uint64))
                else:
                    kh = _splitmix64(
                        v.astype(np.int64, copy=False).view(np.uint64))
            h = (h ^ kh) * _FNV_PRIME
    return pa.array((h % np.uint64(num_parts)).astype(np.int32))


def _grouped(t: pa.Table, keys: list[str],
             aggs: list[tuple], renames: dict[str, str]) -> pa.Table:
    """One Arrow group_by + output-column rename (use_threads=False:
    each map task owns one core; pyarrow's pool is pinned elsewhere)."""
    agg = t.group_by(keys, use_threads=False).aggregate(aggs)
    cols = {k: agg.column(k) for k in keys}
    for arrow_name, out_name in renames.items():
        cols[out_name] = agg.column(arrow_name)
    return pa.table(cols)


def hash_aggregate(ds, keys: list[str] | str, spec: dict[str, tuple[str, str]],
                   num_parts: int | None = None):
    """Grouped aggregate over ``ds``: ``spec`` maps output column →
    (source column, how) with how ∈ count/sum/min/max. Returns a Dataset
    with columns keys + spec keys, one row per distinct key tuple
    (unordered)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    num_parts = num_parts or default_parts()
    out_cols = keys + list(spec)

    partial_aggs, partial_renames = [], {}
    for out, (src, how) in spec.items():
        pa_how = _PARTIAL_HOW[how]
        arrow_name = "count_all" if pa_how == "count_all" \
            else f"{src}_{pa_how}"
        if arrow_name in partial_renames:
            raise ValueError(
                f"duplicate aggregate {arrow_name!r}: two spec entries "
                "share the same (source, how)")
        partial_aggs.append(([], "count_all") if pa_how == "count_all"
                            else (src, pa_how))
        partial_renames[arrow_name] = out
    final_aggs, final_renames = [], {}
    for out, (src, how) in spec.items():
        fin = _FINAL_HOW[how]
        final_aggs.append((out, fin))
        final_renames[f"{out}_{fin}"] = out

    def partial(batch: pa.Table) -> pa.Table:
        agg = _grouped(batch, keys, partial_aggs, partial_renames)
        return agg.append_column(
            "__part", _part_of_table(agg, keys, num_parts))

    def final(group: pa.Table) -> pa.Table:
        return _grouped(group, keys, final_aggs,
                        final_renames).select(out_cols)

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("__part").map_groups(final, batch_format="pyarrow")


def hash_partition_apply(ds, keys: list[str] | str, part_fn,
                         num_parts: int | None = None):
    """Route rows to P partitions by hash(keys) and apply ``part_fn``
    once per partition. All rows of one key tuple land in the same
    partition (hash co-location) — ``part_fn`` sees complete key groups
    and is free to process them with vectorized pandas ops instead of a
    per-group Python call. Routing is zero-copy Arrow; the one
    Arrow→pandas conversion happens inside map_groups for ``part_fn``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    num_parts = num_parts or default_parts()

    def route(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__part", _part_of_table(batch, keys, num_parts))

    def apply(part: pd.DataFrame) -> pd.DataFrame:
        return part_fn(part.drop(columns="__part"))

    return ds.map_batches(route, batch_format="pyarrow") \
        .groupby("__part").map_groups(apply, batch_format="pandas")


def hash_map_groups(ds, keys: list[str] | str, fn,
                    num_parts: int | None = None,
                    empty: pd.DataFrame | None = None):
    """``groupby(keys).map_groups(fn)`` for high-cardinality keys: rows
    are routed to P hash partitions; within each partition ``fn`` is
    called once per key group via a single vectorized pandas groupby-apply
    — Ray-level per-group overhead is paid P times, not per key.

    ``fn(group_df) -> DataFrame`` must not depend on cross-group state.
    All rows of one key land in one partition (hash co-location).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    num_parts = num_parts or default_parts()

    def route(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__part", _part_of_table(batch, keys, num_parts))

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop(columns="__part")
        outs = [fn(g) for _, g in part.groupby(keys, sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            # keep block schemas consistent across partitions: callers
            # whose fn can filter everything out pass an `empty` template
            return empty.iloc[:0].copy() if empty is not None \
                else pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    return ds.map_batches(route, batch_format="pyarrow") \
        .groupby("__part").map_groups(per_part, batch_format="pandas")


def hash_join(left, right, on: list[str] | str,
              right_on: list[str] | str | None = None,
              how: str = "inner", num_parts: int | None = None,
              salt: int = 1):
    """Distributed hash join built on the same primitives as everything
    else here (map_batches + one groupby exchange): both sides are
    tagged, schema-aligned, unioned, hash-partitioned on the key, and
    merged per partition with one vectorized ``pd.merge``.

    Exists because a DAG containing several of Ray's ``JoinOperator``s
    can intermittently deadlock its hash-shuffle scheduling under tight
    CPU budgets (observed on Ray 2.49 with num_cpus=4); this shape has
    no separate aggregator actors to schedule. Semantics follow
    ``Dataset.join``: ``how`` ∈ {"inner", "semi", "left_anti"}; right
    key columns are renamed onto the left key names; non-key column
    names must not collide. "semi" keeps left rows whose key EXISTS on
    the right (right side deduped inside the merge — callers can skip a
    dedicated distinct exchange and just pre-thin the right side with a
    per-batch local unique).

    ``salt`` > 1 is the hot-key lever (the join-side analogue of
    fetch.py's host salting): LEFT rows fan out over ``salt`` lanes
    (row-index mod salt, deterministic) and every RIGHT row is
    replicated to all lanes, so one skewed key's probe rows spread over
    ``salt`` partitions instead of stalling one reducer. Put the big /
    skewed side LEFT; costs salt× the right side's exchange volume, so
    use it for fact⋈dim shapes, not for two large sides.
    """
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    num_parts = num_parts or default_parts()

    l_schema, r_schema = left.schema(), right.schema()
    l_cols = list(l_schema.names)
    ren = dict(zip(right_on, on))
    r_cols = [ren.get(c, c) for c in r_schema.names]
    r_extra = [c for c in r_cols if c not in on]
    overlap = set(r_extra) & set(l_cols)
    if overlap:
        raise ValueError(f"hash_join non-key column collision: {overlap}")
    def _pa_type(t) -> pa.DataType:
        # pandas-backed datasets report numpy dtypes / Python types
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string() if t in (object, str) else pa.from_numpy_dtype(
                np.dtype(t))

    types: dict[str, pa.DataType] = {}
    for name, typ in zip(l_schema.names, l_schema.types):
        types[name] = _pa_type(typ)
    for name, typ in zip(r_schema.names, r_schema.types):
        types[ren.get(name, name)] = _pa_type(typ)
    all_cols = l_cols + r_extra
    # integer columns go float/object in pandas once the union pads the
    # other side with nulls; restore after the per-side split
    int_cols = [c for c in all_cols if pa.types.is_integer(types[c])]

    def _align(side: int, out_names: list[str], in_names: list[str]):
        rename = {n_in: n_out for n_in, n_out in zip(in_names, out_names)}

        def fn(batch: pa.Table) -> pa.Table:
            cols = {rename.get(n, n): batch.column(n)
                    for n in batch.schema.names}
            arrays, names = [], []
            for c in all_cols:
                names.append(c)
                arrays.append(cols.get(c) if c in cols else
                              pa.nulls(batch.num_rows, types[c]))
            names.append("__side")
            arrays.append(pa.array(
                np.full(batch.num_rows, side, dtype=np.int8)))
            out = pa.table(dict(zip(names, arrays)))
            if salt > 1:
                if side == 0:
                    lane = pa.array(
                        (np.arange(out.num_rows) % salt).astype(np.int16))
                    out = out.append_column("__lane", lane)
                else:
                    # replicate dim rows to every lane
                    copies = [out.append_column("__lane", pa.array(
                        np.full(out.num_rows, s, dtype=np.int16)))
                        for s in range(salt)]
                    out = pa.concat_tables(copies)
            return out
        return fn

    both = left.map_batches(_align(0, l_cols, l_cols),
                            batch_format="pyarrow") \
        .union(right.map_batches(_align(1, r_cols, list(r_schema.names)),
                                 batch_format="pyarrow"))
    route_keys = on + (["__lane"] if salt > 1 else [])

    out_cols = all_cols if how == "inner" else l_cols

    # with salting, two lanes can hash into the SAME partition — the
    # lane must stay a join key or a left row would match every
    # co-resident replica of its dim row
    lane_cols = ["__lane"] if salt > 1 else []
    jk = on + lane_cols

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        ldf = part[part["__side"] == 0][l_cols + lane_cols]
        rdf = part[part["__side"] == 1][jk + r_extra]
        for c in int_cols:
            if c in ldf.columns:
                ldf = ldf.astype({c: "int64"})
            if c in rdf.columns:
                rdf = rdf.astype({c: "int64"})
        if how == "inner":
            return ldf.merge(rdf, on=jk, how="inner")
        if how == "semi":
            return ldf.merge(rdf[jk].drop_duplicates(), on=jk, how="inner")
        if how == "left_anti":
            m = ldf.merge(rdf[jk].drop_duplicates(), on=jk,
                          how="left", indicator=True)
            return m.loc[m["_merge"] == "left_only", l_cols]
        raise ValueError(f"unsupported how={how!r}")

    parts = num_parts if salt == 1 else max(num_parts, salt)
    return hash_partition_apply(both, route_keys, merge, num_parts=parts) \
        .map_batches(lambda t: t.select(out_cols), batch_format="pyarrow")


def topk(ds, k: int, sort_keys: list[tuple[str, str]]) -> pa.Table:
    """The first ``k`` rows of ``ds`` under ``sort_keys`` — Arrow
    ``sort_by`` pairs of (column, "ascending" | "descending") that must
    order the rows totally. Two levels: every block keeps its own top k,
    and the driver sorts the ≤ blocks·k partial rows once more."""
    import ray

    def local(block: pa.Table) -> pa.Table:
        return block.sort_by(sort_keys).slice(0, k)

    parts = ray.get(ds.map_batches(local, batch_format="pyarrow",
                                   batch_size=None).to_arrow_refs())
    return pa.concat_tables(parts, promote_options="permissive") \
        .sort_by(sort_keys).slice(0, k)


def partition_stats(ds, keys: list[str] | str,
                    num_parts: int | None = None) -> pd.DataFrame:
    """Skew diagnostic for any exchange this module would run: per
    hash partition, row count, distinct-key count, and the hottest
    key's share (ppm) — the numbers that tell you whether a groupby /
    join key needs salting (hash_join(salt=) / fetch.py host salting)
    BEFORE the 100 TB run stalls on one reducer.

    One combiner exchange itself: per-batch (part, key) counts, P-way
    merge, per-partition readoff — the diagnostic never moves raw rows.
    Returns a driver-sized DataFrame (P rows)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    num_parts = num_parts or default_parts()

    def partial(batch: pa.Table) -> pa.Table:
        part = _part_of_table(batch, keys, num_parts)
        t = batch.select(keys).append_column("part", part)
        agg = t.group_by(["part"] + keys, use_threads=False).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["part"] + keys + ["n"])

    def readoff(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["part"] + keys, sort=False, as_index=False)["n"] \
            .sum()
        out = []
        for p, g in df.groupby("part", sort=False):
            n = int(g["n"].sum())
            out.append({"part": int(p), "n_rows": n,
                        "n_keys": int(len(g)),
                        "max_key_share_ppm":
                            int(g["n"].max() * 1_000_000 // max(n, 1))})
        return pd.DataFrame(out)

    stats = hash_partition_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "part", readoff,
        num_parts=num_parts).to_pandas()
    return stats.sort_values("part").reset_index(drop=True)
