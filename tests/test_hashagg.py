"""Two-level hash aggregation (pipelines/hashagg.py): property tests vs
a plain pandas groupby oracle on randomized high-cardinality data."""

import numpy as np
import pandas as pd
import pytest

from linkinator_ray.pipelines.hashagg import (hash_aggregate,
                                              hash_map_groups,
                                              hash_partition_apply)


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(11)
    n = 20_000
    return pd.DataFrame({
        "k1": rng.integers(0, 50, n).astype(np.int64),
        "k2": rng.integers(0, 400, n).astype(np.int64),
        "v": rng.integers(-1000, 1000, n).astype(np.int64),
    })


def _ds(frame, blocks=6):
    import ray.data as rd
    return rd.from_pandas(
        [frame.iloc[i::blocks].reset_index(drop=True) for i in range(blocks)])


def test_hash_aggregate_matches_pandas(ray_session, frame):
    got = hash_aggregate(
        _ds(frame), ["k1", "k2"],
        {"n": ("v", "count"), "s": ("v", "sum"),
         "mn": ("v", "min"), "mx": ("v", "max")},
        num_parts=7).to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    want = frame.groupby(["k1", "k2"], as_index=False).agg(
        n=("v", "size"), s=("v", "sum"), mn=("v", "min"), mx=("v", "max")) \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    assert len(got) == len(want)
    for col in ("n", "s", "mn", "mx"):
        assert got[col].tolist() == want[col].tolist(), col


def test_hash_aggregate_single_key_string(ray_session, frame):
    frame = frame.assign(key=frame["k2"].map(lambda x: f"tok{x}"))
    got = hash_aggregate(_ds(frame), "key", {"s": ("v", "sum")}) \
        .to_pandas().sort_values("key").reset_index(drop=True)
    want = frame.groupby("key", as_index=False).agg(s=("v", "sum")) \
        .sort_values("key").reset_index(drop=True)
    assert got["s"].tolist() == want["s"].tolist()


def test_hash_partition_apply_colocates_keys(ray_session, frame):
    """Every key's rows land in exactly one partition (hash
    co-location), and no row is lost or duplicated."""
    def tag(part: pd.DataFrame) -> pd.DataFrame:
        out = part[["k2"]].copy()
        out["part_tag"] = part["k2"].iloc[0] * 0 + id(part) % (1 << 31)
        return out

    got = hash_partition_apply(_ds(frame), "k2", tag, num_parts=5).to_pandas()
    assert len(got) == len(frame)
    parts_per_key = got.groupby("k2")["part_tag"].nunique()
    assert (parts_per_key == 1).all()


def test_hash_map_groups_matches_groupby(ray_session, frame):
    def summarize(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k2": [group["k2"].iloc[0]],
                             "total": [int(group["v"].sum())]})

    got = hash_map_groups(_ds(frame), "k2", summarize).to_pandas() \
        .sort_values("k2").reset_index(drop=True)
    want = frame.groupby("k2", as_index=False).agg(total=("v", "sum")) \
        .sort_values("k2").reset_index(drop=True)
    assert got["total"].tolist() == want["total"].tolist()


def test_hash_join_matches_pandas(ray_session, frame):
    from linkinator_ray.pipelines.hashagg import hash_join
    left = frame.head(5000)[["k2", "v"]]
    right = pd.DataFrame({
        "key": np.arange(0, 400, 3, dtype=np.int64),
        "tag": [f"t{i}" for i in range(0, 400, 3)],
    })
    got = hash_join(_ds(left), _ds(right), on="k2", right_on="key",
                    num_parts=5).to_pandas() \
        .sort_values(["k2", "v"]).reset_index(drop=True)
    want = left.merge(right.rename(columns={"key": "k2"}), on="k2",
                      how="inner").sort_values(["k2", "v"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert got["v"].dtype == np.int64  # null-padding must not leak floats


def test_hash_join_left_anti(ray_session, frame):
    from linkinator_ray.pipelines.hashagg import hash_join
    left = frame.head(5000)[["k2", "v"]]
    right = pd.DataFrame({"k2": np.arange(0, 200, dtype=np.int64)})
    got = hash_join(_ds(left), _ds(right), on="k2", how="left_anti",
                    num_parts=5).to_pandas() \
        .sort_values(["k2", "v"]).reset_index(drop=True)
    want = left[~left["k2"].isin(right["k2"])] \
        .sort_values(["k2", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_hash_join_salted_equals_unsalted(ray_session):
    """Hot-key salting: 90% of probe rows share one key; salt=4 must
    produce EXACTLY the unsalted result for inner/semi/left_anti (each
    left row lives in one lane; every lane holds a full dim replica)."""
    from linkinator_ray.pipelines.hashagg import hash_join
    rng = np.random.default_rng(7)
    n = 8000
    keys = np.where(rng.random(n) < 0.9, 42,
                    rng.integers(0, 300, n)).astype(np.int64)
    left = pd.DataFrame({"k": keys, "v": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({
        "k": np.arange(0, 300, 2, dtype=np.int64),
        "tag": [f"t{i}" for i in range(0, 300, 2)]})
    for how in ("inner", "semi", "left_anti"):
        plain = hash_join(_ds(left), _ds(right), on="k", how=how,
                          num_parts=5).to_pandas() \
            .sort_values(["k", "v"]).reset_index(drop=True)
        salted = hash_join(_ds(left), _ds(right), on="k", how=how,
                           num_parts=5, salt=4).to_pandas() \
            .sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(salted, plain), how
        # salting on the default partition count
        salted_default = hash_join(_ds(left), _ds(right), on="k", how=how,
                                   salt=4).to_pandas() \
            .sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(salted_default, plain), how


def test_partition_stats_detects_planted_skew(ray_session):
    """Diagnostic contract: totals reconcile, all rows of the planted
    hot key land in ONE partition, and that partition reports a
    max_key_share_ppm near 10^6 — the number a caller checks before
    deciding to salt."""
    from linkinator_ray.pipelines.hashagg import partition_stats
    rng = np.random.default_rng(3)
    n = 6000
    keys = np.where(rng.random(n) < 0.5, 7,
                    rng.integers(0, 500, n)).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": np.arange(n)})
    stats = partition_stats(_ds(df), "k", num_parts=8)
    assert stats["n_rows"].sum() == n
    assert len(stats) <= 8
    hot = stats.loc[stats["max_key_share_ppm"].idxmax()]
    n_hot = int((keys == 7).sum())
    # the hot partition holds all of key 7 plus its hash-share of others
    assert hot["n_rows"] >= n_hot
    assert hot["max_key_share_ppm"] >= n_hot * 1_000_000 // hot["n_rows"]
    assert hot["max_key_share_ppm"] > 500_000
