"""The mesh wire format (``schema.encode``/``schema.decode``): every table
schema a mesh message carries survives the round trip, Ray-free."""

import numpy as np
import pyarrow as pa
import pytest

from linkinator_ray import schema

# every table a mesh message carries, by the schema it is built on
WIRE_SCHEMAS = {
    "candidates": schema.CANDIDATES,
    "pending_frags": schema.PENDING_FRAGS,
    "frontier": schema.FRONTIER,
    "result_rows": schema.RESULT_ROWS,
    "edges": schema.EDGES,
    "calls": schema.CALLS,
    "pagestart_events": schema.PAGESTART_ROWS,
    "warn_events": schema.WARN_ROWS,
    "retry_events": schema.RETRY_ROWS,
}


def rows(table_schema: pa.Schema, n: int, start: int = 0) -> pa.Table:
    """``n`` distinct rows of ``table_schema``; a RESULT_ROWS ``status``
    is null on every third row, as on SKIPPED rows."""
    i = np.arange(start, start + n)
    cols = []
    for field in table_schema:
        t = field.type
        if pa.types.is_string(t):
            col = pa.array([f"http://h.test/{field.name}/{k}" for k in i], t)
        elif pa.types.is_boolean(t):
            col = pa.array(i % 2 == 1)
        elif pa.types.is_uint64(t):
            col = pa.array(i.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        elif pa.types.is_floating(t):
            col = pa.array(i * 0.5, t)
        else:
            col = pa.array(i, t)
        if table_schema is schema.RESULT_ROWS and field.name == "status":
            col = pa.array(i, t, mask=i % 3 == 0)
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=table_schema)


def round_trip(table: pa.Table) -> pa.Table:
    out = schema.decode(schema.encode(table))
    assert out.schema.equals(table.schema)
    return out


@pytest.mark.parametrize("name", sorted(WIRE_SCHEMAS))
def test_round_trip_every_schema(name):
    table = rows(WIRE_SCHEMAS[name], 25)
    assert round_trip(table).equals(table)


@pytest.mark.parametrize("name", sorted(WIRE_SCHEMAS))
def test_round_trip_zero_rows(name):
    empty = schema.empty(WIRE_SCHEMAS[name])
    out = round_trip(empty)
    assert out.num_rows == 0


def test_null_status_survives():
    """SKIPPED result rows have a null status, not 0."""
    table = rows(schema.RESULT_ROWS, 9)
    out = round_trip(table)
    status = out["status"].to_pylist()
    assert status[0] is None and status[3] is None and status[1] == 1
    assert out["status"].null_count == 3


@pytest.mark.parametrize("name", sorted(WIRE_SCHEMAS))
def test_multi_chunk_input(name):
    """A table of several chunks (pieces a node buffered over a pump)
    arrives with every row, in order."""
    table_schema = WIRE_SCHEMAS[name]
    table = pa.concat_tables([rows(table_schema, 4),
                              rows(table_schema, 0, 4),
                              rows(table_schema, 7, 4)])
    assert table["url" if "url" in table_schema.names
                 else table_schema.names[0]].num_chunks == 3
    out = round_trip(table)
    assert out.num_rows == 11
    assert out.to_pylist() == table.to_pylist()


@pytest.mark.parametrize("name", sorted(WIRE_SCHEMAS))
def test_slice_ships_only_its_rows(name):
    """A 10-row slice of a 10k-row table (a pump's share of its queue)
    encodes to what 10 rows need (give or take each column's buffer
    padding), not its parent's buffers."""
    table_schema = WIRE_SCHEMAS[name]
    big = rows(table_schema, 10_000)
    piece = big.slice(5_000, 10)
    fresh = rows(table_schema, 10, 5_000)
    out = round_trip(piece)
    assert out.to_pylist() == fresh.to_pylist()
    assert schema.encode(piece).size <= \
        schema.encode(fresh).size + 64 * len(table_schema)
    assert schema.encode(piece).size * 100 < schema.encode(big).size
