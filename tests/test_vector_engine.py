"""Vector fast path: bitset masks round-trip and the fused kernels agree
with the row reference.

The heavyweight value/lineage/where differential lives in
``test_engine_differential.py`` (which now exercises the vector path by
default). This module pins the vector layer's own contracts:

* ``pack_rows`` / ``unpack_rows`` / ``mask_from_selector`` are mutually
  inverse encodings of ordinal sets (property-based);
* ``MaskProvenance`` decodes to exactly the reference engine's provenance;
* the fast path actually engages on eligible plans (lazy provenance marker
  on the result);
* views in FROM position are inlined at plan time (recursively, within the
  resolver's nesting limit) and every other view shape declines to the row
  engine's operators.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.provenance import mask_from_selector, pack_rows, unpack_rows
import pytest

from repro.errors import QueryError
from repro.relational import (
    COLUMNAR,
    ROW,
    Catalog,
    ExecutionConfig,
    Query,
    Table,
    View,
    execute,
    make_schema,
    parse_query,
)
from repro.relational.types import ColumnType
from repro.relational.vector import try_vector_core

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)


# ---------------------------------------------------------------------------
# Mask encodings (property-based round trips)
# ---------------------------------------------------------------------------


ordinal_sets = st.sets(st.integers(min_value=0, max_value=2_000), max_size=64)


@given(ordinal_sets)
def test_pack_unpack_round_trip(ordinals):
    assert unpack_rows(pack_rows(ordinals)) == sorted(ordinals)


@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_unpack_pack_round_trip(mask):
    assert pack_rows(unpack_rows(mask)) == mask


@given(st.lists(st.sampled_from([0, 1]), max_size=300))
def test_selector_mask_matches_pack(bits):
    selector = bytes(bits)
    expected = pack_rows(i for i, b in enumerate(bits) if b)
    mask = mask_from_selector(selector)
    assert mask == expected
    assert unpack_rows(mask) == [i for i, b in enumerate(bits) if b]


def test_unpack_is_sorted_and_sparse_masks_work():
    # A mask with only high bits set must not cost a full low-range scan.
    high = pack_rows([10_000, 50_000])
    assert unpack_rows(high) == [10_000, 50_000]
    assert unpack_rows(0) == []
    assert mask_from_selector(b"") == 0


# ---------------------------------------------------------------------------
# Engine parity and fast-path engagement
# ---------------------------------------------------------------------------


def _catalog() -> Catalog:
    cat = Catalog()
    schema = make_schema(
        ("k", ColumnType.INT),
        ("category", ColumnType.STRING),
        ("value", ColumnType.INT),
    )
    rows = [(i % 7, "abcde"[i % 5], (i * 37) % 100) for i in range(120)]
    cat.add_table(Table.from_rows("t", schema, rows, provider="p"))
    dim = make_schema(("k", ColumnType.INT), ("label", ColumnType.STRING))
    cat.add_table(
        Table.from_rows(
            "d", dim, [(i, f"label{i}") for i in range(7)], provider="q"
        )
    )
    return cat

QUERIES = [
    "SELECT category, value FROM t WHERE value > 40",
    "SELECT category, label FROM t JOIN d ON k = k WHERE value < 80",
    "SELECT category, COUNT(*) AS n, SUM(value) AS total FROM t GROUP BY category",
]


def _normalized(table: Table):
    return sorted(
        (row, prov.lineage, tuple(sorted(prov.where.items())))
        for row, prov in zip(table.rows, table.provenance)
    )


def test_vector_path_matches_row_reference_including_provenance():
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        reference = execute(query, cat, config=ROW)
        fused = execute(query, cat, config=UNCACHED)
        assert _normalized(fused) == _normalized(reference), sql


def test_fast_path_engages_and_yields_lazy_provenance():
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        assert try_vector_core(query, cat) is not None, sql
        out = execute(query, cat, config=UNCACHED)
        assert getattr(out.provenance, "lazy_provenance", False), sql


def test_ineligible_shapes_fall_back_cleanly():
    cat = _catalog()
    # LEFT joins decline to the row engine's operators.
    query = parse_query(
        "SELECT category, label FROM t LEFT JOIN d ON k = k"
    )
    assert try_vector_core(query, cat) is None
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


# ---------------------------------------------------------------------------
# Views inlined at plan time
# ---------------------------------------------------------------------------


def _view_catalog() -> Catalog:
    cat = _catalog()
    cat.add_view(
        View(
            "v1",
            parse_query(
                "SELECT k, category AS cat, value FROM t WHERE value > 10"
            ),
        )
    )
    cat.add_view(View("v2", parse_query("SELECT k AS key, cat, value AS v FROM v1")))
    cat.add_view(
        View(
            "v3",
            parse_query(
                "SELECT t.k AS tk, d.k AS dk, label, value FROM t JOIN d ON k = k"
            ),
        )
    )
    return cat


def test_view_chains_inline_onto_base_leaves():
    cat = _view_catalog()
    for sql in (
        "SELECT cat, v FROM v2 WHERE v < 90",
        "SELECT cat, COUNT(*) AS n, SUM(v) AS total FROM v2 GROUP BY cat",
        "SELECT cat, label FROM v2 JOIN d ON key = k WHERE v < 80",
        "SELECT dk, label, SUM(value) AS total FROM v3 GROUP BY dk, label",
    ):
        query = parse_query(sql)
        fast = try_vector_core(query, cat)
        assert fast is not None, sql
        # The mask provenance points straight at base-table rows.
        assert all(
            any(leaf is cat.table(name).provenance for name in ("t", "d"))
            for leaf in fast.provenance.leaves
        ), sql
        assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
            execute(query, cat, config=ROW)
        ), sql


def test_inlined_view_qualifies_join_collisions_by_view_name():
    cat = _catalog()
    cat.add_view(View("v", parse_query("SELECT k, value FROM t WHERE value > 50")))
    query = Query.from_("v").join("d", [("k", "k")]).project("v.k", "d.k", "label")
    fast = try_vector_core(query, cat)
    assert fast is not None
    assert fast.schema.names == ("v.k", "d.k", "label")
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


@pytest.mark.parametrize(
    "body",
    [
        "SELECT k, value + 1 AS value FROM t",  # computed column
        "SELECT DISTINCT k, value FROM t",
        "SELECT t.k AS k, value FROM t LEFT JOIN d ON k = k",
        "SELECT k, SUM(value) AS value FROM t GROUP BY k",
        "SELECT k, value FROM t ORDER BY value",
        "SELECT k, value FROM t LIMIT 5",
        Query.from_("t").project("k", "value").union_with(
            Query.from_("t").project("k", "value"), all=True
        ),
        "SELECT t.k AS k, value FROM t JOIN w ON k = k",  # a view on the right
    ],
)
def test_ineligible_view_bodies_decline(body):
    cat = _catalog()
    cat.add_view(View("w", parse_query("SELECT k AS k FROM d")))
    cat.add_view(View("v", parse_query(body) if isinstance(body, str) else body))
    query = parse_query("SELECT k, value FROM v WHERE value > 20")
    assert try_vector_core(query, cat) is None
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


def test_view_on_the_join_right_side_declines():
    cat = _view_catalog()
    query = parse_query("SELECT label, cat FROM d JOIN v2 ON k = key")
    assert try_vector_core(query, cat) is None


def test_inlined_chains_count_against_the_nesting_limit():
    cat = _catalog()
    cat.add_view(View("c0", parse_query("SELECT k, value FROM t")))
    for i in range(1, 34):
        cat.add_view(View(f"c{i}", parse_query(f"SELECT k, value FROM c{i - 1}")))
    assert try_vector_core(parse_query("SELECT k FROM c31"), cat) is not None
    # Nested under a caller already at depth 1, the same chain is too deep.
    with pytest.raises(QueryError, match="nesting"):
        try_vector_core(parse_query("SELECT k FROM c31"), cat, 1)
    with pytest.raises(QueryError, match="nesting"):
        execute(parse_query("SELECT k FROM c33"), cat, config=UNCACHED)
