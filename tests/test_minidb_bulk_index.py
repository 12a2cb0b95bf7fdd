"""Bulk index builds: parity with row-at-a-time inserts, and UNIQUE.

``CREATE INDEX`` backfills live rows in one build — a sort-based
:meth:`BTree.bulk_load` for B+trees, one bucket pass for hash indexes,
route-then-build for partitioned ones.  These tests hold the result to
the structure the same rows would produce inserted one at a time, and
hold UNIQUE violations found during a build to the exact error class and
message row-at-a-time enforcement raises (the first violation in heap
order, not in key order).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, SerializationError
from repro.minidb.btree import BTree
from repro.minidb.database import Database
from repro.minidb.expressions import sort_key
from repro.minidb.hash_index import BTreeIndex, HashIndex

# a small domain so duplicates, int/float collisions (1 == 1.0), NULLs and
# text-in-numeric mixes all turn up often
cell = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from([-1.5, 0.5, 1.0, 2.25]),
    st.sampled_from(["a", "b", "zz"]),
)

SPECS = [((0,), "btree"), ((1,), "btree"), ((0, 1), "btree"),
         ((0,), "hash"), ((0, 1), "hash")]


def _heap(data, rows):
    """``(rowid, row)`` pairs in a heap order that is not rowid order."""
    rowids = data.draw(st.permutations(range(1, len(rows) + 1)))
    return [(rowid, list(row)) for rowid, row in zip(rowids, rows)]


def _make(kind, positions, order=4):
    columns = tuple(f"c{p}" for p in positions)
    if kind == "btree":
        return BTreeIndex("ix", columns, positions, order=order)
    return HashIndex("ix", columns, positions)


def _pair(kind, positions, heap, order=4):
    bulk, incremental = _make(kind, positions, order), _make(kind, positions, order)
    bulk.build(heap)
    for rowid, row in heap:
        incremental.add_row(row, rowid)
    return bulk, incremental


def _probes(heap, positions):
    probes = {tuple(row[p] for p in positions) for _, row in heap}
    probes.add(tuple(7 for _ in positions))  # absent
    return probes


def _tree_bounds(data, keys):
    """Random ``(low, high, include_low, include_high)`` over tree keys."""
    pick = st.one_of(st.none(), st.sampled_from(keys)) if keys else st.none()
    return (data.draw(pick), data.draw(pick),
            data.draw(st.booleans()), data.draw(st.booleans()))


def assert_same_index(bulk, incremental, heap, data):
    assert len(bulk) == len(incremental)
    assert bulk.n_keys == incremental.n_keys
    for values in _probes(heap, bulk.positions):
        assert bulk.lookup_values(values) == incremental.lookup_values(values)
    if bulk.kind == "hash":
        assert sorted(map(repr, bulk.keys())) == sorted(
            map(repr, incremental.keys()))
        return
    assert bulk.null_rowids == incremental.null_rowids
    bulk._tree.check_invariants()
    keys = [key for key, _ in incremental._tree.iter_items()]
    for _ in range(4):
        bounds = _tree_bounds(data, keys)
        assert list(bulk._tree.range_scan(*bounds)) == list(
            incremental._tree.range_scan(*bounds))
        assert list(bulk._tree.range_scan_desc(*bounds)) == list(
            incremental._tree.range_scan_desc(*bounds))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(cell, cell), max_size=90), st.data())
def test_bulk_build_matches_row_at_a_time(rows, data):
    heap = _heap(data, rows)
    for positions, kind in SPECS:
        bulk, incremental = _pair(kind, positions, heap)
        assert_same_index(bulk, incremental, heap, data)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(cell, cell), max_size=60),
    st.lists(st.tuples(st.booleans(), st.integers(1, 80), cell, cell),
             max_size=60),
    st.data(),
)
def test_bulk_built_tree_takes_later_inserts_and_removes(rows, edits, data):
    """A packed tree keeps its invariants under ordinary maintenance."""
    heap = _heap(data, rows)
    for positions in ((0,), (0, 1)):
        bulk, incremental = _pair("btree", positions, heap)
        for insert, rowid, a, b in edits:
            row = [a, b]
            if insert:
                bulk.add_row(row, rowid)
                incremental.add_row(row, rowid)
            else:
                bulk.remove_row(row, rowid)
                incremental.remove_row(row, rowid)
            bulk._tree.check_invariants()
        assert list(bulk._tree.iter_items()) == list(
            incremental._tree.iter_items())
        assert len(bulk) == len(incremental)
        assert bulk.n_keys == incremental.n_keys


def test_bulk_build_at_default_order_is_multi_level():
    heap = [(rowid, [rowid % 997, str(rowid % 13)])
            for rowid in range(1, 20001)]
    bulk, incremental = _pair("btree", (0,), heap, order=64)
    assert bulk._tree.root.keys, "expected internal levels"
    bulk._tree.check_invariants()
    assert list(bulk._tree.iter_items()) == list(incremental._tree.iter_items())
    assert bulk.numeric_min() == 0.0 and bulk.numeric_max() == 996.0


def test_each_key_keeps_its_first_heap_row_spelling():
    """1 and 1.0 share a key; the stored key is the first row's, as with
    row-at-a-time inserts (the sort is stable over heap order)."""
    heap = [(5, [1.0]), (2, [1]), (9, [True])]
    bulk, incremental = _pair("btree", (0,), heap)
    assert list(bulk._tree.iter_items()) == [(sort_key(1.0), {2, 5, 9})]
    assert [type(k[1]) for k, _ in bulk._tree.iter_items()] == [
        type(k[1]) for k, _ in incremental._tree.iter_items()]


class TestBulkLoad:
    def test_empty_run_leaves_an_empty_tree(self):
        tree = BTree(order=4)
        tree.bulk_load([], [])
        tree.check_invariants()
        assert len(tree) == 0 and tree.max_key() is None

    def test_single_leaf(self):
        tree = BTree(order=4)
        tree.bulk_load([1, 2], [{10}, {20, 21}])
        tree.check_invariants()
        assert len(tree) == 3 and tree.n_keys == 2
        assert tree.search(2) == {20, 21}

    @pytest.mark.parametrize("n", [3, 4, 9, 10, 100, 1000])
    def test_levels_and_leaf_fill(self, n):
        tree = BTree(order=8)
        tree.bulk_load(list(range(n)), [{k} for k in range(n)])
        tree.check_invariants()
        assert [key for key, _ in tree.iter_items()] == list(range(n))
        assert [key for key, _ in tree.range_scan_desc()] == list(
            range(n))[::-1]
        leaf = tree._leftmost_leaf()
        sizes = []
        while leaf is not None:
            sizes.append(len(leaf.keys))
            leaf = leaf.next
        # filled to 3/4 of the order (6 of 8), evenly: no straggler leaf
        assert max(sizes) <= 6 and max(sizes) - min(sizes) <= 1

    def test_rejects_unsorted_or_duplicate_keys(self):
        with pytest.raises(ValueError):
            BTree().bulk_load([2, 1], [{1}, {2}])
        with pytest.raises(ValueError):
            BTree().bulk_load([1, 1], [{1}, {2}])

    def test_rejects_non_empty_tree(self):
        tree = BTree()
        tree.insert(1, 1)
        with pytest.raises(ValueError):
            tree.bulk_load([2], [{2}])


# -- UNIQUE: same class and message as row-at-a-time enforcement -------------

TABLES = ["", " PARTITION BY HASH (n) PARTITIONS 3"]


@pytest.mark.parametrize("kind", ["btree", "hash"])
@pytest.mark.parametrize("partition",
                         ["", " PARTITION BY RANGE (n) SPLIT AT (10)"])
def test_unique_build_names_first_duplicate_in_heap_order(kind, partition):
    """'b' repeats before 'a' does, although 'a' sorts first.  (A
    partitioned heap walks partition by partition: here the 'b's share
    the first one.)"""
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, n INT)" + partition)
    db.insert_rows("t", [("b", 1), ("a", 12), (None, 3), ("b", 4),
                         ("a", 15), (None, 6)])
    with pytest.raises(IntegrityError,
                       match=r"^UNIQUE index u: duplicate value 'b'$"):
        db.execute(f"CREATE UNIQUE INDEX u ON t(k) USING {kind}")
    assert "u" not in db.table("t").indexes


@pytest.mark.parametrize("kind", ["btree", "hash"])
@pytest.mark.parametrize("partition", TABLES)
def test_unique_build_composite_message(kind, partition):
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, n INT)" + partition)
    db.insert_rows("t", [("x", 1), ("x", 2), ("x", 1), (None, 1), (None, 1)])
    with pytest.raises(IntegrityError,
                       match=r"^UNIQUE index u: duplicate value \('x', 1\)$"):
        db.execute(f"CREATE UNIQUE INDEX u ON t(k, n) USING {kind}")


@pytest.mark.parametrize("kind", ["btree", "hash"])
@pytest.mark.parametrize("partition", TABLES)
def test_unique_build_over_concurrent_uncommitted_duplicate(kind, partition):
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, n INT)" + partition)
    writer = db.connect()
    writer.execute("BEGIN")
    writer.execute("INSERT INTO t VALUES ('x', 1)")   # uncommitted holder
    db.execute("INSERT INTO t VALUES ('x', 2)")
    db.execute("INSERT INTO t VALUES ('y', 3)")
    with pytest.raises(
            SerializationError,
            match=r"^UNIQUE index u: value 'x' is held by a concurrent "
                  r"transaction$"):
        db.execute(f"CREATE UNIQUE INDEX u ON t(k) USING {kind}")
    writer.rollback()
    db.execute(f"CREATE UNIQUE INDEX u ON t(k) USING {kind}")
    writer.close()


@pytest.mark.parametrize("kind", ["btree", "hash"])
def test_unique_partitioned_build_sees_duplicates_across_partitions(kind):
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, n INT) "
               "PARTITION BY RANGE (n) SPLIT AT (10, 20)")
    db.insert_rows("t", [("x", 1), ("y", 15), ("x", 25)])
    table = db.table("t")
    assert len({table.rows.partition_of_rowid(r) for r in (1, 3)}) == 2
    with pytest.raises(IntegrityError,
                       match=r"^UNIQUE index u: duplicate value 'x'$"):
        db.execute(f"CREATE UNIQUE INDEX u ON t(k) USING {kind}")
    db.execute("DELETE FROM t WHERE n = 25")
    db.execute(f"CREATE UNIQUE INDEX u ON t(k) USING {kind}")
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO t VALUES ('y', 5)")


# -- end to end: CREATE INDEX after loading == index maintained during load --

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(cell, st.integers(0, 40)), max_size=60),
       st.sampled_from(TABLES), st.sampled_from(["btree", "hash"]))
def test_create_index_after_load_matches_index_during_load(rows, partition,
                                                           kind):
    before, after = Database(), Database()
    for db in (before, after):
        db.execute("CREATE TABLE t (k REAL, n INT)" + partition)
    before.execute(f"CREATE INDEX ix ON t(k, n) USING {kind}")
    for db in (before, after):
        db.insert_rows("t", rows)
        db.execute("DELETE FROM t WHERE n % 7 = 0")
    after.execute(f"CREATE INDEX ix ON t(k, n) USING {kind}")
    old, new = before.table("t").indexes["ix"], after.table("t").indexes["ix"]
    assert len(new) == len(old)
    assert new.n_keys == old.n_keys
    for k, n in rows + [(7, 99)]:
        assert new.lookup_values((k, n)) == old.lookup_values((k, n))
    if kind == "btree":
        assert new.null_rowids == old.null_rowids
        for reverse in (False, True):
            assert [
                (key, sorted(rowids)) for key, rowids
                in new.group_walk(new.order_bounds(), reverse=reverse)
            ] == [
                (key, sorted(rowids)) for key, rowids
                in old.group_walk(old.order_bounds(), reverse=reverse)
            ]
