"""Hash and B+tree index wrappers used by minidb tables.

These are the structures behind the paper's claim that Buckaroo "creates
Postgres indexes for all the attribute combinations in the charts for
efficient data lookups" (§2): group membership queries
(``WHERE country = ?``) hit a hash or B+tree index instead of scanning, and
two-attribute chart lookups (``WHERE cat = ? ORDER BY val LIMIT k``) walk a
single *composite* B+tree.

Both index kinds cover one **or more** columns:

* :class:`HashIndex` — equality only.  Keys are tuples of normalized
  values; rows with a NULL in any indexed column are skipped (SQL equality
  never matches NULL).
* :class:`BTreeIndex` — ordered.  Keys are NULL-aware sort-key tuples, so
  *every* row is indexed (NULLs sort first, matching ``ORDER BY``), and the
  rowids whose key contains a NULL are additionally tracked in
  :attr:`BTreeIndex.null_rowids`.  That full coverage is what lets the
  planner answer ``ORDER BY`` straight from a leaf walk even on nullable
  columns, forward or backward (DESC).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterator, Sequence

from repro.errors import IntegrityError, SerializationError
from repro.minidb.btree import BTree
from repro.minidb.invariants import holds_write_lock
from repro.minidb.expressions import sort_key

#: sorts above every real key component ((rank, primitive) with rank <= 2),
#: used to build the exclusive upper bound of a composite prefix scan
_ABOVE_ANY_COMPONENT = (3,)


def normalize_key(value):
    """Normalize a column value for index equality (1 == 1.0, bool as int)."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _pick_values(items, positions: tuple) -> tuple[list, list]:
    """Split ``(rowid, row)`` pairs into a rowid list and a list of the
    indexed values: scalars for one position, tuples for several."""
    pick = itemgetter(*positions)
    rowids: list = []
    picked: list = []
    for rowid, row in items:
        rowids.append(rowid)
        picked.append(pick(row))
    return rowids, picked


def _as_columns(columns) -> tuple:
    """Accept a single column name or a sequence of them."""
    if isinstance(columns, str):
        return (columns,)
    return tuple(columns)


def _as_positions(positions) -> tuple:
    if isinstance(positions, int):
        return (positions,)
    return tuple(positions)


class _IndexBase:
    """Shared shape of both index kinds: columns, positions, row plumbing."""

    def __init__(self, name: str, columns, positions, unique: bool = False):
        self.name = name
        self.columns = _as_columns(columns)
        self.positions = _as_positions(positions)
        if len(self.columns) != len(self.positions):
            raise ValueError(
                f"index {name!r}: {len(self.columns)} columns for "
                f"{len(self.positions)} positions"
            )
        self.unique = unique
        # back-reference to the owning Table (set by Table.create_index);
        # lets UNIQUE enforcement distinguish live rows from dead MVCC
        # versions whose stale entries await garbage collection
        self.owner = None

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def column(self) -> str:
        """First (or only) indexed column — legacy single-column accessor."""
        return self.columns[0]

    @property
    def position(self) -> int:
        """First (or only) indexed position — legacy single-column accessor."""
        return self.positions[0]

    def touches(self, changed_positions) -> bool:
        """True when an update to ``changed_positions`` affects this key."""
        return any(p in changed_positions for p in self.positions)

    def key_values(self, row: Sequence) -> tuple:
        """This index's key components extracted from a stored row."""
        return tuple(row[p] for p in self.positions)

    def entry_key(self, row: Sequence):
        """The normalized key this index files ``row`` under.

        Used by MVCC readers to re-check that a row *version* still
        matches the index entry it was reached through (stale entries of
        superseded versions stay until GC), and by GC itself to decide
        which entries died with a version.
        """
        return self._key(self.key_values(row))

    def probe_key(self, values: tuple):
        """The normalized key a probe for ``values`` targets (the expected
        entry key for an MVCC visible-version re-check)."""
        return self._key(values)

    def null_match(self, row: Sequence) -> bool:
        """True when ``row`` carries a NULL in any indexed column."""
        return any(row[p] is None for p in self.positions)

    @holds_write_lock
    def reindex_null(self, row: Sequence, rowid: int) -> None:
        """Re-assert NULL tracking for ``row`` (no-op for hash indexes).

        ``remove_values`` clears a rowid from the B+tree's NULL set even
        when another live version of the row still has a NULL key; undo
        and GC call this for each survivor to restore it.
        """

    def _values_of(self, value) -> tuple:
        """Normalize the legacy single-value API to a component tuple."""
        if self.n_columns == 1:
            return (value,)
        values = tuple(value)
        if len(values) != self.n_columns:
            raise ValueError(
                f"index {self.name!r} covers {self.n_columns} columns, "
                f"got {len(values)} values"
            )
        return values

    @holds_write_lock
    def _unique_conflict(self, existing, rowid: int, key):
        """Classify a UNIQUE key collision against MVCC liveness.

        ``existing`` are the rowids already filed under ``key``.  Returns
        ``(verdict, stale)`` where ``verdict`` is None (no violation),
        ``"dup"`` (another *current* row really holds the key), or
        ``"race"`` (the key is held or freed by another live transaction
        whose outcome is unknown — retryable), and ``stale`` lists the
        rowids whose entry under ``key`` belongs to a dead version
        awaiting GC — candidates for the targeted collection
        :meth:`_check_unique` runs.  Without an ``owner`` back-reference
        there is no liveness information and any other rowid is a
        duplicate (the strict pre-MVCC rule).
        """
        owner = self.owner
        if owner is None:
            dup = any(r != rowid for r in existing)
            return ("dup" if dup else None), []
        manager = owner.manager
        verdict = None
        stale = []
        own = owner.writing_txid
        for other in existing:
            if other == rowid:
                continue
            chain = owner.versions.get(other) if manager is not None else None
            if not chain:
                row = owner.rows.get(other)
                if row is not None and self.entry_key(row) == key:
                    return "dup", stale
                continue
            head = chain[-1]
            created, deleted = head.created, head.deleted
            if (created != own and manager.is_active(created)) or (
                deleted is not None and deleted != own
                and manager.is_active(deleted)
            ):
                # in flux by another live transaction: its abort could
                # resurface (or keep) the key — first-updater-wins
                verdict = "race"
                continue
            if deleted is not None:
                # deleted by us, or committed-deleted: a dead entry that
                # only GC will clear — remember it for targeted collection
                if deleted != own:
                    stale.append(other)
                continue
            if self.entry_key(head.values) == key:
                return "dup", stale
            # the head no longer carries this key: the entry under `key`
            # belongs to a superseded version of `other`
            stale.append(other)
        return verdict, stale

    @holds_write_lock
    def _check_unique(self, existing, rowid: int, values: tuple, key) -> None:
        verdict, stale = self._unique_conflict(existing, rowid, key)
        if stale:
            # Targeted GC: dead versions' stale entries under this key
            # would otherwise linger (and block) until a full pass whose
            # trigger — the last outstanding snapshot releasing — may be
            # long in coming.  We already hold the write lock; collect
            # exactly these rowids now.  gc_rowid respects the manager's
            # horizon, so versions an outstanding snapshot still sees
            # survive untouched.
            owner = self.owner
            manager = owner.manager if owner is not None else None
            if manager is not None:
                horizon = manager.horizon()
                for other in stale:
                    owner.gc_rowid(other, horizon, manager.is_active)
        if verdict == "dup":
            raise IntegrityError(
                f"UNIQUE index {self.name}: duplicate value "
                f"{values[0] if self.n_columns == 1 else values!r}"
            )
        if verdict == "race":
            raise SerializationError(
                f"UNIQUE index {self.name}: value "
                f"{values[0] if self.n_columns == 1 else values!r} is held "
                f"by a concurrent transaction"
            )

    @holds_write_lock
    def _check_unique_runs(self, runs: list) -> None:
        """UNIQUE enforcement for a bulk build, in heap order.

        ``runs`` holds one list per key filed under two or more rows:
        ``(position, rowid, values)`` in heap order, ``position`` being
        the row's place in the heap walk.  Every row after a run's first
        is checked against the rows before it, all runs merged by
        position — the exact sequence of :meth:`_check_unique` calls
        row-at-a-time inserts would make, so the first violation raised
        (``IntegrityError``, or ``SerializationError`` for a key in
        flux) is the same.
        """
        pending = sorted(
            (run[j][0], i, j) for i, run in enumerate(runs)
            for j in range(1, len(run))
        )
        for _position, i, j in pending:
            run = runs[i]
            _, rowid, values = run[j]
            held = {other for _, other, _ in run[:j]}
            self._check_unique(held, rowid, values, self._key(values))

    # -- row-level maintenance (called by Table on every mutation) ----------

    @holds_write_lock
    def add_row(self, row: Sequence, rowid: int,
                check_unique: bool = True) -> None:
        self.insert_values(self.key_values(row), rowid,
                           check_unique=check_unique)

    @holds_write_lock
    def remove_row(self, row: Sequence, rowid: int) -> None:
        self.remove_values(self.key_values(row), rowid)

    # -- legacy single-value API (and tuple passthrough for composites) -----

    @holds_write_lock
    def insert(self, value, rowid: int) -> None:
        self.insert_values(self._values_of(value), rowid)

    @holds_write_lock
    def remove(self, value, rowid: int) -> None:
        self.remove_values(self._values_of(value), rowid)

    def lookup(self, value) -> set:
        return self.lookup_values(self._values_of(value))


class HashIndex(_IndexBase):
    """Equality-only index: value tuple -> set of rowids.  NULLs skipped."""

    kind = "hash"

    def __init__(self, name: str, columns, positions, unique: bool = False):
        super().__init__(name, columns, positions, unique)
        self._buckets: dict = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def n_keys(self) -> int:
        """Number of distinct indexed values."""
        return len(self._buckets)

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Index ``rowid`` under the component tuple (any NULL is skipped).

        ``check_unique=False`` skips UNIQUE enforcement — used when
        backfilling dead version-chain entries, whose keys may collide
        with live rows without constituting a violation.
        """
        if any(v is None for v in values):
            return
        key = self._key(values)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {rowid}
            return
        if self.unique and check_unique and bucket and bucket != {rowid}:
            # re-indexing the same rowid under its own key is never a
            # violation (MVCC updates may file a row twice transiently);
            # other rowids' entries count only if their version is live
            self._check_unique(bucket, rowid, values, key)
        # re-fetch: the targeted GC inside _check_unique may have emptied
        # and dropped the bucket we were holding
        self._buckets.setdefault(key, set()).add(rowid)

    @holds_write_lock
    def build(self, items) -> None:
        """Fill the empty index from ``(rowid, row)`` pairs in heap order
        (the ``CREATE INDEX`` backfill): one pass over the buckets, with
        UNIQUE checked as each duplicate arrives."""
        if self._buckets:
            raise ValueError(f"index {self.name!r} is not empty")
        buckets = self._buckets
        unique = self.unique
        rowids, picked = _pick_values(items, self.positions)
        # zip(picked) wraps each single-column value in a 1-tuple lazily
        value_tuples = zip(picked) if self.n_columns == 1 else picked
        for rowid, values in zip(rowids, value_tuples):
            if None in values:
                continue
            key = tuple(map(normalize_key, values))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {rowid}
                continue
            if unique:
                self._check_unique(bucket, rowid, values, key)
            bucket.add(rowid)

    @holds_write_lock
    def remove_values(self, values: tuple, rowid: int) -> None:
        """Drop the pair if present."""
        if any(v is None for v in values):
            return
        key = self._key(values)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(rowid)
        if not bucket:
            del self._buckets[key]

    def lookup_values(self, values: tuple) -> set:
        """Rowids whose columns equal ``values`` (empty when any is NULL)."""
        if any(v is None for v in values):
            return set()
        return set(self._buckets.get(self._key(values), ()))

    def keys(self) -> list:
        """Distinct indexed values (normalized; scalars for 1-column)."""
        if self.n_columns == 1:
            return [key[0] for key in self._buckets]
        return list(self._buckets)

    def _key(self, values: tuple) -> tuple:
        return tuple(normalize_key(v) for v in values)


class BTreeIndex(_IndexBase):
    """Ordered index: equality, ranges, and ordered walks in both directions.

    Every row is indexed.  Single-column keys are ``sort_key(value)``
    (preserving the ``(rank, primitive)`` shape older numeric helpers rely
    on); composite keys are tuples of those.  ``sort_key(None)`` ranks below
    every number and string, so NULLs occupy the front of the key space —
    exactly where ``ORDER BY`` puts them — and :attr:`null_rowids` records
    which rows carry a NULL in any indexed column.
    """

    kind = "btree"

    def __init__(self, name: str, columns, positions, unique: bool = False,
                 order: int = 64):
        super().__init__(name, columns, positions, unique)
        self._tree = BTree(order=order)
        self.null_rowids: set[int] = set()

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def n_keys(self) -> int:
        """Number of distinct keys currently stored."""
        return self._tree.n_keys

    def covers(self, n_rows: int) -> bool:
        """True when every one of ``n_rows`` table rows is in the tree —
        the precondition for serving ``ORDER BY`` from a leaf walk."""
        return len(self._tree) == n_rows

    # -- mutation ------------------------------------------------------------

    @holds_write_lock
    def insert_values(self, values: tuple, rowid: int,
                      check_unique: bool = True) -> None:
        """Index ``rowid`` under the component tuple (NULLs included).

        ``check_unique=False`` skips UNIQUE enforcement — used when
        backfilling dead version-chain entries, whose keys may collide
        with live rows without constituting a violation.
        """
        has_null = any(v is None for v in values)
        key = self._key(values)
        if self.unique and check_unique and not has_null:
            existing = self._tree.search(key)
            if existing and existing != {rowid}:
                # SQL semantics: NULLs never collide under UNIQUE; a rowid
                # re-filed under its own key (MVCC re-index) is fine, and
                # dead versions' stale entries do not count
                self._check_unique(existing, rowid, values, key)
        self._tree.insert(key, rowid)
        if has_null:
            self.null_rowids.add(rowid)

    @holds_write_lock
    def build(self, items) -> None:
        """Fill the empty index from ``(rowid, row)`` pairs in heap order
        (the ``CREATE INDEX`` backfill).

        Keys are computed once, sorted (stably, so each key's first row
        in heap order names it, as with row-at-a-time inserts), cut into
        runs of equal keys and handed to :meth:`BTree.bulk_load`.  Runs of
        two or more rows under a UNIQUE index go through
        :meth:`_check_unique_runs` first.
        """
        if len(self._tree):
            raise ValueError(f"index {self.name!r} is not empty")
        rowids, picked = _pick_values(items, self.positions)
        composite = self.n_columns > 1
        if composite:
            keys = [tuple(map(sort_key, values)) for values in picked]
            self.null_rowids.update(
                rowid for rowid, values in zip(rowids, picked)
                if None in values)
        else:
            keys = list(map(sort_key, picked))
            self.null_rowids.update(
                rowid for rowid, value in zip(rowids, picked) if value is None)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # groupby names each run by its first (heap-first) row's key
        run_keys: list = []
        run_sets: list[set] = []
        for key, run in groupby(order, keys.__getitem__):
            run_keys.append(key)
            run_sets.append(set(map(rowids.__getitem__, run)))
        if self.unique:
            duplicates = []
            for _, run in groupby(order, keys.__getitem__):
                entries = [
                    (p, rowids[p], picked[p] if composite else (picked[p],))
                    for p in run
                ]
                # NULL keys never collide under UNIQUE
                if len(entries) > 1 and None not in entries[0][2]:
                    duplicates.append(entries)
            self._check_unique_runs(duplicates)
        del keys, order, rowids  # transients: free before leaves are cut
        self._tree.bulk_load(run_keys, run_sets)

    @holds_write_lock
    def remove_values(self, values: tuple, rowid: int) -> None:
        """Drop the pair if present."""
        self._tree.remove(self._key(values), rowid)
        self.null_rowids.discard(rowid)

    @holds_write_lock
    def reindex_null(self, row: Sequence, rowid: int) -> None:
        if any(row[p] is None for p in self.positions):
            self.null_rowids.add(rowid)

    # -- point and prefix lookups --------------------------------------------

    def lookup_values(self, values: tuple) -> set:
        """Rowids whose columns equal ``values`` (empty when any is NULL)."""
        if any(v is None for v in values):
            return set()
        return self._tree.search(self._key(values))

    def lookup_null(self) -> set:
        """Rowids whose indexed key contains a NULL (``IS NULL`` scans)."""
        return set(self.null_rowids)

    def prefix_scan(self, values: tuple, reverse: bool = False,
                    low=None, high=None, include_low: bool = True,
                    include_high: bool = True) -> Iterator[int]:
        """Rowids whose first ``len(values)`` columns equal ``values``,
        ordered (asc, or desc with ``reverse``) by the remaining columns.

        ``low``/``high`` additionally bound the *next* index column after
        the equality prefix, so ``WHERE cat = ? AND val > ? ORDER BY val``
        on a ``(cat, val)`` index seeds the leaf walk at the range bound
        instead of filtering a residual.  A bounded walk never yields NULL
        suffix values (SQL comparisons never match NULL); an unbounded one
        keeps them (ORDER BY includes NULLs).

        Any NULL prefix component yields nothing — this implements SQL
        equality.
        """
        if any(v is None for v in values):
            return
        k = len(values)
        if k == self.n_columns and low is None and high is None:
            # full-key equality: order among duplicates is unconstrained
            yield from self.lookup_values(values)
            return
        prefix = tuple(sort_key(v) for v in values)
        # synthesized bounds compare against real keys without ever equaling
        # one, so the tree scan always runs [low_key, high_key)
        if low is not None:
            if include_low:
                low_key = prefix + (sort_key(low),)
            else:  # skip every key whose suffix component equals the bound
                low_key = prefix + (sort_key(low), _ABOVE_ANY_COMPONENT)
        elif high is not None:
            # range conjuncts exclude NULL suffix values; start past them
            low_key = prefix + (sort_key(None), _ABOVE_ANY_COMPONENT)
        else:
            low_key = prefix
        if high is not None:
            if include_high:
                high_key = prefix + (sort_key(high), _ABOVE_ANY_COMPONENT)
            else:
                high_key = prefix + (sort_key(high),)
        else:
            high_key = prefix + (_ABOVE_ANY_COMPONENT,)
        scan = self._tree.range_scan_desc if reverse else self._tree.range_scan
        for _key, rowids in scan(low_key, high_key, True, False):
            yield from rowids

    def ordered_groups(self) -> Iterator[tuple]:
        """``(sort_key, rowids)`` groups in ascending key order, skipping the
        NULL-key group — the pre-grouped stream a merge join consumes."""
        self._require_single("ordered_groups")
        for key, rowids in self._tree.range_scan(sort_key(None), None, False):
            yield key, rowids

    # -- snapshot-safe bounded walks (MVCC read path) -------------------------

    def order_bounds(self) -> tuple:
        """Tree-key bounds of a full ordered walk."""
        return (None, None, True, True)

    def merge_bounds(self) -> tuple:
        """Tree-key bounds of :meth:`ordered_groups` (NULL group skipped)."""
        self._require_single("merge_bounds")
        return (sort_key(None), None, False, True)

    def range_bounds(self, low=None, high=None, include_low: bool = True,
                     include_high: bool = True) -> tuple:
        """Tree-key bounds equivalent to :meth:`range`'s walk."""
        self._require_single("range_bounds")
        if low is None:
            low_key, include_low = sort_key(None), False
        else:
            low_key = sort_key(low)
        high_key = sort_key(high) if high is not None else None
        return (low_key, high_key, include_low, include_high)

    def prefix_bounds(self, values: tuple, low=None, high=None,
                      include_low: bool = True,
                      include_high: bool = True) -> tuple | None:
        """Tree-key bounds equivalent to :meth:`prefix_scan`'s walk, or
        None when the scan can match nothing (a NULL component)."""
        if any(v is None for v in values):
            return None
        if len(values) == self.n_columns and low is None and high is None:
            key = self._key(values)
            return (key, key, True, True)
        prefix = tuple(sort_key(v) for v in values)
        if low is not None:
            if include_low:
                low_key = prefix + (sort_key(low),)
            else:
                low_key = prefix + (sort_key(low), _ABOVE_ANY_COMPONENT)
        elif high is not None:
            low_key = prefix + (sort_key(None), _ABOVE_ANY_COMPONENT)
        else:
            low_key = prefix
        if high is not None:
            if include_high:
                high_key = prefix + (sort_key(high), _ABOVE_ANY_COMPONENT)
            else:
                high_key = prefix + (sort_key(high),)
        else:
            high_key = prefix + (_ABOVE_ANY_COMPONENT,)
        return (low_key, high_key, True, False)

    def group_walk(self, bounds: tuple, reverse: bool = False, lock=None,
                   batch: int = 64) -> Iterator[tuple]:
        """``(tree_key, rowids_tuple)`` groups between ``bounds``, safe
        under concurrent mutation.

        Up to ``batch`` groups are pulled per ``lock`` acquisition (the
        database's write lock), then the walk *re-seeks* past the last
        key with a fresh root descent — a writer splitting leaves between
        batches cannot tear the iteration, and the lock is never held
        while the consumer processes rows.  Snapshot readers pair this
        with a per-version key re-check, so duplicate or stale entries
        encountered across batches resolve to exactly-once results.
        """
        low_key, high_key, include_low, include_high = bounds
        while True:
            got: list[tuple] = []
            if lock is not None:
                lock.acquire()
            try:
                scan = (
                    self._tree.range_scan_desc if reverse
                    else self._tree.range_scan
                )
                for key, rowids in scan(low_key, high_key,
                                        include_low, include_high):
                    got.append((key, tuple(rowids)))
                    if len(got) >= batch:
                        break
            finally:
                if lock is not None:
                    lock.release()
            for item in got:
                yield item
            if len(got) < batch:
                return
            last_key = got[-1][0]
            if reverse:
                high_key, include_high = last_key, False
            else:
                low_key, include_low = last_key, False

    # -- ordered walks ---------------------------------------------------------

    def ordered_rowids(self, reverse: bool = False) -> Iterator[int]:
        """Every indexed rowid in full key order (reverse walks the leaf
        chain backward).  NULL keys come first ascending, last descending —
        matching the executor's sort-key semantics."""
        scan = self._tree.range_scan_desc if reverse else self._tree.range_scan
        for _key, rowids in scan(None, None):
            yield from rowids

    # -- legacy single-value range API ------------------------------------------

    def range(self, low=None, high=None, include_low: bool = True,
              include_high: bool = True, reverse: bool = False) -> Iterator[int]:
        """Yield rowids with column values in the given range, in key order
        (descending with ``reverse`` — the walk behind
        ``WHERE col > ? ORDER BY col DESC``).

        NULLs never satisfy a comparison, so an unbounded-low scan starts
        just past the NULL key instead of sweeping it up.
        """
        self._require_single("range")
        if low is None:
            low_key, include_low = sort_key(None), False
        else:
            low_key = sort_key(low)
        high_key = sort_key(high) if high is not None else None
        scan = self._tree.range_scan_desc if reverse else self._tree.range_scan
        for _, rowids in scan(low_key, high_key, include_low, include_high):
            yield from rowids

    def numeric_range(self, low=None, high=None, include_low: bool = True,
                      include_high: bool = True) -> Iterator[int]:
        """Like :meth:`range` but never crosses into text keys.

        Text sorts above every number, so an unbounded-high scan would
        otherwise sweep up contaminating text values.  The outlier detector
        uses this for its two tail scans.
        """
        self._require_single("numeric_range")
        low_key = sort_key(low) if low is not None else (1, float("-inf"))
        high_key = sort_key(high) if high is not None else (1, float("inf"))
        for _, rowids in self._tree.range_scan(low_key, high_key, include_low, include_high):
            yield from rowids

    def numeric_min(self):
        """The smallest numeric key, or None."""
        self._require_single("numeric_min")
        for key, _ in self._tree.range_scan((1, float("-inf")), (1, float("inf"))):
            return key[1]
        return None

    def numeric_max(self):
        """The largest numeric key, or None (O(log n) reverse walk)."""
        self._require_single("numeric_max")
        for key, _ in self._tree.range_scan_desc((1, float("-inf")), (1, float("inf"))):
            return key[1]
        return None

    # -- internals -------------------------------------------------------------

    def _key(self, values: tuple):
        if self.n_columns == 1:
            return sort_key(values[0])
        return tuple(sort_key(v) for v in values)

    def _require_single(self, what: str) -> None:
        if self.n_columns != 1:
            raise ValueError(
                f"{what}() applies to single-column indexes; "
                f"{self.name!r} covers {self.columns}"
            )
