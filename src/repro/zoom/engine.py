"""The pan-and-zoom engine (the Hopara substitute, §4.2).

Every region fetch is a parameterized SQL range query against the B+tree
index on the navigation axis; tiles are cached so panning re-uses work.
Two interaction modes mirror the paper:

* :class:`ZoomEngine` — continuous pan/zoom over a numeric axis with
  level-of-detail layers;
* :class:`DrillDownApp` — a bar-chart hierarchy over categorical attributes
  (the §6.2 Hopara evaluation removes rows from such a bar chart).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.sql_backend import SQLBackend
from repro.errors import NavigationError
from repro.zoom.layers import AGGREGATE, POINTS, LayerStack
from repro.zoom.tiles import TileCache, TileGrid
from repro.zoom.viewport import Viewport


@dataclass
class RegionData:
    """The payload rendered for one fetched region."""

    level: int
    viewport: Viewport
    kind: str                       # 'aggregate' or 'points'
    buckets: list = field(default_factory=list)   # (x0, x1, count) for aggregates
    points: list = field(default_factory=list)    # (rowid, x[, y]) for points
    row_count: int = 0
    seconds: float = 0.0
    tiles_fetched: int = 0
    tiles_cached: int = 0


class ZoomEngine:
    """Multi-layer navigation over one numeric axis of a SQL backend."""

    def __init__(self, backend: SQLBackend, x_col: str,
                 y_col: Optional[str] = None,
                 layers: Optional[LayerStack] = None,
                 cache_capacity: int = 64, base_tiles: int = 4):
        self.backend = backend
        self.x_col = x_col
        self.y_col = y_col
        self.layers = layers or LayerStack()
        backend.ensure_index(x_col)
        if y_col is not None:
            backend.ensure_index(y_col)
        count, low, high = backend.numeric_extent(x_col)
        if count == 0:
            raise NavigationError(f"column {x_col!r} has no numeric values")
        span = (high - low) or 1.0
        self.bounds = Viewport(low, high + span * 1e-9)
        self.grid = TileGrid(self.bounds.x0, self.bounds.x1, base_tiles)
        self.cache = TileCache(cache_capacity)
        self.queries_run = 0

    # -- fetching ------------------------------------------------------------

    def full_view(self) -> Viewport:
        """The viewport covering the whole axis."""
        return self.bounds

    def fetch(self, viewport: Viewport, level: int = 0) -> RegionData:
        """Fetch one region at one layer, via cached per-tile SQL queries."""
        layer = self.layers.layer(level)
        start = time.perf_counter()
        tile_indexes = self.grid.tiles_for_range(viewport.x0, viewport.x1, level)
        fetched = cached = 0
        merged_buckets: list = []
        merged_points: list = []
        total = 0
        for index in tile_indexes:
            key = (level, layer.kind, index)
            payload = self.cache.get(key)
            if payload is None:
                payload = self._fetch_tile(layer, level, index)
                self.cache.put(key, payload)
                fetched += 1
            else:
                cached += 1
            if layer.kind == AGGREGATE:
                merged_buckets.extend(payload["buckets"])
                total += payload["count"]
            else:
                merged_points.extend(payload["points"])
                total += len(payload["points"])
        if layer.kind == POINTS:
            if viewport.has_y and self.y_col is not None:
                merged_points = [
                    p for p in merged_points
                    if viewport.contains(p[1])
                    and isinstance(p[2], (int, float))
                    and viewport.y0 <= p[2] < viewport.y1
                ]
            else:
                merged_points = [
                    p for p in merged_points if viewport.contains(p[1])
                ]
            total = len(merged_points)
        seconds = time.perf_counter() - start
        return RegionData(
            level=level, viewport=viewport, kind=layer.kind,
            buckets=merged_buckets, points=merged_points,
            row_count=total, seconds=seconds,
            tiles_fetched=fetched, tiles_cached=cached,
        )

    def _fetch_tile(self, layer, level: int, index: int) -> dict:
        x0, x1 = self.grid.tile_extent(index, level)
        table = self.backend.table_name
        col = self.x_col
        self.queries_run += 1
        if layer.kind == AGGREGATE:
            width = (x1 - x0) / layer.buckets or 1.0
            result = self.backend.db.execute(
                f'SELECT CAST(("{col}" - ?) / ? AS INT) AS bucket, COUNT(*) '
                f'FROM {table} WHERE "{col}" >= ? AND "{col}" < ? '
                f'AND typeof("{col}") <> \'text\' GROUP BY bucket',
                (x0, width, x0, x1),
            )
            buckets = []
            count = 0
            for bucket, n in sorted(result.rows, key=lambda r: r[0] or 0):
                if bucket is None:
                    continue
                b0 = x0 + bucket * width
                buckets.append((b0, b0 + width, n))
                count += n
            return {"buckets": buckets, "count": count}
        columns = f'rowid, "{col}"'
        if self.y_col is not None:
            columns += f', "{self.y_col}"'
        result = self.backend.db.execute(
            f'SELECT {columns} FROM {table} '
            f'WHERE "{col}" >= ? AND "{col}" < ? AND typeof("{col}") <> \'text\'',
            (x0, x1),
        )
        return {"points": list(result.rows)}

    # -- interaction ------------------------------------------------------------

    def drill_down(self, viewport: Viewport, level: int,
                   center_x: float) -> tuple[Viewport, int, RegionData]:
        """Zoom into a clicked region: halve the window, go one layer deeper."""
        new_level = self.layers.next_level(level)
        narrowed = viewport.zoom(0.5, center_x=center_x).clamp_to(self.bounds)
        return narrowed, new_level, self.fetch(narrowed, new_level)

    def pan(self, viewport: Viewport, level: int,
            fraction: float = 0.25) -> tuple[Viewport, RegionData]:
        """Shift the window by a fraction of its width (cache-friendly)."""
        moved = viewport.pan(viewport.width * fraction).clamp_to(self.bounds)
        return moved, self.fetch(moved, level)

    def invalidate(self) -> None:
        """Drop cached tiles after the underlying data changed."""
        self.cache.invalidate()


@dataclass
class BarChartView:
    """One level of the categorical drill-down: category -> count."""

    path: tuple                     # the (column, value) choices made so far
    column: str                     # the attribute charted at this level
    bars: list = field(default_factory=list)  # (category, count)
    seconds: float = 0.0


class DrillDownApp:
    """Hierarchical bar-chart navigation over categorical attributes.

    This is the §6.2 Hopara application shape: a bar chart backed by SQL
    GROUP BY queries; clicking a bar drills into that category; wrangling
    actions (row removal) run against the database and the visible chart
    refreshes immediately.
    """

    def __init__(self, backend: SQLBackend, hierarchy: Sequence[str]):
        if not hierarchy:
            raise NavigationError("drill-down needs at least one attribute")
        self.backend = backend
        self.hierarchy = list(hierarchy)
        for column in self.hierarchy:
            backend.ensure_index(column)
        self.path: list[tuple[str, object]] = []
        self.queries_run = 0

    @property
    def depth(self) -> int:
        """How many drill-down steps have been taken."""
        return len(self.path)

    def current_view(self) -> BarChartView:
        """The bar chart at the current drill path (one SQL aggregate)."""
        start = time.perf_counter()
        column = self.hierarchy[min(self.depth, len(self.hierarchy) - 1)]
        where, params = self._path_predicate()
        result = self.backend.db.execute(
            f'SELECT "{column}", COUNT(*) FROM {self.backend.table_name}'
            f'{where} GROUP BY "{column}" ORDER BY 2 DESC',
            params,
        )
        self.queries_run += 1
        return BarChartView(
            path=tuple(self.path), column=column,
            bars=list(result.rows),
            seconds=time.perf_counter() - start,
        )

    def drill_into(self, category) -> BarChartView:
        """Click a bar: restrict to that category, one level deeper."""
        if self.depth >= len(self.hierarchy) - 1:
            raise NavigationError("already at the deepest drill level")
        column = self.hierarchy[self.depth]
        self.path.append((column, category))
        return self.current_view()

    def roll_up(self) -> BarChartView:
        """Navigate one level back up."""
        if not self.path:
            raise NavigationError("already at the top level")
        self.path.pop()
        return self.current_view()

    def visible_row_ids(self, limit: Optional[int] = None) -> list[int]:
        """Row ids inside the current drill path."""
        where, params = self._path_predicate()
        limit_sql = f" LIMIT {int(limit)}" if limit is not None else ""
        result = self.backend.db.execute(
            f"SELECT rowid FROM {self.backend.table_name}{where}{limit_sql}",
            params,
        )
        self.queries_run += 1
        return result.scalars()

    def remove_row(self, row_id: int) -> tuple[BarChartView, float]:
        """The §6.2 measured interaction: delete one row, refresh the chart.

        Returns the refreshed view and the end-to-end latency in seconds.
        """
        start = time.perf_counter()
        self.backend.delete_rows([row_id])
        view = self.current_view()
        return view, time.perf_counter() - start

    def _path_predicate(self) -> tuple[str, tuple]:
        if not self.path:
            return "", ()
        clauses = []
        params = []
        for column, value in self.path:
            if value is None:
                clauses.append(f'"{column}" IS NULL')
            else:
                clauses.append(f'"{column}" = ?')
                params.append(value)
        return " WHERE " + " AND ".join(clauses), tuple(params)
