"""Tests for pan/zoom navigation: viewport, tiles, quadtree, engine, drill-down."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SQLBackend
from repro.errors import NavigationError
from repro.frame import DataFrame
from repro.zoom import (
    AGGREGATE,
    DrillDownApp,
    LayerSpec,
    LayerStack,
    POINTS,
    QuadTree,
    TileCache,
    TileGrid,
    Viewport,
    ZoomEngine,
    default_layers,
)

from tests.test_backends import COLUMNS, ROWS


class TestViewport:
    def test_validation(self):
        with pytest.raises(NavigationError):
            Viewport(5, 5)
        with pytest.raises(NavigationError):
            Viewport(0, 1, y0=3, y1=2)
        with pytest.raises(NavigationError):
            Viewport(0, 1, y0=1)  # half-open y

    def test_contains(self):
        view = Viewport(0, 10, 0, 10)
        assert view.contains(0, 0)
        assert not view.contains(10, 5)
        assert not view.contains(5, -1)

    def test_pan(self):
        view = Viewport(0, 10).pan(5)
        assert (view.x0, view.x1) == (5, 15)

    def test_zoom_in_halves_width(self):
        view = Viewport(0, 10).zoom(0.5)
        assert view.width == pytest.approx(5)
        assert view.x0 == pytest.approx(2.5)

    def test_zoom_around_center(self):
        view = Viewport(0, 10).zoom(0.5, center_x=2)
        assert (view.x0, view.x1) == (pytest.approx(-0.5), pytest.approx(4.5))

    def test_clamp(self):
        bounds = Viewport(0, 10)
        clamped = Viewport(-5, 5).clamp_to(bounds)
        assert (clamped.x0, clamped.x1) == (0, 10)

    def test_intersects(self):
        assert Viewport(0, 5).intersects(Viewport(4, 8))
        assert not Viewport(0, 5).intersects(Viewport(5, 8))


class TestTileGrid:
    def test_tile_width_halves_per_level(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tile_width(0) == 25
        assert grid.tile_width(1) == 12.5

    def test_tile_of_clamped(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tile_of(-5, 0) == 0
        assert grid.tile_of(150, 0) == 3

    def test_tiles_for_range(self):
        grid = TileGrid(0, 100, base_tiles=4)
        assert grid.tiles_for_range(10, 60, 0) == [0, 1, 2]
        assert grid.tiles_for_range(60, 10, 0) == []

    def test_extent_roundtrip(self):
        grid = TileGrid(0, 100, base_tiles=4)
        x0, x1 = grid.tile_extent(2, 0)
        assert (x0, x1) == (50, 75)
        assert grid.tile_of((x0 + x1) / 2, 0) == 2


class TestTileCache:
    def test_lru_eviction(self):
        cache = TileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a becomes most recent
        cache.put("c", 3)       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_rate(self):
        cache = TileCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == 0.5

    def test_invalidate(self):
        cache = TileCache(capacity=4)
        cache.put("a", 1)
        cache.invalidate()
        assert cache.get("a") is None


class TestQuadTree:
    def test_insert_and_query(self):
        tree = QuadTree(0, 0, 100, 100, capacity=2)
        for i in range(20):
            tree.insert(i * 5, i * 5, i)
        found = tree.query(Viewport(0, 26, 0, 26))
        assert sorted(p[2] for p in found) == [0, 1, 2, 3, 4, 5]

    def test_outside_extent_rejected(self):
        tree = QuadTree(0, 0, 10, 10)
        assert not tree.insert(20, 20, "x")
        assert len(tree) == 0

    def test_nearest(self):
        tree = QuadTree(0, 0, 100, 100, capacity=2)
        tree.insert(10, 10, "a")
        tree.insert(90, 90, "b")
        assert tree.nearest(12, 12)[2] == "a"
        assert tree.nearest(80, 85)[2] == "b"

    def test_2d_viewport_required(self):
        tree = QuadTree(0, 0, 10, 10)
        with pytest.raises(NavigationError):
            tree.query(Viewport(0, 5))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 99.9), st.floats(0, 99.9)),
                    max_size=100))
    def test_property_query_matches_linear_scan(self, points):
        tree = QuadTree(0, 0, 100, 100, capacity=4)
        for i, (x, y) in enumerate(points):
            tree.insert(x, y, i)
        view = Viewport(20, 70, 30, 80)
        found = {p[2] for p in tree.query(view)}
        expected = {
            i for i, (x, y) in enumerate(points) if view.contains(x, y)
        }
        assert found == expected


class TestLayers:
    def test_default_stack(self):
        stack = LayerStack()
        assert len(stack) == 4
        assert stack.layer(0).kind == AGGREGATE
        assert stack.deepest.kind == POINTS

    def test_levels_must_be_consecutive(self):
        with pytest.raises(NavigationError):
            LayerStack([LayerSpec(0), LayerSpec(2)])

    def test_next_level_clamped(self):
        stack = LayerStack(default_layers(depth=2))
        assert stack.next_level(0) == 1
        assert stack.next_level(1) == 1

    def test_bad_kind(self):
        with pytest.raises(NavigationError):
            LayerSpec(0, kind="hologram")


@pytest.fixture
def engine():
    backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
    return ZoomEngine(backend, "income", layers=LayerStack(default_layers(depth=2)))


class TestZoomEngine:
    def test_full_view_aggregate(self, engine):
        region = engine.fetch(engine.full_view(), level=0)
        assert region.kind == AGGREGATE
        assert region.row_count == 7  # numeric incomes only
        assert sum(n for _, _, n in region.buckets) == 7

    def test_points_layer(self, engine):
        region = engine.fetch(engine.full_view(), level=1)
        assert region.kind == POINTS
        assert region.row_count == 7
        rowids = {p[0] for p in region.points}
        assert 3 not in rowids  # '12k' has no numeric position
        assert 6 not in rowids  # NULL

    def test_narrow_viewport_filters_points(self, engine):
        region = engine.fetch(Viewport(49000, 56000), level=1)
        values = sorted(p[1] for p in region.points)
        assert values == [50000.0, 51000.0, 55000.0]

    def test_tile_cache_reused_on_pan(self, engine):
        view = Viewport(48000, 80000)
        engine.fetch(view, level=0)
        misses_before = engine.cache.misses
        moved, region = engine.pan(view, level=0, fraction=0.1)
        assert engine.cache.hits > 0
        assert engine.cache.misses >= misses_before  # few new tiles at most

    def test_drill_down_narrows_and_descends(self, engine):
        view, level, region = engine.drill_down(engine.full_view(), 0, 55000)
        assert level == 1
        assert view.width < engine.full_view().width

    def test_invalidate_after_mutation(self, engine):
        engine.fetch(engine.full_view(), level=0)
        engine.backend.delete_rows([1])
        engine.invalidate()
        region = engine.fetch(engine.full_view(), level=0)
        assert region.row_count == 6

    def test_rejects_empty_numeric_column(self):
        frame = DataFrame.from_dict({"a": ["x", "y"], "b": [None, None]})
        backend = SQLBackend.from_frame(frame)
        with pytest.raises(NavigationError):
            ZoomEngine(backend, "b")

    def test_rejects_all_text_column(self):
        frame = DataFrame.from_dict({"a": ["x", "y"], "b": [1.0, 2.0]})
        backend = SQLBackend.from_frame(frame)
        with pytest.raises(NavigationError, match="no numeric values"):
            ZoomEngine(backend, "a")

    def test_bounds_equal_numeric_stats_extent(self, engine):
        """income holds a NULL and a text mismatch ('12k'): both are
        outside the extent, exactly as numeric_stats leaves them out."""
        stats = engine.backend.numeric_stats("income")
        assert engine.backend.numeric_extent("income") == (
            stats.count, stats.min, stats.max)
        assert engine.bounds.x0 == stats.min == 48000.0
        span = stats.max - stats.min
        assert engine.bounds.x1 == stats.max + span * 1e-9


class TestDrillDownApp:
    @pytest.fixture
    def app(self):
        backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
        return DrillDownApp(backend, ["country", "degree"])

    def test_top_level_bar_chart(self, app):
        view = app.current_view()
        assert dict(view.bars) == {"Bhutan": 4, "Lesotho": 4, "Nauru": 1}
        assert view.seconds > 0

    def test_drill_and_roll(self, app):
        view = app.drill_into("Bhutan")
        assert view.column == "degree"
        assert dict(view.bars) == {"BS": 2, "MS": 1, "PhD": 1}
        top = app.roll_up()
        assert top.column == "country"

    def test_cannot_drill_past_deepest(self, app):
        app.drill_into("Bhutan")
        with pytest.raises(NavigationError):
            app.drill_into("BS")

    def test_cannot_roll_past_top(self, app):
        with pytest.raises(NavigationError):
            app.roll_up()

    def test_visible_rows_respect_path(self, app):
        app.drill_into("Lesotho")
        rows = app.visible_row_ids()
        assert sorted(rows) == [5, 6, 7, 8]

    def test_remove_row_refreshes_chart(self, app):
        """The §6.2 measured interaction."""
        app.drill_into("Bhutan")
        view, seconds = app.remove_row(1)
        assert seconds > 0
        assert sum(n for _, n in view.bars) == 3

    def test_empty_hierarchy_rejected(self):
        backend = SQLBackend.from_frame(DataFrame.from_rows(ROWS, COLUMNS))
        with pytest.raises(NavigationError):
            DrillDownApp(backend, [])
