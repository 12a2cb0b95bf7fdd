"""``navigate``: pan-and-zoom and bar-chart drill over Chicago Crime.

One analyst on Chicago Crime at half scale (~124.8k rows, in-memory),
with a ``ZoomEngine`` over x/y coordinates (4 layers) and a
``DrillDownApp`` (``primary_type`` -> ``location_description``) sharing
one ``SQLBackend``.  Every episode:

1. a level-0 full-extent fetch (overview);
2. three drill-downs at seeded centres: seeded quantiles of the visible
   rows' x, in the middle half for the first two and within 2-5% of a
   seeded edge for the last (drill);
3. five pans in one direction, toward the data's median x, each exposing
   exactly one new tile (view);
4. a bar-chart drill into one of the top-8 categories (overview);
5. ``remove_row`` of seeded visible rows, each followed by
   ``ZoomEngine.invalidate()``, the program's contract after a write (edit);
6. a roll-up (overview).

Each metric's samples come from one gesture class, so a median never flips
between a cheap gesture and an expensive one: drill-downs aggregate cold
tiles over half the axis and cost seconds at this scale, while a pan
fetches one cold points tile.  The bar category cycles through the top-8
ranks by episode number (as ``repair_loop`` cycles its worst groups), so
every run sees the same categories and the seed moves the centres and rows.
A pan's cost follows the number of points in its viewport.  Starting at
the edge of the dense core and panning toward the median sweeps every
episode's pans across comparable data, so the cost does not swing tenfold
with where a seed happens to land.

The oracle checks every bucket total, point count and bar against the
generator's own numpy copy of the data minus the rows it removed, so a
stale tile served after a write fails the run.
"""

from __future__ import annotations

import os

import numpy as np

from perfbench import layers
from perfbench.common import Oracle, RunResult, setup_metric, timed_setups
from perfbench.measure import Metric, Recorder, class_metrics, peak_rss_mb
from perfbench.tracing import Tracer

X, Y = "x_coordinate", "y_coordinate"
HIERARCHY = ["primary_type", "location_description"]
EPISODES = 4096

END_TO_END = {
    "edit_p50_ms": ("edit", 50),
    "edit_p95_ms": ("edit", 95),
    "view_p50_ms": ("view", 50),
    "view_p95_ms": ("view", 95),
    "drill_p50_ms": ("drill", 50),
    "overview_p50_ms": ("overview", 50),
}
REMOVALS = 3            # per episode
#: pans per episode; odd, so the view median is the median of one pan
#: position's samples, not the boundary between two differently priced ones
PANS = 5


def make_script(seed: int, episodes: int = EPISODES) -> list:
    """Seeded choices per episode: drill centres, bar rank, removed rows.

    Positions in [0, 1) index into the rows the generator's model says are
    visible, so the script does not depend on program state.
    """
    rng = np.random.default_rng([seed, 2])
    return [{
        "centres": [round(float(v), 6) for v in rng.random(3)],
        "side": int(rng.integers(0, 2)),
        "bar": number % 8,
        "remove": [round(float(v), 6) for v in rng.random(REMOVALS)],
    } for number in range(episodes)]


def generate(seed: int, smoke: bool):
    from repro.datasets import make_chicago_crime

    frame, _truth = make_chicago_crime(scale=0.02 if smoke else 0.5, seed=seed)
    return frame


def build(frame):
    """Program set-up: load, indexes, zoom bounds, drill-down app."""
    from repro.backends.sql_backend import SQLBackend
    from repro.zoom.engine import DrillDownApp, ZoomEngine

    backend = SQLBackend.from_frame(frame)
    zoom = ZoomEngine(backend, X, Y)
    drill = DrillDownApp(backend, HIERARCHY)
    return backend, zoom, drill


def _numeric(values) -> np.ndarray:
    return np.array([
        float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else np.nan
        for v in values
    ])


class Model:
    """The generator's copy of the navigated columns (index = rowid - 1)."""

    def __init__(self, frame) -> None:
        self.x = _numeric(frame[X])
        self.y = _numeric(frame[Y])
        self.cats = [np.array(frame[c], dtype=object) for c in HIERARCHY]
        self.alive = np.ones(len(self.x), dtype=bool)

    def in_x(self, x0: float, x1: float) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.alive & (self.x >= x0) & (self.x < x1)

    def in_view(self, vp) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.in_x(vp.x0, vp.x1) & (self.y >= vp.y0) & (self.y < vp.y1)

    def bars(self, path) -> dict:
        mask = self.alive.copy()
        for depth, value in enumerate(path):
            mask &= self.cats[depth] == value
        column = self.cats[min(len(path), len(self.cats) - 1)][mask]
        values, counts = np.unique(column.astype(str), return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))


class Loop:
    """Runs the script against one program, recording every gesture."""

    def __init__(self, program, model: Model, oracle: Oracle, script) -> None:
        self.backend, self.zoom, self.drill = program
        self.model = model
        self.oracle = oracle
        self.script = script
        self.position = 0
        self.tracer: Tracer | None = None
        self.regions: list = []
        self.gestures = 0
        self.checks = 0
        stats_y = self.backend.numeric_stats(Y)
        bounds = self.zoom.bounds
        from repro.zoom.viewport import Viewport

        self.full = Viewport(bounds.x0, bounds.x1, stats_y.min,
                             stats_y.max + (stats_y.max - stats_y.min) * 1e-9)

    def _gesture(self, rec: Recorder, cls: str, label: str, fn, *args):
        self.gestures += 1
        if self.tracer is None:
            return rec.op((cls,), fn, *args)
        with self.tracer.interaction(f"bench.{cls}.{label}"):
            return rec.op((cls,), fn, *args)

    def _check_region(self, rec: Recorder, region, viewport) -> None:
        rec.pause()
        self.regions.append(region)
        self.checks += 1
        if region.kind == "aggregate":
            grid = self.zoom.grid
            tiles = grid.tiles_for_range(viewport.x0, viewport.x1, region.level)
            x0 = grid.tile_extent(tiles[0], region.level)[0]
            x1 = grid.tile_extent(tiles[-1], region.level)[1]
            expected = int(self.model.in_x(x0, x1).sum())
            got = sum(bucket[2] for bucket in region.buckets)
            self.oracle.check(got == expected == region.row_count,
                              f"level {region.level} buckets hold {got} rows "
                              f"(row_count {region.row_count}), model {expected}")
        else:
            expected = int(self.model.in_view(viewport).sum())
            self.oracle.check(region.row_count == len(region.points) == expected,
                              f"level {region.level} shows {region.row_count} "
                              f"points, model {expected}")
        rec.resume()

    def _check_bars(self, rec: Recorder, view) -> None:
        rec.pause()
        self.checks += 1
        got = {str(category): count for category, count in view.bars}
        expected = self.model.bars([value for _column, value in view.path])
        self.oracle.check(got == expected,
                          f"bars at {view.path} differ from the model")
        rec.resume()

    def episode(self, rec: Recorder) -> None:
        step = self.script[self.position % len(self.script)]
        self.position += 1
        zoom, drill, model = self.zoom, self.drill, self.model

        viewport, level = self.full, 0
        ok, region = self._gesture(rec, "overview", "fetch", zoom.fetch, viewport, 0)
        if ok:
            self._check_region(rec, region, viewport)
        for depth, centre in enumerate(step["centres"]):
            rec.pause()
            xs = np.sort(model.x[model.in_view(viewport)])
            if depth < 2:
                quantile = 0.25 + 0.5 * centre
            else:   # the deepest view starts at an edge of the dense core
                quantile = 0.02 + 0.03 * centre
                quantile = 1 - quantile if step["side"] else quantile
            x = (xs[int(quantile * len(xs))] if len(xs)
                 else (viewport.x0 + viewport.x1) / 2)
            rec.resume()
            ok, out = self._gesture(rec, "drill", "drill_down", zoom.drill_down,
                                    viewport, level, float(x))
            if not ok:
                return
            viewport, level, region = out
            self._check_region(rec, region, viewport)
        rec.pause()
        bounds = zoom.bounds
        direction = 1 if np.nanmedian(model.x[model.alive]) >= (
            viewport.x0 + viewport.x1) / 2 else -1
        room = bounds.x1 - viewport.x1 if direction > 0 else viewport.x0 - bounds.x0
        if room < PANS * viewport.width / 4:    # quarter-width pans must not clamp
            direction = -direction
        rec.resume()
        for _ in range(PANS):
            ok, out = self._gesture(rec, "view", "pan", zoom.pan, viewport, level,
                                    0.25 * direction)
            if not ok:
                return
            viewport, region = out
            self._check_region(rec, region, viewport)

        rec.pause()
        top = sorted(model.bars([]).items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        category = top[step["bar"] % len(top)][0]
        rec.resume()
        ok, view = self._gesture(rec, "overview", "drill_into", drill.drill_into, category)
        if not ok:
            return
        self._check_bars(rec, view)

        for position in step["remove"]:
            rec.pause()
            members = model.alive & (model.cats[0] == category)
            visible = np.flatnonzero(members & model.in_view(viewport))
            pool = visible if len(visible) else np.flatnonzero(members)
            rowid = int(pool[int(position * len(pool))]) + 1
            rec.resume()
            ok, out = self._gesture(rec, "edit", "remove_row", self._remove, rowid)
            if ok:
                model.alive[rowid - 1] = False
                self._check_bars(rec, out[0])
        ok, view = self._gesture(rec, "overview", "roll_up", drill.roll_up)
        if ok:
            self._check_bars(rec, view)

    def _remove(self, rowid: int):
        out = self.drill.remove_row(rowid)
        self.zoom.invalidate()
        return out

    def run_window(self, rec: Recorder, seconds: float) -> None:
        rec.start_window()
        while rec.window_seconds < seconds:
            self.episode(rec)
        rec.end_window()


def run(opts) -> RunResult:
    oracle = Oracle()
    frame = generate(opts.seed, opts.smoke)
    tracer = Tracer() if opts.trace else None
    shapes = layers.StatementShapes()
    if tracer is not None:
        layers.install(tracer, shapes)
        with tracer.interaction("bench.setup.build"):
            program, setup_seconds = timed_setups(lambda: build(frame))
        tracer.unwrap_all()
    else:
        program, setup_seconds = timed_setups(lambda: build(frame))
    loop = Loop(program, Model(frame), oracle, make_script(opts.seed))

    rec = Recorder()
    loop.run_window(rec, opts.window)
    result = RunResult(correct=True, recorder=rec)
    e2e = {
        "setup_s": setup_metric(setup_seconds),
        "ops_per_s": Metric(rec.attempted / rec.window_seconds, "1/s", rec.attempted),
    }
    e2e.update(class_metrics(rec, END_TO_END))
    e2e["fail_share"] = Metric(rec.failed / rec.attempted, "ratio", rec.attempted)

    if tracer is not None:
        traced = Recorder()
        first = len(tracer.spans)
        cache = loop.zoom.cache
        hits, misses = cache.hits, cache.misses
        queries = loop.zoom.queries_run + loop.drill.queries_run
        plan_info = loop.backend.db.plan_cache.info()
        loop.regions.clear()
        loop.gestures = 0
        loop.tracer = tracer
        shapes.shapes.clear()
        layers.install(tracer, shapes)
        try:
            loop.run_window(traced, opts.window)
        finally:
            tracer.unwrap_all()
            loop.tracer = None
        metrics = layers.common_metrics(tracer.spans[first:])
        metrics["zoom.tile_hit_rate"] = layers.ratio(
            cache.hits - hits, (cache.hits - hits) + (cache.misses - misses))
        regions = loop.regions
        fetched = sum(r.tiles_fetched for r in regions)
        metrics["zoom.tiles_fetched_per_gesture"] = layers.ratio(
            fetched, len(regions), "count")
        metrics["zoom.cold_tile_ms"] = layers.ratio(
            sum(r.seconds for r in regions if r.tiles_fetched) * 1e3, fetched, "ms")
        metrics["zoom.queries_per_gesture"] = layers.ratio(
            loop.zoom.queries_run + loop.drill.queries_run - queries,
            loop.gestures, "count")
        info = loop.backend.db.plan_cache.info()
        metrics["minidb.plan_cache_hit_rate"] = layers.ratio(
            info["hits"] - plan_info["hits"],
            info["hits"] - plan_info["hits"] + info["misses"] - plan_info["misses"])
        ratio, lines = layers.explain_replay(loop.backend.db, shapes)
        metrics["minidb.rows_examined_per_row_returned"] = Metric(
            ratio or 0.0, "ratio", len(shapes.shapes))
        metrics["backends.load_s"] = layers.median_span_s(tracer.spans[:first],
                                                   "backends.sql.from_frame")
        result.per_layer = metrics
        result.spans = tracer.spans[first:]
        result.notes.extend(layers.overhead_lines(rec, traced, tracer.spans[first:],
                                                  "bench.edit.remove_row"))
        result.notes.append("EXPLAIN ANALYZE replay behind "
                            "minidb.rows_examined_per_row_returned:")
        result.notes.extend(lines)
        rec.attempted += traced.attempted
        rec.failed += traced.failed
        rec.errors.extend(traced.errors)

    e2e["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    oracle.check(loop.checks > 0, "no gesture was checked")
    result.end_to_end = e2e
    result.oracle_failures = oracle.failures
    result.correct = not oracle.failures
    result.notes.insert(0, f"rows={frame.n_rows} episodes={loop.position} "
                           f"checks={loop.checks} cpu_count={os.cpu_count()}")
    return result
