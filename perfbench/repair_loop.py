"""``repair_loop``: one analyst's detect -> suggest -> repair -> undo loop.

The analyst talks to the program through ``BuckarooServer.handle_request``
(the JSON protocol) over the SQL backend, on StackOverflow at its paper
shape (38,091 rows, in-memory database, buffered WAL).  Every episode:

1. ``summary``; pick the next of the five worst groups (cycling by rank)
   and its dominant error code;
2. ``request_suggestions``, ``preview_repair`` and ``apply_repair`` of a
   seeded suggestion, then ``undo``, ``redo`` and a final ``undo``;
3. Table-1 single-row removals and imputes through ``BuckarooSession.apply``;
4. a ``chart`` request and ``ScatterChart`` renders of both orientations.

Each metric's samples come from one class of request: ``view`` is the
scatter renders, while the summary and chart requests (a few ms and a
fraction of one) get their own figures, so the view median does not sit
on the boundary between three differently priced requests.

The final ``undo`` returns the table to its state before the repair, so
every episode repairs the same worst groups: the cost of an episode does
not drift with how many episodes a run completed (a faster run would
otherwise repair more, shrink the anomaly index and make later requests
cheaper, exaggerating run-to-run differences).  Table-1 edits stay applied.

The loop is closed: each request is sent after the previous reply.  The
oracle keeps its own model of the table (the generated frame plus the
rows it deleted and the cells it overwrote), applies the ops of every plan
the program applied, reverts them on undo, and compares with
``backend.to_frame()`` at the end.
"""

from __future__ import annotations

import json
import os

import numpy as np

from perfbench import layers
from perfbench.common import Oracle, RunResult, same_value, setup_metric, timed_setups
from perfbench.measure import Metric, Recorder, class_metrics, peak_rss_mb
from perfbench.tracing import Tracer

CAT_COLS = ["country", "ed_level", "remote_work"]
NUM_COLS = ["converted_comp_yearly", "years_code"]
WORST_GROUPS = 5
TABLE1_OPS = 8          # per episode, removals and imputes alternating
EPISODES = 256          # script length; a run stops at its deadline

END_TO_END = {
    "suggest_p50_ms": ("suggest", 50),
    "preview_p50_ms": ("preview", 50),
    "edit_p50_ms": ("edit", 50),
    "edit_p95_ms": ("edit", 95),
    "undo_p50_ms": ("undo", 50),
    "view_p50_ms": ("view", 50),
    "view_p95_ms": ("view", 95),
    "summary_p50_ms": ("summary", 50),
    "chart_p50_ms": ("chart", 50),
}


def make_script(seed: int, episodes: int = EPISODES) -> list:
    """The seeded operation script: one dict of choices per episode.

    Row choices are positions in [0, 1) into the live candidate list, so
    the script does not depend on program state.
    """
    rng = np.random.default_rng([seed, 1])
    script = []
    for number in range(episodes):
        script.append({
            "group_rank": number % WORST_GROUPS,
            "suggestion": int(rng.integers(0, 2)),
            "table1": [
                ("removal" if i % 2 == 0 else "impute",
                 round(float(rng.random()), 6),
                 NUM_COLS[int(rng.integers(0, len(NUM_COLS)))])
                for i in range(TABLE1_OPS)
            ],
            "chart": NUM_COLS[int(rng.integers(0, len(NUM_COLS)))],
        })
    return script


def generate(seed: int, smoke: bool):
    from repro.datasets import make_stackoverflow

    frame, _truth = make_stackoverflow(scale=0.05 if smoke else None, seed=seed)
    return frame


def build(frame):
    """Program set-up: load, indexes, groups, full detection, app, server."""
    from repro.backends.sql_backend import SQLBackend
    from repro.core.session import BuckarooSession
    from repro.ui import BuckarooApp, BuckarooServer

    backend = SQLBackend.from_frame(frame)
    session = BuckarooSession(backend)
    session.generate_groups(cat_cols=CAT_COLS, num_cols=NUM_COLS)
    session.detect()
    return BuckarooServer(BuckarooApp(session))


class TableModel:
    """The oracle's own copy of the table, kept as changes to the frame.

    Unchanged cells are read from the generated frame's columns, which the
    run holds anyway; the model itself stores only the deleted rowids and
    the cells the applied plans overwrote, so it adds almost nothing to
    the process's peak RSS.
    """

    def __init__(self, frame) -> None:
        self.columns = {name: frame[name] for name in frame.column_names}
        self.n_rows = frame.n_rows
        self.deleted: set = set()
        self.changed: dict = {}          # (rowid, column) -> value

    def alive(self, rowid: int) -> bool:
        return 1 <= rowid <= self.n_rows and rowid not in self.deleted

    def live_ids(self) -> list:
        return [r for r in range(1, self.n_rows + 1) if r not in self.deleted]

    def apply(self, plan) -> list:
        """Apply a plan's ops; returns the undo log."""
        from repro.core.types import OP_DELETE_ROWS

        log = []
        for op in plan.ops:
            if op.kind == OP_DELETE_ROWS:
                for rowid in op.row_ids:
                    if self.alive(rowid):
                        self.deleted.add(rowid)
                        log.append(("delete", rowid))
            else:
                values = (list(op.values) if op.values is not None
                          else [op.value] * len(op.row_ids))
                for rowid, value in zip(op.row_ids, values):
                    if self.alive(rowid):
                        cell = (rowid, op.column)
                        log.append(("set", cell, cell in self.changed,
                                    self.changed.get(cell)))
                        self.changed[cell] = value
        return log

    def revert(self, log) -> None:
        for entry in reversed(log):
            if entry[0] == "delete":
                self.deleted.discard(entry[1])
                continue
            _kind, cell, had, old = entry
            if had:
                self.changed[cell] = old
            else:
                del self.changed[cell]

    def compare(self, backend, oracle: Oracle) -> None:
        frame = backend.to_frame(include_row_ids=True)
        ids = list(frame["_row_id"])
        if not oracle.check(sorted(ids) == self.live_ids(),
                            f"row ids differ: program {len(ids)} rows, "
                            f"model {self.n_rows - len(self.deleted)}"):
            return
        mismatches = 0
        for name in frame.column_names:
            if name == "_row_id":
                continue
            base = self.columns[name].to_list()
            for rowid, value in zip(ids, frame[name]):
                cell = (rowid, name)
                expected = self.changed[cell] if cell in self.changed else base[rowid - 1]
                if not same_value(value, expected):
                    mismatches += 1
        oracle.check(mismatches == 0, f"{mismatches} cells differ from the model")


class Loop:
    """Runs the script against one program, recording every operation."""

    def __init__(self, server, model: TableModel, oracle: Oracle, script) -> None:
        self.server = server
        self.app = server.app
        self.session = server.app.session
        self.model = model
        self.oracle = oracle
        self.script = script
        self.position = 0
        self.tracer: Tracer | None = None
        self.apply_seconds: list = []    # (backend, replot) per edit
        self.redetected: list = []       # detections per edit
        self.undo_checks = 0
        self.notes: list = []

    def _request(self, rec: Recorder, cls: str, payload: dict):
        ok, response = self._timed(rec, cls, payload["type"],
                                   self.server.handle_request, json.dumps(payload))
        if not ok:
            return None
        message = json.loads(response)
        if not message.get("ok"):
            rec.fail(f"{payload['type']}: {message.get('error')}")
            return None
        return message["payload"]

    def _timed(self, rec: Recorder, cls: str, label: str, fn, *args):
        """One operation of class ``cls``; a traced run records its root span.

        Every edit, through the protocol or the session, notes how many
        groups it re-detected.
        """
        before = self.session.engine.detections_run
        if self.tracer is None:
            ok, result = rec.op((cls,), fn, *args)
        else:
            with self.tracer.interaction(f"bench.{cls}.{label}"):
                ok, result = rec.op((cls,), fn, *args)
        if ok and cls == "edit":
            self.redetected.append(self.session.engine.detections_run - before)
        return ok, result

    def episode(self, rec: Recorder) -> None:
        from repro.bench.workload import impute_plan, removal_plan
        from repro.charts.scatter import ScatterChart
        from repro.ui import protocol

        step = self.script[self.position % len(self.script)]
        self.position += 1
        session = self.session

        self._request(rec, "summary", {"type": "summary", "limit": 10})
        ranked = session.anomaly_summary(group_limit=WORST_GROUPS).groups
        if ranked:
            worst = ranked[step["group_rank"] % len(ranked)]
            self._repair(rec, protocol.encode_group_key(worst.key),
                         worst.dominant_code, step["suggestion"])

        for kind, position, column in step["table1"]:
            rec.pause()
            candidates = sorted(session.engine.index.rows_with_errors()) \
                or self.model.live_ids()
            rowid = candidates[int(position * len(candidates))]
            plan = (removal_plan(rowid) if kind == "removal"
                    else impute_plan(session, column, rowid))
            rec.resume()
            ok, result = self._timed(rec, "edit", kind, session.apply, plan)
            if ok:
                self.model.apply(plan)
                self.apply_seconds.append((result.backend_seconds,
                                           result.replot_seconds))

        self._request(rec, "chart", {"type": "chart", "cat": CAT_COLS[0],
                                     "num": step["chart"]})
        for x_col, y_col in (NUM_COLS[::-1], NUM_COLS):
            self._timed(rec, "view", "scatter", lambda x=x_col, y=y_col: ScatterChart(
                session=session, x_col=x, y_col=y))

    def _repair(self, rec: Recorder, key: dict, code: str, pick: int) -> None:
        suggestions = self._request(rec, "suggest", {
            "type": "request_suggestions", "key": key, "error_code": code})
        if not suggestions:
            return
        rank = suggestions[pick % len(suggestions)]["rank"]
        rec.pause()
        plan = self.app.repair_kit.suggestion(rank).plan
        rows_before = self.session.backend.row_count()
        total_before = self.session.engine.index.total()
        rec.resume()
        preview = self._request(rec, "preview", {"type": "preview_repair", "rank": rank})
        rec.pause()
        if preview is not None:
            self.oracle.check(self.session.backend.row_count() == rows_before,
                              "preview left the row count changed")
        rec.resume()
        applied = self._request(rec, "edit", {"type": "apply_repair", "rank": rank})
        if applied is None:
            return
        rec.pause()
        log = self.model.apply(plan)
        self.apply_seconds.append((applied["backend_seconds"], applied["replot_seconds"]))
        rec.resume()
        if self._request(rec, "undo", {"type": "undo"}) is None:
            return
        rec.pause()
        self.model.revert(log)
        self._check_restored(rows_before, total_before)
        rec.resume()
        if self._request(rec, "undo", {"type": "redo"}) is None:
            return
        log = self.model.apply(plan)
        if self._request(rec, "undo", {"type": "undo"}) is not None:
            rec.pause()
            self.model.revert(log)
            self._check_restored(rows_before, total_before)
            rec.resume()

    def _check_restored(self, rows_before: int, total_before: int) -> None:
        """An undo must restore the row count and anomaly total of before."""
        self.undo_checks += 1
        rows, total = self.session.backend.row_count(), self.session.engine.index.total()
        self.oracle.check(rows == rows_before,
                          f"undo restored {rows} rows, expected {rows_before}")
        self.oracle.check(total == total_before,
                          f"undo restored {total} anomalies, expected {total_before}")

    def run_window(self, rec: Recorder, seconds: float) -> None:
        """Whole episodes until ``seconds`` of window time have passed."""
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
        with tracer.interaction("bench.setup.build"):
            layers.install(tracer, shapes)
            server, setup_seconds = timed_setups(lambda: build(frame))
            tracer.unwrap_all()
    else:
        server, setup_seconds = timed_setups(lambda: build(frame))
    model = TableModel(frame)
    loop = Loop(server, model, oracle, make_script(opts.seed))

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
        spans_before = len(tracer.spans)
        loop.tracer = tracer
        loop.apply_seconds.clear()
        loop.redetected.clear()
        shapes.shapes.clear()
        plan_info = server.app.session.backend.db.plan_cache.info()
        layers.install(tracer, shapes)
        try:
            loop.run_window(traced, opts.window)
        finally:
            tracer.unwrap_all()
            loop.tracer = None
        result.per_layer = per_layer(tracer, spans_before, loop, shapes, server,
                                     plan_info)
        result.spans = tracer.spans[spans_before:]
        result.notes.extend(layers.overhead_lines(rec, traced, tracer.spans[spans_before:],
                                                  "bench.edit.apply_repair"))
        rec.attempted += traced.attempted
        rec.failed += traced.failed
        rec.errors.extend(traced.errors)

    e2e["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    model.compare(server.app.session.backend, oracle)
    oracle.check(loop.undo_checks > 0, "no undo was checked")
    result.end_to_end = e2e
    result.oracle_failures = oracle.failures
    result.correct = not oracle.failures
    result.notes.insert(0, f"rows={frame.n_rows} episodes={loop.position} "
                           f"undo checks={loop.undo_checks} cpu_count={os.cpu_count()}")
    result.notes.extend(loop.notes)
    return result


def per_layer(tracer: Tracer, first: int, loop: Loop, shapes, server,
              plan_before: dict) -> dict:
    spans = tracer.spans[first:]
    metrics = layers.common_metrics(spans)
    backend_s = [b for b, _ in loop.apply_seconds]
    replot_s = [r for _, r in loop.apply_seconds]
    n = len(loop.apply_seconds)
    metrics["core.apply_backend_ms"] = Metric(
        float(np.mean(backend_s)) * 1e3 if n else 0.0, "ms", n)
    metrics["charts.replot_ms"] = Metric(
        float(np.mean(replot_s)) * 1e3 if n else 0.0, "ms", n)
    metrics["core.groups_redetected_per_edit"] = Metric(
        float(np.mean(loop.redetected)) if loop.redetected else 0.0, "count",
        len(loop.redetected))
    for metric, name in (("core.generate_groups_s", "core.session.generate_groups"),
                         ("core.detect_all_s", "core.session.detect"),
                         ("backends.load_s", "backends.sql.from_frame")):
        metrics[metric] = layers.median_span_s(tracer.spans[:first], name)
    session = server.app.session
    metrics["snapshots.store_bytes"] = Metric(
        float(session.snapshot_store.total_bytes()), "bytes", len(session.snapshot_store))
    db = session.backend.db
    info = db.plan_cache.info()
    hits = info["hits"] - plan_before["hits"]
    misses = info["misses"] - plan_before["misses"]
    metrics["minidb.plan_cache_hit_rate"] = layers.ratio(hits, hits + misses)
    ratio, lines = layers.explain_replay(db, shapes)
    metrics["minidb.rows_examined_per_row_returned"] = Metric(
        ratio or 0.0, "ratio", len(shapes.shapes))
    loop.notes.append("EXPLAIN ANALYZE replay behind minidb.rows_examined_per_row_returned:")
    loop.notes.extend(lines)
    return metrics
