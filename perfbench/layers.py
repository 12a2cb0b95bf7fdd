"""Which program functions the traced run wraps, and the per-layer metrics.

Span names start with the layer they time (``ui``, ``core``, ``backends``,
``charts``, ``sampling``, ``snapshots``, ``zoom``, ``minidb``); the
benchmark's own interaction spans start with ``bench``, so a layer table
row ``bench`` is time spent outside every wrapped program call.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

from perfbench.measure import Metric
from perfbench.tracing import (
    ATTRS, END, INTERACTION, NAME, START, interaction_breakdown, layer_table,
)

MANIFEST = Path(__file__).resolve().parent / "MANIFEST.json"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

LAYERS = ("ui", "core", "backends", "charts", "sampling", "snapshots", "zoom",
          "minidb", "bench")


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, as BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return [(entry["name"], entry["unit"]) for entry in spec["per_layer"]]


class StatementShapes:
    """Distinct SQL texts executed while tracing, with one sample binding."""

    def __init__(self) -> None:
        self.shapes: dict = {}

    def note(self, args, _kwargs, _result):
        statement = args[0]
        params = args[1] if len(args) > 1 else _kwargs.get("params", ())
        entry = self.shapes.get(statement.sql)
        if entry is None:
            self.shapes[statement.sql] = [tuple(params), 1]
        else:
            entry[1] += 1
        return None


#: an operator's actual output rows; the word boundary skips ``est_rows=``
_ROWS = re.compile(r"\brows=(\d+)")


def scan_and_root_rows(text: str) -> tuple[int, int]:
    """(rows produced by scan and lookup operators, rows of the root) from
    one EXPLAIN ANALYZE text; operators that never ran count 0."""
    actual = []
    for line in text.splitlines():
        if "est_rows=" in line:
            found = _ROWS.search(line)
            actual.append((line, int(found.group(1)) if found else 0))
    if not actual:
        return 0, 0
    scans = sum(rows for line, rows in actual if "Scan" in line or "Lookup" in line)
    return scans, actual[0][1]


def explain_replay(db, shapes: StatementShapes) -> tuple[float | None, list]:
    """Replay each SELECT shape once under EXPLAIN ANALYZE.

    Returns (rows examined by scans / rows returned by the root, weighted
    by how often each shape ran; the report lines).  DML shapes cannot be
    analyzed by minidb and are listed as skipped.
    """
    examined = returned = 0
    lines = []
    for sql, (params, count) in sorted(shapes.shapes.items()):
        if not sql.lstrip().upper().startswith("SELECT"):
            lines.append(f"skipped (not a SELECT) x{count}: {sql}")
            continue
        text = db.prepare(sql).explain(params, analyze=True)
        scans, root = scan_and_root_rows(text)
        examined += scans * count
        returned += max(root, 1) * count
        lines.append(f"x{count} scanned={scans} returned={root}: {sql}")
        lines.extend("    " + line for line in text.splitlines())
    return (examined / returned if returned else None), lines


def install(tracer, shapes: StatementShapes | None = None) -> None:
    """Wrap the in-process layers' public functions."""
    import importlib

    from repro.backends.sql_backend import SQLBackend
    from repro.charts.matrix import ChartMatrix
    from repro.charts.scatter import ScatterChart
    from repro.core.engine import DetectionEngine
    from repro.core.groups import GroupManager
    from repro.core.overlap import OverlapGraph
    from repro.core.session import BuckarooSession
    from repro.minidb import database, executor, parser, plan_cache, prepared
    from repro.minidb.pager import Pager
    from repro.minidb.prepared import PreparedStatement
    from repro.minidb.wal import WriteAheadLog
    from repro.sampling.error_first import ErrorFirstSampler
    from repro.snapshots.store import DifferentialStore
    from repro.ui.app import BuckarooApp
    from repro.ui.server import BuckarooServer
    from repro.ui.summary import SummaryPanel
    from repro.zoom.engine import DrillDownApp, ZoomEngine

    wrap = tracer.wrap
    wrap(BuckarooServer, "handle_request", "ui.server.handle_request")
    wrap(BuckarooApp, "handle", "ui.app.handle")
    wrap(SummaryPanel, "lines", "ui.summary.lines")

    for method in ("suggest", "speculate", "preview", "apply", "undo", "redo",
                   "generate_groups", "detect"):
        wrap(BuckarooSession, method, f"core.session.{method}")
    wrap(GroupManager, "refresh", "core.groups.refresh",
         lambda a, k, r: {"n": len(a[1])})
    wrap(DetectionEngine, "detect_groups", "core.engine.detect_groups")
    wrap(DetectionEngine, "detect_all", "core.engine.detect_all")
    wrap(OverlapGraph, "affected_groups", "core.overlap.affected_groups")

    for method in ("group_row_ids", "group_sizes", "delete_rows", "set_cells",
                   "apply_delta", "from_frame", "numeric_stats", "values",
                   "missing_row_ids", "mismatch_row_ids", "out_of_range_row_ids"):
        wrap(SQLBackend, method, f"backends.sql.{method}")

    wrap(ChartMatrix, "chart", "charts.matrix.chart")
    wrap(importlib.import_module("repro.charts.render_text"), "render_text",
         "charts.render_text")
    wrap(ScatterChart, "refresh", "sampling.scatter.refresh")
    wrap(ErrorFirstSampler, "sample_groups", "sampling.error_first.sample_groups")
    wrap(DifferentialStore, "record", "snapshots.store.record",
         lambda a, k, r: {"rows": len(a[1].row_ids())})

    for method in ("fetch", "drill_down", "pan", "invalidate"):
        wrap(ZoomEngine, method, f"zoom.engine.{method}")
    for method in ("current_view", "drill_into", "roll_up", "remove_row"):
        wrap(DrillDownApp, method, f"zoom.drilldown.{method}")

    wrap(PreparedStatement, "execute", "minidb.prepared.execute",
         shapes.note if shapes is not None else None)
    wrap(PreparedStatement, "stream", "minidb.prepared.stream",
         shapes.note if shapes is not None else None)
    wrap(PreparedStatement, "executemany", "minidb.prepared.executemany")
    wrap(database, "parse", "minidb.parser.parse")
    wrap(parser, "parse", "minidb.parser.parse")
    wrap(prepared, "validation_key", "minidb.plan_cache.validation_key")
    wrap(plan_cache, "validation_key", "minidb.plan_cache.validation_key")
    wrap(prepared, "select_plan", "minidb.planner.select_plan")
    wrap(executor, "cached_dml", "minidb.planner.cached_dml")
    wrap(executor, "run_select_plan", "minidb.executor.run_select_plan")
    wrap(executor, "run_dml", "minidb.executor.run_dml")
    wrap(WriteAheadLog, "sync", "minidb.wal.sync")
    wrap(Pager, "get", "minidb.pager.get")


def install_net(tracer) -> None:
    """Wrap the wire layer: server dispatch, client exchange, codec."""
    from repro.minidb.net import client, framing, wire
    from repro.minidb.net.server import MiniDBServer

    tracer.wrap(MiniDBServer, "dispatch", "minidb.net.dispatch",
                lambda a, k, r: {"port": a[1].address[1]})
    tracer.wrap(client.NetworkConnection, "_exchange", "minidb.net.exchange")
    tracer.wrap(framing, "encode_frame", "minidb.net.codec.encode_frame")
    tracer.wrap(framing, "decode_body", "minidb.net.codec.decode_body")
    tracer.wrap(wire, "encode_result", "minidb.net.codec.encode_result")
    tracer.wrap(wire, "decode_rows", "minidb.net.codec.decode_rows")


# -- metric arithmetic ------------------------------------------------------------


class SpanIndex:
    """Span lookups by name and by interaction class."""

    def __init__(self, spans) -> None:
        self.by_name: dict = {}
        for span in spans:
            self.by_name.setdefault(span[NAME], []).append(span)
        self.roots = [s for s in spans if s[NAME].startswith("bench.")]

    def named(self, *names) -> list:
        return [span for name in names for span in self.by_name.get(name, ())]

    def mean_ms(self, *names) -> Metric:
        spans = self.named(*names)
        if not spans:
            return Metric(0.0, "ms", 0)
        return Metric(
            statistics.fmean((s[END] - s[START]) / 1e6 for s in spans), "ms",
            len(spans))

    def mean_us(self, *names) -> Metric:
        metric = self.mean_ms(*names)
        return Metric(metric.value * 1e3, "us", metric.n)

    def roots_of(self, *classes) -> list:
        return [s for s in self.roots if s[NAME].split(".")[1] in classes]

    def per_interaction(self, names, classes, weight=None) -> Metric:
        """Spans named ``names`` (or ``weight(span)`` summed) per root."""
        roots = self.roots_of(*classes)
        if not roots:
            return Metric(0.0, "count", 0)
        ids = {s[0] for s in roots}
        total = 0
        for span in self.named(*names):
            if span[INTERACTION] in ids:
                total += weight(span) if weight else 1
        return Metric(total / len(roots), "count", len(roots))


def attr(key):
    return lambda span: (span[ATTRS] or {}).get(key, 0)


def layer_self_metrics(spans) -> dict:
    """``self.<layer>_ms_per_op``: each layer's self time per interaction."""
    ids = {s[0] for s in spans if s[NAME].startswith("bench.")}
    table = layer_table([s for s in spans if s[INTERACTION] in ids])
    roots = len(ids)
    out = {}
    for layer in LAYERS:
        self_ns, _count = table.get(layer, (0, 0))
        out[f"self.{layer}_ms_per_op"] = Metric(
            self_ns / 1e6 / roots if roots else 0.0, "ms", roots)
    return out


def common_metrics(spans) -> dict:
    """Per-layer metrics computed from spans alone."""
    ix = SpanIndex(spans)
    out: dict = {}
    handle = ix.named("ui.server.handle_request")
    inner = {s[0]: 0 for s in handle}
    for span in ix.named("ui.app.handle"):
        parent = span[1]
        if parent in inner:
            inner[parent] += span[END] - span[START]
    out["ui.protocol_self_ms"] = Metric(
        statistics.fmean(((s[END] - s[START]) - inner[s[0]]) / 1e6 for s in handle)
        if handle else 0.0, "ms", len(handle))

    suggests = ix.named("core.session.suggest")
    speculations = ix.named("core.session.speculate")
    out["core.speculations_per_suggest"] = Metric(
        len(speculations) / len(suggests) if suggests else 0.0, "count",
        len(suggests))
    out["core.speculate_ms"] = ix.mean_ms("core.session.speculate")
    out["core.group_refresh_ms"] = ix.mean_ms("core.groups.refresh")
    out["core.groups_refreshed_per_edit"] = ix.per_interaction(
        ["core.groups.refresh"], ["edit"], attr("n"))
    out["core.redetect_ms"] = ix.mean_ms("core.engine.detect_groups")
    out["core.overlap_ms"] = ix.mean_ms("core.overlap.affected_groups")
    out["backends.group_row_ids_ms"] = ix.mean_ms("backends.sql.group_row_ids")
    out["backends.group_row_ids_per_edit"] = ix.per_interaction(
        ["backends.sql.group_row_ids"], ["edit"])
    out["backends.mutate_ms"] = ix.mean_ms("backends.sql.delete_rows",
                                           "backends.sql.set_cells")
    out["backends.apply_delta_ms"] = ix.mean_ms("backends.sql.apply_delta")
    out["sampling.scatter_ms"] = ix.mean_ms("sampling.scatter.refresh")
    out["snapshots.delta_rows_per_edit"] = ix.per_interaction(
        ["snapshots.store.record"], ["edit"], attr("rows"))
    out["zoom.bar_query_ms"] = ix.mean_ms("zoom.drilldown.current_view")

    ops = len(ix.roots)
    executes = ix.named("minidb.prepared.execute", "minidb.prepared.stream")
    out["minidb.statements_per_op"] = Metric(
        len(executes) / ops if ops else 0.0, "count", ops)
    out["minidb.execute_ms"] = ix.mean_ms("minidb.prepared.execute",
                                          "minidb.prepared.stream")
    parses = ix.named("minidb.parser.parse")
    out["minidb.parse_calls_per_op"] = Metric(
        len(parses) / ops if ops else 0.0, "count", ops)
    out["minidb.validation_us"] = ix.mean_us("minidb.plan_cache.validation_key")
    out["minidb.wal_sync_us"] = ix.mean_us("minidb.wal.sync")
    out["minidb.net.dispatch_us"] = ix.mean_us("minidb.net.dispatch")
    codec = ix.named("minidb.net.codec.encode_frame", "minidb.net.codec.decode_body",
                     "minidb.net.codec.encode_result", "minidb.net.codec.decode_rows")
    exchanges = ix.named("minidb.net.exchange")
    out["minidb.net.codec_us"] = Metric(
        sum(s[END] - s[START] for s in codec) / 1e3 / len(exchanges)
        if exchanges else 0.0, "us", len(exchanges))
    out.update(layer_self_metrics(spans))
    return out


def ratio(num: float, den: float, unit: str = "ratio", n: int | None = None) -> Metric:
    return Metric(num / den if den else 0.0, unit, int(den) if n is None else n)


def finish(metrics: dict) -> dict:
    """Order ``metrics`` as BENCHMARK.json lists them; absent ones read 0.

    A metric of a layer the workload does not exercise is a measured
    zero (no calls were made), reported with ``n=0``.
    """
    out = {}
    for name, unit in per_layer_names():
        metric = metrics.get(name)
        if metric is None:
            metric = Metric(0.0, unit, 0, "layer not exercised by this workload")
        metric.unit = unit
        out[name] = metric
    return out


def targets(name: str) -> str:
    """``metric/workload`` pairs the per-layer metric ``name`` should move."""
    entry = json.loads(MANIFEST.read_text())["per_layer"][name]
    moves = [f"{t['metric']}/{t['workload']}" for t in entry["moves"]]
    return ", ".join(moves) or "its layer's share of every interaction"


def layer_report(spans, workload: str) -> list:
    """Per-layer table lines: self time, span count, metric each should move."""
    manifest = json.loads(MANIFEST.read_text())
    moves: dict = {}
    for name, entry in manifest["per_layer"].items():
        layer = name.split(".", 1)[0]
        if layer == "self":
            continue
        for target in entry.get("moves", ()):
            if target["workload"] == workload:
                moves.setdefault(layer, set()).add(target["metric"])
    roots = [s for s in spans if s[NAME].startswith("bench.")]
    ids = {s[0] for s in roots}
    table = layer_table([s for s in spans if s[INTERACTION] in ids])
    total = sum(s[END] - s[START] for s in roots) or 1
    lines = [f"{'layer':<10} {'self ms':>12} {'share':>7} {'spans':>9}  should move ({workload})"]
    for layer in LAYERS:
        self_ns, count = table.get(layer, (0, 0))
        target = ", ".join(sorted(moves.get(layer, ()))) or "-"
        lines.append(f"{layer:<10} {self_ns / 1e6:>12.2f} {self_ns / total:>7.1%} "
                     f"{count:>9}  {target}")
    return lines


def overhead_lines(untraced, traced, spans, root_name: str) -> list:
    """Tracing overhead per class, and one interaction's layer breakdown.

    The breakdown is of a ``root_name`` interaction from the middle of the
    traced window (any interaction when the window had none).
    """
    lines = []
    for cls in sorted(set(untraced.samples) & set(traced.samples)):
        a = statistics.median(untraced.samples[cls]) * 1e3
        b = statistics.median(traced.samples[cls]) * 1e3
        lines.append(f"tracing overhead {cls}: untraced p50 {a:.3f} ms, "
                     f"traced p50 {b:.3f} ms, overhead {b - a:+.3f} ms")
    roots = ([s for s in spans if s[NAME] == root_name]
             or [s for s in spans if s[NAME].startswith("bench.")])
    if roots:
        root = roots[len(roots) // 2]
        total, per_layer_ns = interaction_breakdown(spans, root[0])
        parts = " + ".join(f"{k} {v / 1e6:.3f}" for k, v in sorted(per_layer_ns.items()))
        lines.append(f"interaction {root[0]} ({root[NAME]}): traced {total / 1e6:.3f} ms "
                     f"= sum of layer self times ({parts}) = "
                     f"{sum(per_layer_ns.values()) / 1e6:.3f} ms")
    return lines


def median_span_s(spans, name: str) -> Metric:
    """Median duration (s) of the spans called ``name``."""
    durations = [(s[END] - s[START]) / 1e9 for s in spans if s[NAME] == name]
    return Metric(statistics.median(durations) if durations else 0.0, "s",
                  len(durations))
