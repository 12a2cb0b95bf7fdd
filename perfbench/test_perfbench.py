"""Fast checks of the benchmark's own arithmetic, scripts and metric names.

These run in well under a second and start no program; the seconds-long
end-to-end smoke runs live in ``perfbench/smoke_check.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import layers, navigate, repair_loop, sql_wire
from perfbench.measure import MIN_BEYOND, percentile
from perfbench.tracing import (
    ID, INTERACTION, Tracer, covered_ns, interaction_breakdown, layer_table,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((ROOT / "perfbench" / "MANIFEST.json").read_text())
ALWAYS = {"setup_s", "ops_per_s", "peak_rss_mb", "fail_share"}
MODULES = {"repair_loop": repair_loop, "navigate": navigate, "sql_wire": sql_wire}


# -- the percentile rule ------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))           # p95 rank 190: exactly 10 beyond
    assert percentile(samples, 95) == 190
    assert percentile(samples[:199], 95) is None   # rank 190, 9 beyond
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(999)), 99) is None


def test_median_is_reported_from_any_sample_count():
    assert percentile([5.0], 50) == 5.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([], 50) is None


def test_withheld_tail_keeps_its_sample_count():
    from perfbench.measure import latency

    metric = latency([0.001] * 50, 95, 1e3, "ms")
    assert metric.value is None and metric.n == 50
    assert str(MIN_BEYOND) in metric.note


# -- self-time arithmetic -------------------------------------------------------------


def span(span_id, parent, start, end, name="core.x", interaction=1):
    return [span_id, parent, interaction, name, start, end, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [span(1, 0, 0, 100, "bench.edit.x"), span(2, 1, 10, 40),
             span(3, 2, 20, 30, "minidb.y"), span(4, 1, 50, 60, "minidb.y")]
    selfs = self_times(spans)
    assert selfs == {1: 60, 2: 20, 3: 10, 4: 10}
    total, per_layer = interaction_breakdown(spans, 1)
    assert total == 100 and sum(per_layer.values()) == 100
    assert per_layer == {"bench": 60, "core": 20, "minidb": 20}


def test_overlapping_children_are_counted_once_and_clipped():
    assert covered_ns(0, 100, [(10, 50), (30, 70), (90, 130)]) == 70
    spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70),
             span(4, 1, 90, 130)]
    assert self_times(spans)[1] == 30


def test_layer_table_sums_self_time_per_layer():
    spans = [span(1, 0, 0, 100, "bench.view.a"), span(2, 1, 0, 40, "ui.s"),
             span(3, 2, 0, 10, "minidb.q")]
    assert layer_table(spans) == {"bench": [60, 1], "ui": [30, 1], "minidb": [10, 1]}


def test_tracer_records_parents_and_restores_originals():
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Target.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Target, "outer", "core.outer")
    tracer.wrap(Target, "inner", "minidb.inner")
    with tracer.interaction("bench.view.t") as root:
        assert Target().outer() == 2
    tracer.unwrap_all()
    assert Target.__dict__["outer"] is original
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["minidb.inner"][1] == by_name["core.outer"][ID]
    assert by_name["core.outer"][1] == root[ID]
    assert {s[INTERACTION] for s in tracer.spans} == {root[ID]}


def test_explain_rows_are_the_actual_rows_not_the_estimates():
    text = "\n".join([
        "cache: miss",
        "Project(a, b) [est_rows=30 rows=10 time=0.323ms]",
        "  Filter(a < param) [est_rows=30 rows=10 time=0.295ms]",
        "    SeqScan(t) [est_rows=100 rows=100 time=0.072ms]",
    ])
    assert layers.scan_and_root_rows(text) == (100, 10)
    never_ran = "Project(a) [est_rows=5]\n  IndexEqScan(t, a) [est_rows=5]"
    assert layers.scan_and_root_rows(never_ran) == (0, 0)


# -- seeded scripts -----------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    repair_loop.make_script,
    navigate.make_script,
    lambda seed: sql_wire.make_script(seed, 0) + sql_wire.make_script(seed, 1),
], ids=["repair_loop", "navigate", "sql_wire"])
def test_same_seed_same_script_other_seed_other_script(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_sql_wire_writes_stay_in_the_connection_slice():
    for client in range(sql_wire.CLIENTS):
        lo, hi = sql_wire.own_slice(client, 38_091)
        for op in sql_wire.make_script(3, client, 2000):
            if op[0] == "write":
                assert lo <= op[1] < hi
    slices = [sql_wire.own_slice(c, 38_091) for c in range(sql_wire.CLIENTS)]
    assert slices[0][0] == 1 and slices[-1][1] == 38_092
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))


# -- metric names ------------------------------------------------------------------------------


def test_every_workload_prints_every_gated_metric():
    gated = [entry["name"] for entry in BENCHMARK["end_to_end"]]
    for name, module in MODULES.items():
        assert set(gated) <= ALWAYS | set(module.END_TO_END), name


def test_every_printed_metric_is_named_in_benchmark_json_or_listed_as_not_gated():
    known = {entry["name"] for entry in BENCHMARK["end_to_end"]}
    known |= set(MANIFEST["not_gated"]["metrics"])
    for module in MODULES.values():
        assert ALWAYS | set(module.END_TO_END) <= known


def test_per_layer_names_agree_between_manifest_and_benchmark_json():
    bench = [e["name"] for e in BENCHMARK["per_layer"]]
    assert list(MANIFEST["per_layer"]) == bench
    for entry in MANIFEST["per_layer"].values():
        assert set(entry) == {"what", "moves"}
        for target in entry["moves"]:
            assert target["workload"] in MODULES
            printed = ALWAYS | set(MODULES[target["workload"]].END_TO_END)
            assert target["metric"] in printed, target
    assert [name for name, _unit in layers.per_layer_names()] == bench


# -- the shape of BENCHMARK.json ------------------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_the_required_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"][1] == "perfbench/run.py"
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(MODULES)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])
