"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repair_loop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload navigate --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload sql_wire --seed 1 --seconds 2 --smoke

The seed drives both the generated dataset and the operation script.
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it holds every per-layer metric; a traced run spends half of
``--seconds`` in an untraced window and half in a traced one, so the two
medians show the tracing overhead.  The lines before it are the full
report: every end-to-end metric of the workload with unit and sample
count, and for a traced run the per-layer table, the tracing overhead,
one interaction's self-time breakdown, the EXPLAIN ANALYZE replay and
the span file.  ``--smoke`` runs a scaled-down dataset (still checked by
the oracles) for the benchmark's own tests.

The exit code is 1 when an oracle fails and 2 when the program's sources
are missing; neither prints a result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("repair_loop", "navigate", "sql_wire")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def gated_names(kind: str) -> list:
    """Metric names ``BENCHMARK.json`` lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def result_line(result, trace: bool) -> str:
    """The last output line: verdict, operation counts and the metrics
    ``BENCHMARK.json`` lists for this kind of run."""
    if trace:
        source, names = result.per_layer, gated_names("per_layer")
    else:
        source, names = result.end_to_end, gated_names("end_to_end")
    metrics = {}
    for name in names:
        metric = source[name]
        metrics[name] = {"value": metric.value, "unit": metric.unit}
    return json.dumps({
        "correct": result.correct,
        "attempted": result.recorder.attempted,
        "failed": result.recorder.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    opts_ns = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from perfbench.common import OUT_DIR, Options
    from perfbench.measure import print_report

    opts = Options(opts_ns.workload, opts_ns.seed, opts_ns.seconds,
                   bool(opts_ns.trace), opts_ns.smoke)
    module = importlib.import_module(f"perfbench.{opts.workload}")
    result = module.run(opts)
    if opts.trace:
        from perfbench.layers import finish

        result.per_layer = finish(result.per_layer)

    print_report(opts.workload, opts.seed, result.end_to_end, result.recorder,
                 result.notes)
    if opts.trace:
        from perfbench.layers import layer_report, targets

        print("per-layer metrics (traced window), each with the end-to-end "
              "metric/workload it should move:")
        for name, metric in result.per_layer.items():
            note = f"  ({metric.note})" if metric.note else ""
            print(f"  {name:<44} {metric.value:>14.6g} {metric.unit:<6} n={metric.n}"
                  f"  -> {targets(name)}{note}")
        from perfbench.tracing import write_spans

        print(f"per-layer self time, traced window ({len(result.spans)} spans):")
        for line in layer_report(result.spans, opts.workload):
            print(f"  {line}")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{opts.workload}-seed{opts.seed}.jsonl"
        write_spans(result.spans, span_file)
        print(f"span file: {span_file}")
    for failure in result.oracle_failures:
        print(f"ORACLE FAILED: {failure}")
    if not result.correct:
        return 1
    print(result_line(result, opts.trace))
    return 0


if __name__ == "__main__":
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        del sys.path[0]   # keep this directory's modules out of the top level
    sys.exit(main())
