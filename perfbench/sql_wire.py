"""``sql_wire``: two clients over the socket protocol to a file-backed server.

The server is a ``MiniDBServer`` in its own process over StackOverflow
(38,091 rows) loaded file-backed through ``SQLBackend.from_frame(path=...)``
with the default flush policy (``fsync`` = ``commit``); the table is several
times larger than the default 256-page buffer pool.  One load-generator
process runs two connections on two threads, each a closed loop:
80% prepared point reads by uniformly random ``rowid`` and 20% autocommit
single-row ``UPDATE``s of ``job_sat`` inside the connection's own ``rowid``
slice.  Per-group aggregates are left out of the mix on purpose: mixed in,
they dominate read tails and swamp the layers this workload measures.

Oracles: each connection checks that reads of its own slice return its own
last writes, and a final scan must equal the generator's model.
"""

from __future__ import annotations

import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

import numpy as np

from perfbench import layers
from perfbench.common import OUT_DIR, ROOT, Oracle, RunResult, same_value, setup_metric
from perfbench.measure import Metric, Recorder, class_metrics, peak_rss_mb
from perfbench.tracing import ATTRS, END, ID, INTERACTION, NAME, PARENT, START, THREAD, Tracer

COLUMN = "job_sat"
CLIENTS = 2
READ_SHARE = 0.8
READ_SQL = "SELECT * FROM data WHERE rowid = ?"
WRITE_SQL = f'UPDATE data SET "{COLUMN}" = ? WHERE rowid = ?'
SERVER_SPAN_OFFSET = 10 ** 12
#: set-ups per run (``setup_s`` is their median): more than the in-memory
#: workloads' three, because fsync makes a file-backed load noisier and one
#: costs only ~2 s
SETUP_REPEATS = 5
REPLY_TIMEOUT = 150.0
#: seconds the server process gets to exit after ``finish`` before it is killed
EXIT_TIMEOUT = 10.0
#: the traced window is capped: each operation records ~15 spans, and
#: thousands of operations per second already give stable per-layer figures
TRACED_SECONDS = 5.0

END_TO_END = {
    "read_p50_us": ("read", 50),
    "read_p99_us": ("read", 99),
    "write_p50_us": ("write", 50),
    "write_p99_us": ("write", 99),
}


def make_script(seed: int, client: int, length: int = 512) -> list:
    """The first ``length`` ops of one connection's seeded op stream.

    The stream itself is endless (:func:`op_stream`); this prefix is what
    the benchmark's tests compare across seeds.
    """
    stream = op_stream(seed, client, 38_091)
    return [next(stream) for _ in range(length)]


def op_stream(seed: int, client: int, n_rows: int):
    """Endless seeded ``("read", rowid)`` / ``("write", rowid, value)`` ops."""
    rng = np.random.default_rng([seed, 3, client])
    lo, hi = own_slice(client, n_rows)
    while True:
        if rng.random() < READ_SHARE:
            yield ("read", int(rng.integers(1, n_rows + 1)))
        else:
            yield ("write", int(rng.integers(lo, hi)), int(rng.integers(0, 1000)))


def own_slice(client: int, n_rows: int) -> tuple[int, int]:
    """``[lo, hi)`` rowids connection ``client`` writes."""
    width = n_rows // CLIENTS
    lo = 1 + client * width
    return lo, (n_rows + 1 if client == CLIENTS - 1 else lo + width)


def generate(seed: int, smoke: bool):
    from repro.datasets import make_stackoverflow

    frame, _truth = make_stackoverflow(scale=0.05 if smoke else None, seed=seed)
    return frame


# -- server process -------------------------------------------------------------------


def serve_main(argv) -> None:
    """Entry point of the server process (see :func:`start_server`)."""
    fd, seed, smoke, trace, workdir = argv
    serve(Connection(int(fd)), int(seed), smoke == "1", trace == "1", workdir)


def start_server(seed: int, smoke: bool, trace: bool, workdir: str):
    """Start the server as a plain child process; return (process, pipe).

    Not ``multiprocessing``: its spawn start method leaves a resource
    tracker process behind that outlives this one.  The pipe is one end of
    a socket pair, framed and pickled by ``multiprocessing.connection``.
    """
    ours, theirs = socket.socketpair()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        process = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from perfbench.sql_wire import serve_main; serve_main(sys.argv[1:])",
             str(theirs.fileno()), str(seed), str(int(smoke)), str(int(trace)), workdir],
            pass_fds=(theirs.fileno(),), cwd=str(ROOT), env=env)
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()
    return process, Connection(ours.detach())


def stop_server(process, pipe) -> None:
    """Ask the server to finish, wait for it to exit, kill it if it does not."""
    if process.poll() is None:
        try:
            pipe.send("finish")
        except OSError:
            pass
        try:
            process.wait(EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    pipe.close()


def serve(pipe, seed: int, smoke: bool, trace: bool, workdir: str) -> None:
    """The server process: set up, serve, report counters and spans."""
    from repro.backends.sql_backend import SQLBackend
    from repro.minidb.net.server import MiniDBServer

    frame = generate(seed, smoke)
    tracer = Tracer() if trace else None
    shapes = layers.StatementShapes()
    if tracer is not None:
        layers.install(tracer, shapes)
    seconds = []
    backend = server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
            backend.db.close()
        path = os.path.join(workdir, f"setup{attempt}", "data.db")
        os.makedirs(os.path.dirname(path))
        start = time.perf_counter()
        backend = SQLBackend.from_frame(frame, path=path)
        server = MiniDBServer(backend.db)
        server.start()
        seconds.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.unwrap_all()
    db = backend.db
    pipe.send({
        "port": server.address[1], "setup": seconds,
        "pages": db.pager.page_count, "pool_pages": db.pager.pool_pages,
        "rows": backend.row_count(),
    })
    first = 0
    marks = None
    try:
        while True:
            command = pipe.recv()
            if command == "trace_on":
                first = len(tracer.spans)
                shapes.shapes.clear()
                layers.install(tracer, shapes)
                layers.install_net(tracer)
                pipe.send(True)
            elif command == "trace_off":
                tracer.unwrap_all()
                pipe.send(True)
            elif command == "start":
                marks = _counters(db)
                pipe.send(True)
            elif command == "stop":
                now = _counters(db)
                pipe.send({key: now[key] - marks[key] for key in now})
            elif command == "finish":
                break
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        server.stop()
    report = {"peak_rss_mb": peak_rss_mb(), "spans": [], "explain": None}
    if tracer is not None:
        ratio, lines = layers.explain_replay(db, shapes)
        report["explain"] = (ratio, len(shapes.shapes), lines)
        report["spans"] = tracer.spans[first:]
        report["load_s"] = [
            (s[END] - s[START]) / 1e9 for s in tracer.spans[:first]
            if s[NAME] == "backends.sql.from_frame"]
    db.close()
    pipe.send(report)


def _counters(db) -> dict:
    pool = db.pragma("buffer_pool_stats")
    info = db.plan_cache.info()
    return {
        "pager_hits": pool.get("hits", 0), "pager_misses": pool.get("misses", 0),
        "pager_evictions": pool.get("evictions", 0),
        "fsyncs": db.wal.fsync_count,
        "plan_hits": info["hits"], "plan_misses": info["misses"],
        "clock": time.perf_counter(),
    }


# -- load generator ---------------------------------------------------------------------


class Client:
    """One connection's closed loop and its read-your-writes oracle."""

    def __init__(self, number: int, port: int, seed: int, n_rows: int,
                 model: dict, position: int, oracle: Oracle) -> None:
        from repro.minidb.net import client

        self.number = number
        self.connection = client.connect("127.0.0.1", port)
        self.port = self.connection._sock.getsockname()[1]
        self.read = self.connection.prepare(READ_SQL)
        self.write = self.connection.prepare(WRITE_SQL)
        self.ops = op_stream(seed, number, n_rows)
        self.model = model
        self.position = position
        self.slice = own_slice(number, n_rows)
        self.oracle = oracle
        self.tracer: Tracer | None = None
        self.checked = 0

    def run(self, rec: Recorder, deadline: float) -> None:
        lo, hi = self.slice
        while time.perf_counter() < deadline:
            op = next(self.ops)
            if op[0] == "read":
                ok, result = self._timed(rec, "read", self.read.execute, (op[1],))
                if ok and lo <= op[1] < hi:
                    self.checked += 1
                    row = result.rows[0] if result.rows else None
                    self.oracle.check(
                        row is not None
                        and same_value(row[self.position], self.model[op[1]]),
                        f"client {self.number} read rowid {op[1]}: {row and row[self.position]!r}, "
                        f"wrote {self.model[op[1]]!r}")
            else:
                ok, result = self._timed(rec, "write", self.write.execute,
                                         (op[2], op[1]))
                if ok:
                    self.model[op[1]] = op[2]
                    if result.rowcount != 1:
                        rec.fail(f"update of rowid {op[1]} changed {result.rowcount} rows")

    def _timed(self, rec: Recorder, cls: str, fn, params):
        if self.tracer is None:
            return rec.op((cls,), fn, params)
        with self.tracer.interaction(f"bench.{'view' if cls == 'read' else 'edit'}.{cls}") as span:
            span[ATTRS] = {"port": self.port}
            return rec.op((cls,), fn, params)

    def close(self) -> None:
        self.connection.close()


def _window(clients, seconds: float) -> Recorder:
    """Run every client until the deadline; merge their recorders."""
    recorders = [Recorder() for _ in clients]
    errors: list = []

    def body(client, rec):
        try:
            client.run(rec, deadline)
        except Exception as exc:  # a dead connection fails the run, loudly
            errors.append(f"client {client.number}: {type(exc).__name__}: {exc}")

    merged = Recorder()
    merged.start_window()
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(target=body, args=(c, r)) for c, r in zip(clients, recorders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + REPLY_TIMEOUT)
    merged.end_window()
    for rec in recorders:
        merged.attempted += rec.attempted
        merged.failed += rec.failed
        merged.errors.extend(rec.errors)
        for cls, samples in rec.samples.items():
            merged.samples.setdefault(cls, []).extend(samples)
    for error in errors:
        merged.fail(error)
    return merged


def _ask(pipe, command):
    pipe.send(command)
    if not pipe.poll(REPLY_TIMEOUT):
        raise RuntimeError(f"server process did not answer {command!r}")
    return pipe.recv()


def run(opts) -> RunResult:
    oracle = Oracle()
    frame = generate(opts.seed, opts.smoke)
    names = frame.column_names
    position = names.index(COLUMN)
    model = {rowid: row[position] for rowid, row in enumerate(frame.iter_rows(), start=1)}
    n_rows = len(model)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"wire-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    process, pipe = start_server(opts.seed, opts.smoke, opts.trace, str(workdir))
    clients = []
    try:
        if not pipe.poll(REPLY_TIMEOUT):
            raise RuntimeError("server process did not start")
        ready = pipe.recv()
        oracle.check(ready["rows"] == n_rows,
                     f"server loaded {ready['rows']} rows, generated {n_rows}")
        clients = [Client(i, ready["port"], opts.seed, n_rows, model, position, oracle)
                   for i in range(CLIENTS)]
        _ask(pipe, "start")
        rec = _window(clients, opts.window)
        counters = _ask(pipe, "stop")
        result = RunResult(correct=True, recorder=rec)
        e2e = {
            "setup_s": setup_metric(ready["setup"]),
            "ops_per_s": Metric(rec.attempted / rec.window_seconds, "1/s", rec.attempted),
        }
        e2e.update(class_metrics(rec, END_TO_END))
        e2e["fail_share"] = Metric(rec.failed / rec.attempted, "ratio", rec.attempted)
        result.notes.append(
            f"rows={n_rows} table pages={ready['pages']} pool pages={ready['pool_pages']} "
            f"fsyncs/write={counters['fsyncs'] / max(1, len(rec.samples.get('write', []))):.2f} "
            f"clients={CLIENTS} cpu_count={os.cpu_count()}")

        if opts.trace:
            tracer = Tracer()
            layers.install_net(tracer)
            for c in clients:
                c.tracer = tracer
            _ask(pipe, "trace_on")
            _ask(pipe, "start")
            try:
                traced = _window(clients, min(opts.window, TRACED_SECONDS))
            finally:
                tracer.unwrap_all()
                for c in clients:
                    c.tracer = None
            traced_counters = _ask(pipe, "stop")
            _ask(pipe, "trace_off")
            pings = []
            for _ in range(200):
                start = time.perf_counter_ns()
                clients[0].connection.ping()
                pings.append((time.perf_counter_ns() - start) / 1e3)
            rec.attempted += traced.attempted
            rec.failed += traced.failed
            rec.errors.extend(traced.errors)
        _final_scan(clients[0].connection, model, oracle)
        oracle.check(sum(c.checked for c in clients) > 0,
                     "no read of a connection's own slice was checked")
        for c in clients:
            c.close()
        clients = []
        report = _ask(pipe, "finish")
        e2e["peak_rss_mb"] = Metric(report["peak_rss_mb"], "MB", 1)
        if opts.trace:
            spans = merge_spans(tracer.spans, report["spans"])
            result.per_layer = wire_metrics(spans, traced, traced_counters, pings, report)
            result.notes.extend(layers.overhead_lines(rec, traced, spans, "bench.view.read"))
            result.notes.append("EXPLAIN ANALYZE replay behind "
                                "minidb.rows_examined_per_row_returned:")
            result.notes.extend(report["explain"][2])
            result.spans = spans
    finally:
        for c in clients:
            c.close()
        stop_server(process, pipe)
        shutil.rmtree(workdir, ignore_errors=True)
    result.end_to_end = e2e
    result.oracle_failures = oracle.failures
    result.correct = not oracle.failures
    return result


def _final_scan(connection, model: dict, oracle: Oracle) -> None:
    seen = {}
    with connection.stream(f'SELECT rowid, "{COLUMN}" FROM data') as cursor:
        for rowid, value in cursor:
            seen[rowid] = value
    if not oracle.check(sorted(seen) == sorted(model),
                        f"final scan returned {len(seen)} rows, model has {len(model)}"):
        return
    wrong = [rowid for rowid, value in seen.items() if not same_value(value, model[rowid])]
    oracle.check(not wrong, f"final scan: {len(wrong)} rows differ from the model")


def merge_spans(client_spans, server_spans) -> list:
    """Attach server spans to the client exchange that carried them.

    Server span ids are offset so they cannot collide.  A server root
    span (``dispatch``, or the reply encode after it) belongs to the
    client connection its thread serves, and to the exchange on that
    connection whose interval contains it; both processes read the same
    monotonic clock.
    """
    thread_port = {}
    for span in server_spans:
        if span[NAME] == "minidb.net.dispatch" and span[ATTRS]:
            thread_port[span[THREAD]] = span[ATTRS]["port"]
    exchanges: dict = {}
    ports = {s[ID]: (s[ATTRS] or {}).get("port") for s in client_spans
             if s[NAME].startswith("bench.")}
    for span in client_spans:
        if span[NAME] == "minidb.net.exchange":
            exchanges.setdefault(ports.get(span[INTERACTION]), []).append(span)
    for spans in exchanges.values():
        spans.sort(key=lambda s: s[START])
    starts = {port: [s[START] for s in spans] for port, spans in exchanges.items()}

    merged = list(client_spans)
    for span in server_spans:
        span = list(span)
        span[ID] += SERVER_SPAN_OFFSET
        if span[PARENT]:
            span[PARENT] += SERVER_SPAN_OFFSET
        else:
            port = thread_port.get(span[THREAD])
            candidates = exchanges.get(port, [])
            index = int(np.searchsorted(starts.get(port, []), span[START], side="right")) - 1
            if 0 <= index and candidates[index][END] >= span[END]:
                owner = candidates[index]
                span[PARENT] = owner[ID]
                span[INTERACTION] = owner[INTERACTION]
        merged.append(span)
    # children of server roots inherit the interaction their root found
    by_id = {s[ID]: s for s in merged}
    for span in merged:
        if span[ID] >= SERVER_SPAN_OFFSET:
            root = span
            while root[PARENT] >= SERVER_SPAN_OFFSET and root[PARENT] in by_id:
                root = by_id[root[PARENT]]
            if root[PARENT] and root[PARENT] < SERVER_SPAN_OFFSET:
                span[INTERACTION] = by_id[root[PARENT]][INTERACTION]
            else:
                span[INTERACTION] = 0
    return merged


def wire_metrics(spans, traced: Recorder, counters: dict, pings, report) -> dict:
    metrics = layers.common_metrics(spans)
    reads = len(traced.samples.get("read", []))
    writes = len(traced.samples.get("write", []))
    seconds = counters["clock"]
    lookups = counters["pager_hits"] + counters["pager_misses"]
    metrics["minidb.pager_hit_rate"] = layers.ratio(counters["pager_hits"], lookups)
    metrics["minidb.pager_reads_per_read"] = layers.ratio(
        counters["pager_misses"], reads, "count")
    metrics["minidb.pager_evictions_per_s"] = Metric(
        counters["pager_evictions"] / seconds if seconds else 0.0, "1/s",
        counters["pager_evictions"])
    metrics["minidb.wal_fsyncs_per_commit"] = layers.ratio(counters["fsyncs"], writes, "count")
    metrics["minidb.plan_cache_hit_rate"] = layers.ratio(
        counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"])
    metrics["minidb.net.ping_us"] = Metric(statistics.median(pings), "us", len(pings))
    exchange = layers.SpanIndex(spans).mean_us("minidb.net.exchange")
    dispatch = metrics["minidb.net.dispatch_us"]
    metrics["minidb.net.wait_us"] = Metric(
        exchange.value - dispatch.value if exchange.n else 0.0, "us", exchange.n)
    ratio, shapes, _lines = report["explain"]
    metrics["minidb.rows_examined_per_row_returned"] = Metric(ratio or 0.0, "ratio", shapes)
    loads = report.get("load_s") or []
    metrics["backends.load_s"] = Metric(statistics.median(loads) if loads else 0.0,
                                        "s", len(loads))
    return metrics
