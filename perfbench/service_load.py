"""The ``service_rw`` workload: a heavy reader beside a light read/write
stream on one SGB service.

The server runs in its own process (``perfbench/launcher.py``).  Set-up
loads the first rows of a seeded ``gowalla`` dataset over the wire and
runs ``ANALYZE``.  The timed window then runs two connections on two
threads of this process (the main thread and one more):

* the heavy reader, a closed loop of SGB-Any over the whole table;
* the light stream, an open loop at ``light_rate`` ops/s cycling an
  ``INSERT`` of ``batch`` new rows, a point ``count(*)`` of one user and
  a snapshot of the stream view.  Each light op is timed from the moment
  it was due, so a stall also charges the ops queued behind it.

Every answer is checked after the window.  A heavy result's group sizes
sum to the number of rows it saw, which names the prefix of the insert
sequence it read; its groups, and every view snapshot's labels, must
equal the brute-force SGB-Any oracle on that prefix.  Point counts must
match the rows inserted so far (only the light stream writes).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.embedded import first_appearance, group_sizes, time_setup
from perfbench.measure import OpLog, Report, Speed, percentile, tail

_clock = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 5
#: One ε for the heavy query, the stream view and their oracle.
EPS = 0.05
VIEW = "checkins_any"
HEAVY_SQL = ("SELECT count(*) AS n FROM checkins GROUP BY latitude, "
             f"longitude DISTANCE-TO-ANY L2 WITHIN {EPS}")
LIGHT_KINDS = ("insert", "point", "snapshot")


class Launcher:
    """The server process; :meth:`stop` returns its final report."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.launcher"], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = int(self._read()["port"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited unexpectedly")
        return json.loads(line)

    def send(self, **msg) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def trace(self, on: bool) -> None:
        self.send(cmd="trace", on=on)
        self._read()

    def stop(self, spans: Optional[str] = None) -> dict:
        try:
            self.send(cmd="stop", spans=spans)
            return self._read()
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def _values_sql(rows) -> str:
    return "INSERT INTO checkins VALUES " + ", ".join(
        f"({u}, {lat!r}, {lon!r})" for u, lat, lon in rows)


class ServiceRW:
    """Sizes and rates of the workload; inputs depend only on the seed."""

    name = "service_rw"

    #: Rows per light-stream INSERT, and per INSERT while loading.
    batch = 10
    load_batch = 100
    #: Light-stream ops per second.
    light_rate = 8.0

    def __init__(self, initial: int = 2000, pool: int = 4000) -> None:
        self.initial = initial
        self.pool = pool

    def inputs(self, seed: int) -> Tuple[list, List[int]]:
        """All rows in insert order (set-up rows first) and the user ids
        of the point queries."""
        from repro.workloads import gowalla

        rows = list(gowalla(self.initial + self.pool, seed=seed).rows)
        rng = random.Random(seed)
        users = sorted({r[0] for r in rows[:self.initial]})
        keys = [rng.choice(users) for _ in range(self.pool)]
        return rows, keys

    def setup(self, seed: int) -> Tuple[Launcher, object, list, List[int]]:
        """Generate, start the server, load and ANALYZE over the wire."""
        from repro.service import ServiceClient

        rows, keys = self.inputs(seed)
        launcher = Launcher()
        try:
            client = ServiceClient(port=launcher.port)
            for i in range(0, self.initial, self.load_batch):
                client.execute(_values_sql(
                    rows[i:min(i + self.load_batch, self.initial)]))
            client.execute("ANALYZE")
        except BaseException:
            launcher.kill()
            raise
        return launcher, client, rows, keys


class _Window:
    """State and samples of one timed window."""

    def __init__(self, wl: ServiceRW, rows: list, keys: List[int],
                 inserts_done: int) -> None:
        self.wl = wl
        self.rows = rows
        self.keys = keys
        self.inserts = inserts_done  # written by the light thread only
        self.log = OpLog()
        self.speed = Speed()
        self.late_ms: List[float] = []
        self.heavy: List[Tuple[int, int, List[int]]] = []
        self.snapshots: List[Tuple[int, List[int]]] = []
        self.points: List[Tuple[int, int, int]] = []


def _light_loop(win: _Window, client, t_start: float, deadline: float,
                rec) -> None:
    wl = win.wl
    period = 1.0 / wl.light_rate
    i = 0
    while True:
        due = t_start + i * period
        if due >= deadline:
            return
        delay = due - _clock()
        if delay > 0:
            time.sleep(delay)
        win.late_ms.append(max(0.0, _clock() - due) * 1000.0)
        kind = LIGHT_KINDS[i % 3]
        i += 1
        win.log.attempted += 1
        frame = rec.push("op", kind=kind) if rec is not None else None
        try:
            visible = wl.initial + wl.batch * win.inserts
            if kind == "insert":
                if visible + wl.batch > len(win.rows):
                    raise RuntimeError("insert pool exhausted")
                status = client.execute(
                    _values_sql(win.rows[visible:visible + wl.batch])).status
                ok = status == f"INSERT {wl.batch}"
                if ok:
                    win.inserts += 1
                answer = None if ok else f"status {status!r}"
            elif kind == "point":
                user = win.keys[i % len(win.keys)]
                got = client.query("SELECT count(*) FROM checkins "
                                   f"WHERE user_id = {user}").rows[0][0]
                win.points.append((visible, user, got))
                answer = None
            else:
                snap = client.stream_snapshot(VIEW)
                answer = None
                if snap["n_points"] != visible:
                    answer = f"snapshot of {snap['n_points']} rows, "\
                             f"{visible} inserted"
                else:
                    win.snapshots.append((visible, snap["labels"]))
        except Exception as exc:  # counted as a failed op
            answer = f"{type(exc).__name__}: {exc}"
        finally:
            if frame is not None:
                rec.pop(frame)
        if answer is None:
            ms = (_clock() - due) * 1000.0
            win.log.record(kind, ms, ms)  # scaled after the window
        else:
            win.log.fail(f"{kind}: {answer}")


def run_window(win: _Window, light_client, heavy_client, seconds: float,
               rec=None) -> None:
    """Heavy reader on this thread, light stream on one more."""
    t_start = _clock()
    deadline = t_start + seconds
    light = threading.Thread(target=_light_loop, name="light",
                             args=(win, light_client, t_start, deadline, rec))
    light.start()
    speed = win.speed
    before = speed.probe()
    try:
        while _clock() < deadline:
            win.log.attempted += 1
            frame = rec.push("op", kind="heavy") if rec is not None else None
            lo = win.inserts
            t0 = _clock()
            try:
                rows = heavy_client.query(HEAVY_SQL).rows
            except Exception as exc:  # counted as a failed op
                win.log.fail(f"heavy: {type(exc).__name__}: {exc}")
                rows = None
            finally:
                if frame is not None:
                    rec.pop(frame)
            ms = (_clock() - t0) * 1000.0
            # The heavy reader calibrates between its queries, so the
            # probes see the machine while the workload runs (probes on
            # the light thread would queue behind the heavy reader for
            # the interpreter lock).
            after = speed.probe()
            if rows is not None:
                win.log.record("heavy", ms, speed.scale(ms, before, after))
                win.heavy.append((lo, win.inserts + 1, [r[0] for r in rows]))
            before = after
    finally:
        light.join(timeout=120)
    if light.is_alive():
        raise RuntimeError("light stream did not finish")
    # Light ops are scaled by the window's median calibration.
    f = speed.factor()
    for kind in LIGHT_KINDS:
        win.log.scaled[kind] = [x * f for x in win.log.samples.get(kind, [])]


def heavy_qps(log: OpLog, scaled: bool) -> float:
    """Heavy-reader completions per second of its own query time."""
    xs = (log.scaled if scaled else log.samples).get("heavy", [])
    return len(xs) / (sum(xs) / 1000.0)


def light_samples(log: OpLog, scaled: bool, kinds=LIGHT_KINDS) -> List[float]:
    by_kind = log.scaled if scaled else log.samples
    return [x for k in kinds for x in by_kind.get(k, [])]


def check_window(win: _Window, oracle: Dict[int, List[int]]) -> None:
    """Check heavy results and snapshots against the SGB-Any oracle on the
    prefix each one saw (outside the timed window)."""
    from repro.core.api import sgb_any

    wl = win.wl

    def labels_for(visible: int) -> List[int]:
        if visible not in oracle:
            points = [(r[1], r[2]) for r in win.rows[:visible]]
            oracle[visible] = sgb_any(points, EPS,
                                      strategy="all-pairs").labels
        return oracle[visible]

    for lo, hi, sizes in win.heavy:
        seen = sum(sizes)
        j, extra = divmod(seen - wl.initial, wl.batch)
        if extra or not lo <= j <= hi:
            win.log.fail(f"heavy: saw {seen} rows, not a committed prefix")
        elif sizes != group_sizes(labels_for(seen)):
            win.log.fail(f"heavy: groups over {seen} rows differ from "
                         "the brute-force oracle")
    for visible, user, got in win.points:
        want = sum(1 for r in win.rows[:visible] if r[0] == user)
        if got != want:
            win.log.fail(f"point: count({user}) = {got}, inserted {want}")
    for visible, labels in win.snapshots:
        if first_appearance(labels) != labels_for(visible):
            win.log.fail(f"snapshot: groups over {visible} rows differ "
                         "from the brute-force oracle")


def _service_series(text: str) -> Dict[str, float]:
    from repro.obs.export import parse_prometheus_text

    return {name: v for (name, labels), v in
            parse_prometheus_text(text).items()
            if name.startswith("repro_service_")}


def run(wl: ServiceRW, seed: int, seconds: float, trace: bool,
        spans_path: Optional[str] = None):
    """Set up, run the window(s), check; returns ``(report, log)``."""
    from repro.service import ServiceClient

    needed_inserts = seconds * wl.light_rate / 3 + 2
    if needed_inserts * wl.batch > wl.pool:
        raise ValueError(f"{seconds} s needs more than {wl.pool} pool rows")
    setup_raw, setup_scaled = [], []
    launcher = client = None
    for _ in range(SETUP_REPS):
        if launcher is not None:
            client.close()
            launcher.stop()
        speed = Speed()
        t, (launcher, client, rows, keys) = time_setup(
            speed, lambda: wl.setup(seed))
        setup_raw.append(t)
        setup_scaled.append(t * speed.factor())
    report = Report(wl.name, seed, trace)
    heavy_client = None
    traced = None
    try:
        heavy_client = ServiceClient(port=launcher.port)
        heavy_client.query(HEAVY_SQL)  # warm the plan and the kernels
        if trace:
            traced = _traced_windows(wl, rows, keys, launcher, client,
                                     heavy_client, seconds)
        else:
            win = _Window(wl, rows, keys, 0)
            run_window(win, client, heavy_client, seconds)
    finally:
        for c in (client, heavy_client):
            if c is not None:
                c.close()
        server = launcher.stop(spans_path)

    oracle: Dict[int, List[int]] = {}
    if not trace:
        check_window(win, oracle)
        _end_to_end(report, win, setup_raw, setup_scaled,
                    server["peak_rss_mb"])
        return report, win.log
    untraced, win, rec, metrics_before, metrics_after, pings = traced
    first = _combine(untraced)
    check_window(first, oracle)
    check_window(win, oracle)
    win.log.merge(first.log)
    _per_layer(report, first, win, rec, server, metrics_before,
               metrics_after, pings)
    if spans_path is not None:
        n = rec.write_spans(spans_path + ".client")
        report.note(f"# spans written to {spans_path} ({server.get('spans')})"
                    f" and {spans_path}.client ({n})")
    return report, win.log


#: Sub-windows of a traced run, in order, as (traced, share of the run):
#: an untraced quarter, a traced half, an untraced quarter.  The table
#: grows during the run, and this order gives the untraced and the traced
#: part the same mean table size, so their ratio measures the shims and
#: not the growth.
TRACE_PATTERN = ((False, 0.25), (True, 0.5), (False, 0.25))


def _traced_windows(wl: ServiceRW, rows, keys, launcher: Launcher, client,
                    heavy_client, seconds: float):
    """Sub-windows in :data:`TRACE_PATTERN`, with shims on both sides in
    the traced one; returns the untraced windows, the traced one, the
    recorder, the server metrics around the traced window and pings."""
    from perfbench.tracing import Recorder, install

    rec = Recorder()
    untraced: List[_Window] = []
    inserts = 0
    for traced, share in TRACE_PATTERN:
        win = _Window(wl, rows, keys, inserts)
        if not traced:
            run_window(win, client, heavy_client, seconds * share)
            untraced.append(win)
        else:
            launcher.trace(True)
            before = client.metrics()
            shims = install(rec)
            try:
                run_window(win, client, heavy_client, seconds * share,
                           rec=rec)
            finally:
                shims.remove()
            after = client.metrics()
            launcher.trace(False)
            traced_win = win
        inserts = win.inserts
    pings = []
    for _ in range(20):
        t0 = _clock()
        client.ping()
        pings.append((_clock() - t0) * 1000.0)
    return untraced, traced_win, rec, before, after, pings


def _combine(windows: List[_Window]) -> _Window:
    """One window holding the samples, answers and counts of several."""
    first = windows[0]
    out = _Window(first.wl, first.rows, first.keys, first.inserts)
    for win in windows:
        for kind, xs in win.log.samples.items():
            out.log.samples.setdefault(kind, []).extend(xs)
            out.log.scaled.setdefault(kind, []).extend(win.log.scaled[kind])
        out.log.merge(win.log)
        out.late_ms += win.late_ms
        out.heavy += win.heavy
        out.snapshots += win.snapshots
        out.points += win.points
    return out


def _per_layer(report: Report, first: _Window, win: _Window, rec,
               server: dict, before_text: str, after_text: str,
               pings: List[float]) -> None:
    from perfbench import layers

    client_totals = layers.Totals(*rec.totals())
    server_totals = layers.Totals(
        {(k, n): v for k, n, v in server["agg"]},
        {(k, n): v for k, n, v in server["counts"]})
    n_ops = sum(len(v) for v in win.log.samples.values())
    counters = layers.counter_delta(layers.engine_counters(before_text),
                                    layers.engine_counters(after_text))
    values = layers.layer_metrics(server_totals, n_ops, counters)
    svc_before = _service_series(before_text)
    svc_after = _service_series(after_text)

    def delta(name: str) -> float:
        return svc_after.get(name, 0.0) - svc_before.get(name, 0.0)

    def mean_ms(hist: str) -> float:
        count = delta(f"repro_service_{hist}_seconds_count")
        return delta(f"repro_service_{hist}_seconds_sum") * 1000.0 / count \
            if count else 0.0

    values["service.queue_wait_ms"] = mean_ms("queue_wait_latency")
    values["service.exec_ms"] = mean_ms("exec_latency")
    values["service.wire_ms"] = client_totals.self_s("service.wire") \
        * 1000.0 / n_ops
    values["service.ping_rtt_ms"] = statistics.median(pings)
    values["service.rejected"] = delta("repro_service_rejected_total")
    values["service.timeouts"] = delta("repro_service_timeouts_total")
    values["loadgen.late_p99_ms"] = percentile(win.late_ms, 99)
    values["trace.overhead_ratio"] = (heavy_qps(first.log, True)
                                      / heavy_qps(win.log, True))
    for name in layers.PER_LAYER:
        report.add(name, values[name], layers.unit_of(name), n_ops,
                   result=True)
    kinds = ("heavy",) + LIGHT_KINDS
    for kind in kinds:
        xs = first.log.samples.get(kind, [])
        if xs:
            report.add(f"untraced.{kind}_p50_ms", statistics.median(xs),
                       "ms", len(xs))
    for line in layers.self_time_table(client_totals, kinds, ("op",),
                                       "service_rw client, traced"):
        report.note(line)
    for line in layers.self_time_table(
            server_totals, kinds, ("engine.execute", "engine.stream_snapshot"),
            "service_rw server, traced"):
        report.note(line)


def _end_to_end(report: Report, win: _Window, setup_raw: List[float],
                setup_scaled: List[float], server_rss: float) -> None:
    log = win.log
    n_heavy = len(log.samples["heavy"])
    n_light = sum(len(log.samples[k]) for k in LIGHT_KINDS)
    raw_light = light_samples(log, False)
    report.add("setup_s", statistics.median(setup_scaled), "s",
               len(setup_scaled), result=True)
    report.add("peak_rss_mb", server_rss, "MB", 1, result=True)
    report.add("mix_qps", heavy_qps(log, True), "1/s", n_heavy, result=True)
    report.add("sgb_p50_ms", log.median("heavy", True), "ms", n_heavy,
               result=True)
    report.add("plain_mean_ms", log.geomean_of_means(LIGHT_KINDS, True), "ms",
               n_light, result=True)
    report.add("calibration_ms", statistics.median(win.speed.samples), "ms",
               len(win.speed.samples))
    report.add("raw.setup_s", statistics.median(setup_raw), "s",
               len(setup_raw))
    report.add("raw.heavy_qps", heavy_qps(log, False), "1/s", n_heavy)
    report.add("raw.sgb_p50_ms", log.median("heavy"), "ms", n_heavy)
    report.add("raw.plain_mean_ms", log.geomean_of_means(LIGHT_KINDS), "ms",
               n_light)
    report.add("raw.light_p50_ms", statistics.median(raw_light), "ms",
               len(raw_light))
    report.add("error_ratio", log.failed / max(log.attempted, 1), "ratio",
               log.attempted)
    reads = light_samples(log, False, ("point", "snapshot"))
    report.add("raw.read_p50_ms", statistics.median(reads), "ms", len(reads))
    report.add("raw.write_p50_ms", log.median("insert"), "ms",
               len(log.samples["insert"]))
    t = tail(raw_light)
    if t is not None:
        report.add(f"raw.light_p{t[0]:g}_ms", t[1], "ms", len(raw_light))
    for kind in LIGHT_KINDS:
        report.add(f"raw.{kind}_p50_ms", log.median(kind), "ms",
                   len(log.samples[kind]))
    report.add("loadgen.late_p50_ms", statistics.median(win.late_ms), "ms",
               len(win.late_ms))
    report.add("loadgen.late_max_ms", max(win.late_ms), "ms",
               len(win.late_ms))
