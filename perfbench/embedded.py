"""The two in-process workloads: ``tpch_table2`` and ``checkin_sgb``.

Each drives one :class:`repro.Database` from a single closed-loop client
that cycles a fixed query mix.  Inputs come only from the seed; every
timed answer is checked as soon as its latency is recorded, outside the
timed query, against an answer computed in setup (brute-force SGB
oracles from ``repro.core.api`` for similarity queries, the warm-up run
for relational ones).
"""

from __future__ import annotations

import gc
import re
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.measure import OpLog, Speed

_clock = time.perf_counter

#: ``check(result) -> None`` when right, else a one-line reason.
Check = Callable[[object], Optional[str]]


# ----------------------------------------------------------------------
# canonical answers
# ----------------------------------------------------------------------
def _canon_value(v):
    if isinstance(v, float):
        return float(f"{v:.9g}")
    if isinstance(v, (list, tuple)):
        return tuple(sorted((_canon_value(x) for x in v), key=repr))
    return v


def canonical_rows(rows: Sequence[tuple]) -> List[tuple]:
    """Rows as an order-free multiset: floats to 9 significant digits,
    array values sorted, rows sorted."""
    return sorted((tuple(_canon_value(v) for v in r) for r in rows), key=repr)


def _groups(labels: Sequence[int]) -> Dict[int, List[int]]:
    """Label -> member positions, labels in ascending order, -1 dropped."""
    out: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        if label >= 0:
            out.setdefault(label, []).append(i)
    return dict(sorted(out.items()))


def group_sizes(labels: Sequence[int]) -> List[int]:
    """Group sizes in label order, the order SGB rows leave the engine."""
    return [len(m) for m in _groups(labels).values()]


def first_appearance(labels: Sequence[int]) -> List[int]:
    """Relabel so groups are numbered by their first member's position."""
    seen: Dict[int, int] = {}
    out = []
    for label in labels:
        if label < 0:
            out.append(-1)
            continue
        if label not in seen:
            seen[label] = len(seen)
        out.append(seen[label])
    return out


def _expect(reference) -> Check:
    def check(result) -> Optional[str]:
        if result.rows != reference:
            return f"rows differ from the reference ({len(result.rows)} "\
                   f"vs {len(reference)})"
        return None
    return check


def _expect_canonical(reference: List[tuple]) -> Check:
    def check(result) -> Optional[str]:
        if canonical_rows(result.rows) != reference:
            return "grouped rows differ from the brute-force oracle"
        return None
    return check


def _expect_counts(sizes: List[int]) -> Check:
    def check(result) -> Optional[str]:
        got = [r[0] for r in result.rows]
        if got != sizes:
            return f"group sizes differ from the brute-force oracle "\
                   f"({len(got)} groups vs {len(sizes)})"
        return None
    return check


_ACTUAL_ROWS = re.compile(r"SimilarityGroupBy.*actual rows=(\d+)")


def _expect_analyzed_groups(n_groups: int) -> Check:
    def check(result) -> Optional[str]:
        for (line,) in result.rows:
            m = _ACTUAL_ROWS.search(line)
            if m:
                if int(m.group(1)) != n_groups:
                    return f"EXPLAIN ANALYZE reports {m.group(1)} groups, "\
                           f"oracle {n_groups}"
                return None
        return "EXPLAIN ANALYZE output has no SimilarityGroupBy line"
    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class EmbeddedWorkload:
    """A seeded dataset, a query cycle and the oracle for each query."""

    name = ""
    #: (kind, sql) in cycle order.
    cycle: List[Tuple[str, str]] = []
    sgb_kinds: Tuple[str, ...] = ()
    plain_kinds: Tuple[str, ...] = ()

    @property
    def kinds(self) -> List[str]:
        """Distinct kinds in cycle order."""
        return list(dict.fromkeys(k for k, _ in self.cycle))

    def build(self, seed: int):
        """Generate, load and ANALYZE; returns the Database."""
        raise NotImplementedError

    def checks(self, db) -> Dict[str, Check]:
        raise NotImplementedError


_SGB_EPS = 500.0

#: Oracle input columns and the expected output row of each SGB family
#: of the TPC-H Table 2 queries (see ``repro.workloads.queries``).
_FAMILIES = {
    # max(ab), min(tp), max(tp), avg(ab), array_agg(ck)
    "buying_power": ("r1.ab, r2.tp, r1.ck", lambda rs: (
        max(r[0] for r in rs), min(r[1] for r in rs),
        max(r[1] for r in rs), sum(r[0] for r in rs) / len(rs),
        [r[2] for r in rs])),
    # count(*), sum(tprof), sum(stime)
    "profit": ("tprof, stime", lambda rs: (
        len(rs), sum(r[0] for r in rs), sum(r[1] for r in rs))),
    # array_agg(s_suppkey), sum(trevenue), sum(s_acctbal)
    "supplier": ("trevenue, s_acctbal, s_suppkey", lambda rs: (
        [r[2] for r in rs], sum(r[0] for r in rs),
        sum(r[1] for r in rs))),
}

_TOP_FROM = re.compile(r"^    FROM ", re.MULTILINE)
_TOP_GROUP_BY = "\n    GROUP BY "


def sgb_input_sql(sql: str, columns: str) -> str:
    """The SGB query's input: same FROM/WHERE, its grouping inputs as the
    select list, no similarity GROUP BY — so rows arrive in the order the
    SGB node sees them."""
    body = sql[_TOP_FROM.search(sql).start():]
    body = body[:body.rindex(_TOP_GROUP_BY)]
    return f"SELECT {columns}\n{body}"


class TPCHTable2(EmbeddedWorkload):
    """Paper Table 2: Q1, GB1-GB3 and SGB1-SGB6 over TPC-H-like data."""

    name = "tpch_table2"

    def __init__(self, scale: float = 3.0) -> None:
        from repro.workloads import queries as q

        self.scale = scale
        sgb = {
            "sgb1": (q.sgb1(_SGB_EPS), "all", "buying_power"),
            "sgb2": (q.sgb2(_SGB_EPS), "any", "buying_power"),
            "sgb3": (q.sgb3(_SGB_EPS), "all", "profit"),
            "sgb4": (q.sgb4(_SGB_EPS), "any", "profit"),
            "sgb5": (q.sgb5(_SGB_EPS), "all", "supplier"),
            "sgb6": (q.sgb6(_SGB_EPS), "any", "supplier"),
        }
        self.sgb = sgb
        self.cycle = [
            ("q1", q.q1()), ("sgb1", sgb["sgb1"][0]),
            ("gb1", q.gb1()), ("sgb2", sgb["sgb2"][0]),
            ("sgb3", sgb["sgb3"][0]), ("gb2", q.gb2()),
            ("sgb4", sgb["sgb4"][0]), ("sgb5", sgb["sgb5"][0]),
            ("gb3", q.gb3()), ("sgb6", sgb["sgb6"][0]),
        ]
        self.sgb_kinds = tuple(sorted(sgb))
        self.plain_kinds = ("q1", "gb1", "gb2", "gb3")

    def build(self, seed: int):
        from repro.workloads import load_tpch

        db = load_tpch(self.scale, seed=seed)
        db.execute("ANALYZE")
        return db

    def checks(self, db) -> Dict[str, Check]:
        from repro.core.api import sgb_all, sgb_any

        out: Dict[str, Check] = {}
        for kind, sql in self.cycle:
            if kind not in self.sgb:
                out[kind] = _expect(db.execute(sql).rows)
                continue
            _, mode, family = self.sgb[kind]
            columns, aggregate = _FAMILIES[family]
            rows = db.execute(sgb_input_sql(sql, columns)).rows
            points = [(float(r[0]), float(r[1])) for r in rows]
            if mode == "any":
                labels = sgb_any(points, _SGB_EPS, strategy="all-pairs").labels
            else:
                labels = sgb_all(points, _SGB_EPS, on_overlap="join-any",
                                 strategy="all-pairs", tiebreak="random",
                                 seed=db.sgb_config.seed).labels
            expected = [aggregate([rows[i] for i in members])
                        for members in _groups(labels).values()]
            out[kind] = _expect_canonical(canonical_rows(expected))
        for kind, sql in self.cycle:
            db.execute(sql)
        return out


class CheckinSGB(EmbeddedWorkload):
    """Paper Figure 11 shape: SGB-Any/All over skewed 2-D check-ins."""

    name = "checkin_sgb"

    #: kind -> (mode, eps, metric, on_overlap)
    QUERIES = {
        "any_fine": ("any", 0.05, "l2", None),
        "any_coarse": ("any", 0.5, "l2", None),
        "all_l2": ("all", 0.05, "l2", "join-any"),
        "all_linf": ("all", 0.2, "linf", "eliminate"),
    }
    GB_SQL = ("SELECT user_id % 10 AS bucket, count(*) AS n FROM checkins "
              "GROUP BY user_id % 10")

    def __init__(self, n: int = 5000) -> None:
        from repro.workloads import queries as q

        self.n = n
        sql = {}
        for kind, (mode, eps, metric, overlap) in self.QUERIES.items():
            if mode == "any":
                sql[kind] = q.checkin_sgb_any(eps, metric)
            else:
                sql[kind] = q.checkin_sgb_all(eps, metric, overlap)
        sql["analyze"] = "EXPLAIN ANALYZE " + sql["any_fine"]
        # The cheap plain query follows every SGB query, so it gets as many
        # samples per run as the SGB kinds together.
        self.cycle = []
        for kind in list(self.QUERIES) + ["analyze"]:
            self.cycle += [(kind, sql[kind]), ("gb_mod", self.GB_SQL)]
        self.sgb_kinds = tuple(self.QUERIES) + ("analyze",)
        self.plain_kinds = ("gb_mod",)
        self.dataset = None

    def build(self, seed: int):
        from repro import Database
        from repro.workloads import gowalla

        self.dataset = gowalla(self.n, seed=seed)
        db = Database()
        self.dataset.populate(db, "checkins")
        db.execute("ANALYZE")
        return db

    def checks(self, db) -> Dict[str, Check]:
        from repro.core.api import sgb_all, sgb_any

        points = self.dataset.points()
        out: Dict[str, Check] = {}
        sizes: Dict[str, List[int]] = {}
        for kind, (mode, eps, metric, overlap) in self.QUERIES.items():
            if mode == "any":
                labels = sgb_any(points, eps, metric,
                                 strategy="all-pairs").labels
            else:
                labels = sgb_all(points, eps, metric, on_overlap=overlap,
                                 strategy="all-pairs", tiebreak="random",
                                 seed=db.sgb_config.seed).labels
            sizes[kind] = group_sizes(labels)
            out[kind] = _expect_counts(sizes[kind])
        out["gb_mod"] = _expect(db.execute(self.GB_SQL).rows)
        out["analyze"] = _expect_analyzed_groups(len(sizes["any_fine"]))
        # Warm the remaining plans so the first timed cycle is not special.
        for kind, sql in self.cycle:
            db.execute(sql)
        return out


WORKLOADS = {w.name: w for w in (TPCHTable2, CheckinSGB)}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def build_timed(workload: EmbeddedWorkload, seed: int, reps: int
                ) -> Tuple[object, List[float], List[float]]:
    """Set up ``reps`` times from scratch; returns the last Database and
    every set-up time, raw and scaled by calibrations around it."""
    raw, scaled = [], []
    db = None
    for _ in range(reps):
        db = None
        gc.collect()
        speed = Speed()
        t, db = time_setup(speed, lambda: workload.build(seed))
        raw.append(t)
        scaled.append(t * speed.factor())
    return db, raw, scaled


def time_setup(speed: Speed, build: Callable[[], object]
               ) -> Tuple[float, object]:
    """Time ``build()`` with three calibration probes on either side."""
    for _ in range(3):
        speed.probe()
    t0 = _clock()
    built = build()
    elapsed = _clock() - t0
    for _ in range(3):
        speed.probe()
    return elapsed, built


def closed_loop(db, cycle: Sequence[Tuple[str, str]], seconds: float,
                log: OpLog, checks: Dict[str, Check], speed: Speed,
                rec=None) -> Tuple[int, float]:
    """Run whole cycles until ``seconds`` have passed.

    A calibration probe precedes the first query and follows each one;
    every latency is recorded raw and scaled by the probes around it.
    Each answer is checked after its probe, outside the timed query, and
    then dropped, so the run holds no answers.  Returns (queries
    completed, their total scaled time in seconds).  With a recorder,
    each query runs inside a root ``op`` frame of its kind.
    """
    done = 0
    scaled_total = 0.0
    before = speed.probe()
    t_start = _clock()
    while _clock() - t_start < seconds:
        for kind, sql in cycle:
            log.attempted += 1
            frame = rec.push("op", kind=kind) if rec is not None else None
            t0 = _clock()
            try:
                result = db.execute(sql)
            except Exception as exc:  # a failed op is counted, not fatal
                log.fail(f"{kind}: {type(exc).__name__}: {exc}")
                result = None
            finally:
                if frame is not None:
                    rec.pop(frame)
            ms = (_clock() - t0) * 1000.0
            after = speed.probe()
            if result is not None:
                scaled = speed.scale(ms, before, after)
                scaled_total += scaled / 1000.0
                log.record(kind, ms, scaled)
                done += 1
                why = checks[kind](result)
                if why is not None:
                    log.fail(f"{kind}: {why}")
                result = None
            before = after
    return done, scaled_total


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
SETUP_REPS = 5


def run(workload: EmbeddedWorkload, seed: int, seconds: float, trace: bool,
        spans_path: Optional[str] = None):
    """Set up, run the closed loop, check every answer; returns
    ``(report, log)``."""
    from perfbench.measure import Report, peak_rss_mb

    db, setup_raw, setup_scaled = build_timed(workload, seed, SETUP_REPS)
    checks = workload.checks(db)
    report = Report(workload.name, seed, trace)
    log = OpLog()
    speed = Speed()
    if not trace:
        done, busy = closed_loop(db, workload.cycle, seconds, log, checks,
                                 speed)
        rss = peak_rss_mb()
        _end_to_end(report, workload, log, speed, done, busy, setup_raw,
                    setup_scaled, rss)
        return report, log
    _traced(report, workload, db, seconds, log, checks, speed, spans_path)
    return report, log


def _traced(report, workload: EmbeddedWorkload, db, seconds: float,
            log: OpLog, checks: Dict[str, Check], speed: Speed,
            spans_path: Optional[str]) -> None:
    """An untraced half, then a traced half on the same data."""
    from perfbench import layers
    from perfbench.tracing import Recorder, install

    kinds = workload.kinds
    done_a, busy_a = closed_loop(db, workload.cycle, seconds / 2, log,
                                 checks, speed)
    untraced = {k: log.median(k) for k in kinds if k in log.samples}
    rec = Recorder()
    before = layers.engine_counters(db.metrics_snapshot())
    db.set_trace(True)
    shims = install(rec)
    try:
        traced_log = OpLog()
        done_b, busy_b = closed_loop(db, workload.cycle, seconds / 2,
                                     traced_log, checks, speed, rec=rec)
    finally:
        shims.remove()
        db.set_trace(False)
    after = layers.engine_counters(db.metrics_snapshot())
    log.merge(traced_log)
    totals = layers.Totals(*rec.totals())
    values = layers.layer_metrics(totals, done_b,
                                  layers.counter_delta(before, after))
    values["obs.analyze_ratio"] = layers.analyze_ratio(untraced)
    values["trace.overhead_ratio"] = (busy_b / done_b) / (busy_a / done_a)
    for name in layers.PER_LAYER:
        report.add(name, values[name], layers.unit_of(name), done_b,
                   result=True)
    for kind in kinds:
        report.add(f"untraced.{kind}_p50_ms", untraced[kind], "ms",
                   len(log.samples[kind]))
    for line in layers.self_time_table(totals, kinds, ("op",),
                                       f"{workload.name} traced"):
        report.note(line)
    if spans_path is not None:
        n = rec.write_spans(spans_path)
        report.note(f"# {n} spans written to {spans_path}")


def _end_to_end(report, workload: EmbeddedWorkload, log: OpLog,
                speed: Speed, done: int, busy: float, setup_raw: List[float],
                setup_scaled: List[float], rss: float) -> None:
    import statistics

    from perfbench.measure import tail

    n_sgb = sum(len(log.samples[k]) for k in workload.sgb_kinds)
    n_plain = sum(len(log.samples[k]) for k in workload.plain_kinds)
    report.add("setup_s", statistics.median(setup_scaled), "s",
               len(setup_scaled), result=True)
    report.add("peak_rss_mb", rss, "MB", 1, result=True)
    report.add("mix_qps", done / busy, "1/s", done, result=True)
    report.add("sgb_p50_ms", log.geomean_of_medians(workload.sgb_kinds, True),
               "ms", n_sgb, result=True)
    report.add("plain_mean_ms",
               log.geomean_of_means(workload.plain_kinds, True), "ms",
               n_plain, result=True)
    report.add("calibration_ms", statistics.median(speed.samples), "ms",
               len(speed.samples))
    report.add("raw.setup_s", statistics.median(setup_raw), "s",
               len(setup_raw))
    report.add("raw.mix_qps", done / (sum(map(sum, log.samples.values()))
                                      / 1000.0), "1/s", done)
    report.add("raw.sgb_p50_ms", log.geomean_of_medians(workload.sgb_kinds),
               "ms", n_sgb)
    report.add("raw.plain_mean_ms",
               log.geomean_of_means(workload.plain_kinds), "ms", n_plain)
    report.add("error_ratio", log.failed / max(log.attempted, 1), "ratio",
               log.attempted)
    for kind in workload.kinds:
        xs = log.samples.get(kind, [])
        if xs:
            report.add(f"raw.{kind}_p50_ms", statistics.median(xs), "ms",
                       len(xs))
            t = tail(xs)
            if t is not None:
                report.add(f"raw.{kind}_p{t[0]:g}_ms", t[1], "ms", len(xs))
