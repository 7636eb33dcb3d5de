"""EXPLAIN ANALYZE: SQL path, counter values, and off-by-default checks."""

import json
import re

import pytest

from repro import Database
from repro.errors import ParseError
from repro.obs import attach, detach
from repro.sql.parser import parse


@pytest.fixture
def db():
    d = Database(tiebreak="first")
    d.execute("CREATE TABLE pts (id int, x float, y float, region text)")
    d.execute(
        "INSERT INTO pts VALUES "
        "(1, 1.0, 1.0, 'a'), (2, 1.5, 1.2, 'a'), (3, 9.0, 9.0, 'b'), "
        "(4, NULL, 2.0, 'b'), (5, 2.0, NULL, 'a')"
    )
    return d


ANY_SQL = (
    "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
)
ALL_SQL = (
    "SELECT count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY"
)


class TestExplainAnalyzeSQL:
    def test_returns_query_plan_column(self, db):
        result = db.execute("EXPLAIN ANALYZE " + ANY_SQL)
        assert result.columns == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows)
        assert "SimilarityGroupBy" in text
        assert "actual rows=" in text
        assert "ms" in text

    def test_reports_null_skips_and_sgb_counters(self, db):
        # Fixed workload: rows 4 and 5 have a NULL grouping attribute, the
        # remaining 3 points form components {1,2} and {3}.
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert "rows_skipped_null=2" in text
        assert "points=3" in text
        assert "groups_created=3" in text
        assert "groups_merged=1" in text
        assert "index_probes=3" in text

    def test_plain_explain_has_no_actuals(self, db):
        result = db.execute("EXPLAIN " + ANY_SQL)
        assert result.columns == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows)
        assert "SimilarityGroupBy" in text
        assert "actual rows=" not in text
        assert "Execution Time" not in text

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(ParseError):
            db.execute("EXPLAIN INSERT INTO pts VALUES (6, 0, 0, 'c')")

    def test_shell_prints_plan_verbatim(self, db):
        from repro.engine.shell import Shell

        shell = Shell(db)
        out = shell.feed("EXPLAIN ANALYZE " + ANY_SQL + ";")
        assert out.startswith("-> ")
        assert "rows_skipped_null=2" in out
        assert "|" not in out  # not boxed as an ordinary result table


class TestAnalyzeCounters:
    def test_sgb_any_counter_values(self, db):
        analyzed = db.analyze(ANY_SQL)
        assert analyzed.rows == db.query(ANY_SQL).rows
        totals = analyzed.node_counters()
        assert totals["rows_skipped_null"] == 2
        assert totals["points"] == 3
        assert totals["groups_created"] == 3
        assert totals["groups_merged"] == 1
        assert totals["index_probes"] == 3
        assert totals["candidates"] >= 1
        assert totals["distance_computations"] >= 1

    def test_sgb_all_counter_values(self, db):
        totals = db.analyze(ALL_SQL).node_counters()
        assert totals["rows_skipped_null"] == 2
        assert totals["points"] == 3
        assert totals["groups_created"] == 2
        assert totals["index_probes"] == 3
        assert totals["distance_computations"] >= 1

    def test_metrics_json_round_trips(self, db):
        analyzed = db.analyze(ANY_SQL)
        tree = json.loads(analyzed.metrics_json())
        assert tree["node"].startswith("Project")
        assert tree["loops"] == 1
        child = tree["children"][0]
        assert child["node"].startswith("SimilarityGroupBy")
        assert child["counters"]["rows_skipped_null"] == 2
        scan = child["children"][0]
        assert scan["rows"] == 5  # NULL rows are produced by the scan

    def test_results_match_uninstrumented_execution(self, db):
        assert db.analyze(ALL_SQL).rows == db.query(ALL_SQL).rows


class TestResourceAccounting:
    def test_analyze_reports_per_node_peak_memory(self, db):
        text = "\n".join(
            row[0] for row in
            db.execute("EXPLAIN (ANALYZE, MEMORY) " + ANY_SQL).rows
        )
        assert "mem_peak=" in text
        assert "include its overhead" in text.splitlines()[-1]
        # Every node line carries a human unit, not raw byte counts.
        for line in text.splitlines():
            if "mem_peak=" in line:
                part = line.split("mem_peak=")[1].split(")")[0]
                assert part.endswith(("B", "KiB", "MiB", "GiB"))

    def test_peak_memory_inclusive_of_children(self, db):
        analyzed = db.analyze(ANY_SQL, memory=True)
        tree = json.loads(analyzed.metrics_json())

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        peaks = [n.get("mem_peak_bytes") for n in walk(tree)]
        assert all(isinstance(p, int) and p >= 0 for p in peaks)
        # The root's peak covers everything produced beneath it.
        assert tree["mem_peak_bytes"] == max(peaks)

    def test_plain_query_does_no_memory_tracking(self, db):
        import tracemalloc

        db.query(ANY_SQL)
        assert not tracemalloc.is_tracing()

    def test_rows_spooled_counted_for_partitioned_query(self, db):
        totals = db.analyze(
            "SELECT region, count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY region"
        ).node_counters()
        # NULL grouping attributes are skipped up front, before any row
        # is materialized into a partition spool.
        assert totals["rows_spooled"] == 3
        assert totals["rows_skipped_null"] == 2

    def test_derived_ratios_rendered(self, db):
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert "candidates_per_probe=" in text
        assert "refines_per_candidate=" in text


def _node_lines(text):
    """Plan node lines, footer dropped and run-dependent times masked."""
    return [re.sub(r"time=[0-9.]+ ms", "time=T", line)
            for line in text.splitlines()
            if not line.startswith(("Planning Time", "Execution Time"))]


def _ms(text, label):
    line = next(ln for ln in text.splitlines() if ln.startswith(label))
    return float(line[len(label):].split()[0])


class TestMemoryOptIn:
    @pytest.fixture
    def no_tracemalloc(self, monkeypatch):
        import tracemalloc

        def refuse(*args):
            raise AssertionError("tracemalloc started")

        monkeypatch.setattr(tracemalloc, "start", refuse)

    def test_default_analyze_never_traces_memory(self, db, no_tracemalloc):
        analyzed = db.analyze(ANY_SQL)
        assert "mem_peak=" not in analyzed.plan_text
        assert "mem_peak_bytes" not in analyzed.metrics_json()
        assert "mem_peak=" not in db.explain_analyze(ANY_SQL)

    def test_default_sql_explain_analyze_never_traces_memory(
            self, db, no_tracemalloc):
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert "actual rows=" in text
        assert "mem_peak=" not in text
        assert "tracemalloc" not in text

    def test_memory_run_stops_tracemalloc_afterwards(self, db):
        import tracemalloc

        db.execute("EXPLAIN (ANALYZE, MEMORY) " + ANY_SQL)
        assert not tracemalloc.is_tracing()


class TestOneInstrumentedPath:
    def test_sql_and_python_render_the_same_node_lines(self, db):
        sql_text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        assert _node_lines(sql_text) == _node_lines(db.explain_analyze(ANY_SQL))

    @pytest.mark.parametrize("run", [
        lambda d: d.execute("EXPLAIN ANALYZE " + ANY_SQL),
        lambda d: d.analyze(ANY_SQL),
    ], ids=["sql", "python"])
    def test_both_fold_counters_and_log_the_query(self, db, run):
        db.set_query_log(True)
        run(db)
        snapshot = db.metrics_snapshot()
        assert 'repro_sgb_points_total{source="batch"} 3' in snapshot
        assert 'repro_exec_rows_skipped_null_total{source="batch"} 2' \
            in snapshot
        (record,) = db.query_log.recent()
        assert record.actual_rows == 2

    def test_planning_and_execution_time_footer(self, db):
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN ANALYZE " + ANY_SQL).rows
        )
        lines = text.splitlines()
        assert lines[-2].startswith("Planning Time: ")
        assert lines[-1].startswith("Execution Time: ")
        assert _ms(text, "Planning Time: ") >= 0.0
        root_ms = float(lines[0].split("time=")[1].split()[0])
        # The root line rounds to 0.01 ms, the footer to 0.001 ms.
        assert _ms(text, "Execution Time: ") >= root_ms - 0.005

    @pytest.mark.parametrize("sql", [
        "EXPLAIN (MEMORY) " + ANY_SQL,
        "EXPLAIN (ANALYZE, VERBOSE) " + ANY_SQL,
        "EXPLAIN () " + ANY_SQL,
        "EXPLAIN (ANALYZE " + ANY_SQL,
    ])
    def test_bad_options_raise_parse_error(self, db, sql):
        with pytest.raises(ParseError):
            db.execute(sql)


class TestInstrumentationOffByDefault:
    def test_plan_nodes_uninstrumented_by_default(self, db):
        plan = db._planner().plan_query(parse(ANY_SQL)[0])

        def nodes(node):
            yield node
            for child in node.children():
                yield from nodes(child)

        assert all(n._obs is None for n in nodes(plan))
        attach(plan)
        assert all(n._obs is not None for n in nodes(plan))
        detach(plan)
        assert all(n._obs is None for n in nodes(plan))

    def test_analyze_detaches_afterwards(self, db):
        db.analyze(ANY_SQL)
        # A later ordinary query must run the cheap uninstrumented path and
        # still produce the same rows.
        assert sorted(db.query(ANY_SQL).rows) == [(1,), (2,)]

    def test_uninstrumented_operator_does_not_wrap_metric(self):
        from repro.core.sgb_all import SGBAllOperator
        from repro.core.sgb_any import SGBAnyOperator
        from repro.obs import MetricBag

        assert not hasattr(SGBAllOperator(eps=1).metric, "calls")
        assert not hasattr(SGBAnyOperator(eps=1).metric, "calls")
        assert hasattr(SGBAllOperator(eps=1, metrics=MetricBag()).metric,
                       "calls")
        assert hasattr(SGBAnyOperator(eps=1, metrics=MetricBag()).metric,
                       "calls")


@pytest.fixture(scope="module")
def checkins():
    from repro.workloads import gowalla

    return gowalla(1500, seed=1)


def _checkin_db(dataset, **config):
    d = Database(**config)
    dataset.populate(d, "checkins")
    d.execute("ANALYZE")
    return d


class TestCheckinSGBAllGrid:
    """The check-in SGB-All queries run on the anchor grid by default."""

    @pytest.mark.parametrize("args", [(0.05, "l2", "join-any"),
                                      (0.2, "linf", "eliminate")])
    def test_explain_shows_grid_chosen_from_stats(self, checkins, args):
        from repro.workloads.queries import checkin_sgb_all

        d = _checkin_db(checkins)
        plan = "\n".join(
            row[0] for row in d.execute("EXPLAIN " + checkin_sgb_all(*args))
            .rows
        )
        assert "strategy=grid/stats" in plan

    def test_candidates_bounded_and_below_bounds_checking(self, checkins):
        from repro.workloads.queries import checkin_sgb_all

        sql = checkin_sgb_all(0.05, "l2", "join-any")
        grid = _checkin_db(checkins).analyze(sql)
        scan = _checkin_db(
            checkins, sgb_all_strategy="bounds-checking"
        ).analyze(sql)
        assert sorted(grid.rows) == sorted(scan.rows)
        totals = grid.node_counters()
        # JOIN-ANY never drops a group: the output rows are every group
        # that was ever live.
        live_groups = len(grid.rows)
        assert totals["index_probes"] == totals["points"]
        assert totals["candidates"] <= totals["points"] * live_groups
        assert totals["candidates"] < scan.node_counters()["candidates"]
