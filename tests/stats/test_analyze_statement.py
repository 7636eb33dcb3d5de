"""SQL ANALYZE statement and shell \\analyze / \\stats meta-commands."""

import pytest

from repro.engine.database import Database
from repro.engine.shell import Shell
from repro.errors import CatalogError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE a (x int)")
    d.execute("CREATE TABLE b (y float)")
    d.table("a").insert_many([(i,) for i in range(10)])
    d.table("b").insert_many([(float(i),) for i in range(20)])
    return d


class TestAnalyzeStatement:
    def test_analyze_all_tables(self, db):
        result = db.execute("ANALYZE")
        assert result.status == "ANALYZE"
        assert db.table("a").stats.row_count == 10
        assert db.table("b").stats.row_count == 20

    def test_analyze_one_table(self, db):
        db.execute("ANALYZE b")
        assert db.table("a").stats is None
        assert db.table("b").stats.row_count == 20

    def test_analyze_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("ANALYZE nope")

    def test_analyze_is_case_insensitive(self, db):
        assert db.execute("analyze a").status == "ANALYZE"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_skipped(self, db, bad):
        db.table("b").insert_many([(float(bad),)])
        db.execute("ANALYZE b")
        col = db.table("b").stats.column("y")
        assert (col.min_value, col.max_value) == (0.0, 19.0)
        assert col.histogram.n == 20
        assert (col.histogram.lo, col.histogram.hi) == (0.0, 19.0)

    def test_int_beyond_float_range_is_skipped(self, db):
        db.table("a").insert_many([(10**400,)])
        db.execute("ANALYZE a")
        col = db.table("a").stats.column("x")
        assert (col.min_value, col.max_value) == (0, 9)
        assert col.histogram.n == 10

    def test_update_statistics_python_api(self, db):
        db.update_statistics()
        assert db.table("a").stats is not None
        assert db.table("b").stats is not None


class TestShellMetaCommands:
    def test_analyze_then_stats(self, db):
        sh = Shell(db)
        assert sh.feed("\\analyze") == "ANALYZE"
        out = sh.feed("\\stats")
        assert "a: 10 rows" in out
        assert "b: 20 rows" in out
        assert "ndv=" in out

    def test_stats_single_table(self, db):
        sh = Shell(db)
        sh.feed("\\analyze b")
        out = sh.feed("\\stats b")
        assert out.startswith("b: 20 rows")
        assert "hist=" in out

    def test_stats_before_analyze_explains_itself(self, db):
        sh = Shell(db)
        assert "no statistics" in sh.feed("\\stats a")

    def test_help_mentions_new_commands(self, db):
        sh = Shell(db)
        help_text = sh.feed("\\help")
        assert "\\analyze" in help_text
        assert "\\stats" in help_text
