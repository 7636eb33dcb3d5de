"""Grouping-attribute coordinate mapping: typed errors and Decimal support.

Regression tests for the SGB006 taxonomy fix: ``_coordinate`` used to
raise a bare ``TypeError`` for non-numeric grouping values, escaping the
``ReproError`` contract that shells and services rely on to keep serving.
"""

import datetime
from decimal import Decimal

import pytest

from repro.engine.database import Database
from repro.engine.executor.sgb import _coordinate
from repro.errors import ExecutionError, ReproError


class TestCoordinate:
    def test_numeric_passthrough(self):
        assert _coordinate(3) == 3.0
        assert _coordinate(2.5) == 2.5

    def test_decimal_is_numeric(self):
        assert _coordinate(Decimal("1.25")) == 1.25

    def test_date_maps_to_ordinal_days(self):
        d = datetime.date(2020, 1, 8)
        assert _coordinate(d) - _coordinate(datetime.date(2020, 1, 1)) == 7.0

    def test_bool_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError, match="not a numeric"):
            _coordinate(True)

    def test_text_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError, match="not a numeric"):
            _coordinate("abc")

    def test_none_rejected_with_execution_error(self):
        with pytest.raises(ExecutionError):
            _coordinate(None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), Decimal("NaN"),
                                     10**400])
    def test_non_finite_rejected_with_execution_error(self, bad):
        with pytest.raises(ExecutionError, match="finite"):
            _coordinate(bad)

    def test_error_stays_inside_taxonomy(self):
        # callers catching the documented family must see the failure
        with pytest.raises(ReproError):
            _coordinate(object())


class TestEndToEnd:
    def test_text_grouping_column_raises_typed_error(self):
        db = Database()
        db.execute("CREATE TABLE t (s text)")
        db.insert("t", [("a",), ("b",)])
        with pytest.raises(ReproError):
            db.query(
                "SELECT count(*) FROM t GROUP BY s DISTANCE-TO-ANY WITHIN 1"
            )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("strategy", ["all-pairs", "index", "grid",
                                          "kdtree"])
    def test_non_finite_grouping_value_raises_typed_error(self, bad,
                                                           strategy):
        # The plan-time statistics refresh reads the column first; both
        # it and the spool must keep the failure typed.
        db = Database(sgb_any_strategy=strategy)
        db.execute("CREATE TABLE t (x float, y float)")
        db.insert("t", [(0.0, 0.0), (float(bad), 1.0), (0.5, 0.5)])
        with pytest.raises(ExecutionError, match="finite"):
            db.query("SELECT count(*) FROM t GROUP BY x, y "
                     "DISTANCE-TO-ANY WITHIN 1")
