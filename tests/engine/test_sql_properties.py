"""Randomized whole-stack SQL tests.

Hypothesis generates WHERE expressions as *SQL text* together with an
equivalent Python evaluator; the engine's answer (lexer → parser → planner
→ executor) must match the oracle row for row.  A second battery checks
GROUP BY aggregation against a hand-rolled dict aggregation.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database

COLUMNS = ["a", "b", "c"]


def make_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (a int, b int, c float)")
    db.insert("t", rows)
    return db


rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
    ),
    max_size=25,
)


# ----------------------------------------------------------------------
# expression generator: (sql_text, oracle_fn) pairs
#
# oracle_fn(row) returns the SQL three-valued result (True/False/None for
# booleans, value/None for scalars).
# ----------------------------------------------------------------------
def _col(name):
    idx = COLUMNS.index(name)
    return name, lambda row: row[idx]


def _lit(value):
    return str(value), lambda row: value


scalar_leaf = st.one_of(
    st.sampled_from(COLUMNS).map(_col),
    st.integers(-5, 5).map(_lit),
)


def _null_safe(op):
    def apply(x, y):
        if x is None or y is None:
            return None
        return op(x, y)

    return apply


_ARITH = {
    "+": _null_safe(lambda x, y: x + y),
    "-": _null_safe(lambda x, y: x - y),
    "*": _null_safe(lambda x, y: x * y),
}
_CMP = {
    "=": _null_safe(lambda x, y: x == y),
    "<>": _null_safe(lambda x, y: x != y),
    "<": _null_safe(lambda x, y: x < y),
    "<=": _null_safe(lambda x, y: x <= y),
    ">": _null_safe(lambda x, y: x > y),
    ">=": _null_safe(lambda x, y: x >= y),
}


@st.composite
def scalar_expr(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(scalar_leaf)
    op = draw(st.sampled_from(list(_ARITH)))
    ls, lf = draw(scalar_expr(depth - 1))
    rs, rf = draw(scalar_expr(depth - 1))
    fn = _ARITH[op]
    return (
        f"({ls} {op} {rs})",
        lambda row, lf=lf, rf=rf, fn=fn: fn(lf(row), rf(row)),
    )


@st.composite
def bool_expr(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["cmp", "and", "or", "not", "isnull", "between", "inlist"]
            if depth > 0 else ["cmp", "isnull"]
        )
    )
    if kind == "cmp":
        op = draw(st.sampled_from(list(_CMP)))
        ls, lf = draw(scalar_expr(1))
        rs, rf = draw(scalar_expr(1))
        fn = _CMP[op]
        return (
            f"{ls} {op} {rs}",
            lambda row, lf=lf, rf=rf, fn=fn: fn(lf(row), rf(row)),
        )
    if kind == "isnull":
        ls, lf = draw(scalar_leaf)
        negated = draw(st.booleans())
        text = f"{ls} IS {'NOT ' if negated else ''}NULL"
        return (
            text,
            lambda row, lf=lf, negated=negated: (
                (lf(row) is not None) if negated else (lf(row) is None)
            ),
        )
    if kind == "between":
        ls, lf = draw(scalar_leaf)
        lo = draw(st.integers(-5, 5))
        hi = draw(st.integers(-5, 5))

        def between(row, lf=lf, lo=lo, hi=hi):
            v = lf(row)
            if v is None:
                return None
            return lo <= v <= hi

        return f"{ls} BETWEEN {lo} AND {hi}", between
    if kind == "inlist":
        ls, lf = draw(scalar_leaf)
        items = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))

        def in_list(row, lf=lf, items=tuple(items)):
            v = lf(row)
            if v is None:
                return None
            return v in items

        return f"{ls} IN ({', '.join(map(str, items))})", in_list
    if kind == "not":
        s, f = draw(bool_expr(depth - 1))

        def negate(row, f=f):
            v = f(row)
            return None if v is None else not v

        return f"NOT ({s})", negate
    # and / or
    ls, lf = draw(bool_expr(depth - 1))
    rs, rf = draw(bool_expr(depth - 1))
    if kind == "and":
        def combine(row, lf=lf, rf=rf):
            x, y = lf(row), rf(row)
            if x is False or y is False:
                return False
            if x is None or y is None:
                return None
            return bool(x) and bool(y)

        return f"({ls}) AND ({rs})", combine

    def combine_or(row, lf=lf, rf=rf):
        x, y = lf(row), rf(row)
        if x is True or y is True:
            return True
        if x is None or y is None:
            return None
        return bool(x) or bool(y)

    return f"({ls}) OR ({rs})", combine_or


class TestWhereOracle:
    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy, expr=bool_expr())
    def test_where_matches_python_oracle(self, rows, expr):
        sql_text, oracle = expr
        db = make_db(rows)
        got = db.query(f"SELECT a, b, c FROM t WHERE {sql_text}").rows
        want = [row for row in db.table("t").rows if oracle(row) is True]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy, expr=scalar_expr())
    def test_projection_matches_python_oracle(self, rows, expr):
        sql_text, oracle = expr
        db = make_db(rows)
        got = db.query(f"SELECT {sql_text} FROM t").rows
        want = [(oracle(row),) for row in db.table("t").rows]
        for (g,), (w,) in zip(got, want):
            if isinstance(g, float) or isinstance(w, float):
                assert (g is None) == (w is None)
                if g is not None:
                    assert g == pytest.approx(w)
            else:
                assert g == w

    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy, expr=bool_expr())
    def test_count_complementarity(self, rows, expr):
        """count(WHERE p) + count(WHERE NOT p) <= count(*) with equality
        iff p is never NULL — the three-valued-logic accounting law."""
        sql_text, _ = expr
        db = make_db(rows)
        total = db.query("SELECT count(*) FROM t").scalar()
        pos = db.query(
            f"SELECT count(*) FROM t WHERE {sql_text}"
        ).scalar()
        neg = db.query(
            f"SELECT count(*) FROM t WHERE NOT ({sql_text})"
        ).scalar()
        assert pos + neg <= total


class TestGroupByOracle:
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy)
    # A subnormal column span (the statistics histogram's bucket scale).
    @example(rows=[(None, None, 0.0), (None, None, -2.2250738585072014e-308)])
    def test_group_by_matches_manual_aggregation(self, rows):
        db = make_db(rows)
        got = {
            row[0]: row[1:]
            for row in db.query(
                "SELECT a, count(*), count(c), sum(b) FROM t GROUP BY a"
            ).rows
        }
        want = {}
        for a, b, c in db.table("t").rows:
            cnt, cnt_c, sum_b = want.get(a, (0, 0, None))
            cnt += 1
            if c is not None:
                cnt_c += 1
            if b is not None:
                sum_b = b if sum_b is None else sum_b + b
            want[a] = (cnt, cnt_c, sum_b)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy)
    def test_order_by_really_sorts(self, rows):
        db = make_db(rows)
        got = db.query("SELECT b FROM t ORDER BY b DESC").column("b")
        non_null = [v for v in got if v is not None]
        assert non_null == sorted(non_null, reverse=True)
        # NULLs last when descending
        if None in got:
            assert got[-got.count(None):] == [None] * got.count(None)

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy, limit=st.integers(0, 30))
    def test_limit_is_prefix(self, rows, limit):
        db = make_db(rows)
        full = db.query("SELECT a, b, c FROM t ORDER BY 1, 2, 3").rows
        limited = db.query(
            f"SELECT a, b, c FROM t ORDER BY 1, 2, 3 LIMIT {limit}"
        ).rows
        assert limited == full[:limit]

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy)
    def test_distinct_count_equals_set_size(self, rows):
        db = make_db(rows)
        got = db.query("SELECT DISTINCT a, b FROM t").rows
        assert len(got) == len(set(got))
        assert set(got) == {(a, b) for a, b, _ in db.table("t").rows}


class TestJoinOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.integers(-3, 3), max_size=12),
        right=st.lists(st.integers(-3, 3), max_size=12),
    )
    def test_equi_join_matches_cartesian_filter(self, left, right):
        db = Database()
        db.execute("CREATE TABLE l (x int)")
        db.execute("CREATE TABLE r (y int)")
        db.insert("l", [(v,) for v in left])
        db.insert("r", [(v,) for v in right])
        got = sorted(db.query(
            "SELECT x, y FROM l, r WHERE x = y"
        ).rows)
        want = sorted((x, y) for x in left for y in right if x == y)
        assert got == want
