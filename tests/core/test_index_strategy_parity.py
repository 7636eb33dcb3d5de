"""Bit-identical membership parity across every index strategy.

The index layer (STR bulk loading, Hilbert presorting, the static k-d
tree, the SGB-All anchor grid) buys raw speed only — group labels must stay *bit-identical* to
the linear scan on every workload shape, under both kernel backends, for
both SGB modes.  Strategy choice is purely a performance decision; this
file is the contract that keeps it that way.
"""

import random

import pytest

from repro import Database, kernels
from repro.bench.experiments import skewed_points, uniform_points
from repro.core.api import sgb_all, sgb_any
from repro.core.distance import Metric
from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from repro.obs.metrics import MetricBag
from repro.streaming import StreamingSGBAll

ANY_STRATEGIES = [
    "all-pairs", "index", "grid", "kdtree", "rtree-bulk", "hilbert-grid",
]
ALL_STRATEGIES = ["all-pairs", "bounds-checking", "index", "grid"]
CLAUSES = ["join-any", "eliminate", "form-new-group"]

#: Two pairs whose rounded distance is exactly ε = 0.5 (|0.5 - (-1e-20)|
#: rounds to 0.5), along x and along y; yet ``0.5 - 0.5`` rounds to 0.0,
#: so an unwidened ε-box around the second point of a pair misses the
#: first.  Every strategy must keep each pair together: [0, 0, 1, 1].
EXACT_EPS_POINTS = [(-1e-20, 0.0), (0.5, 0.0), (5.0, -1e-20), (5.0, 0.5)]

#: The same pairs in the other order: the second point of each pair now
#: misses the first one's ε-All rectangle ``[0.0, 1.0]`` by the rounding
#: of ``0.5 - 0.5``, yet lies exactly ε away.
EXACT_EPS_REVERSED = [(0.5, 0.0), (-1e-20, 0.0), (5.0, 0.5), (5.0, -1e-20)]

#: Inside the rounded rectangle but beyond ε: ``0.1 + 0.2`` rounds up to
#: the second point, whose difference from ``0.1`` exceeds ``0.2``.
BEYOND_EPS_INSIDE_RECT = [(0.1, 0.0), (0.30000000000000004, 0.0)]

#: (name, points, eps) — dense, sparse, and cluster-skewed ε-graphs,
#: plus heavy duplicates (zero-spread k-d segments, stacked grid cells).
WORKLOADS = [
    ("dense", uniform_points(300, seed=1, span=10.0), 1.2),
    ("sparse", uniform_points(300, seed=2, span=100.0), 0.8),
    ("skewed", skewed_points(300, seed=3, span=40.0), 1.5),
    ("dups", [(float(i % 7), float(i % 5)) for i in range(200)], 1.0),
    ("exact_eps", EXACT_EPS_POINTS, 0.5),
]

BACKENDS = [
    pytest.param(
        name,
        marks=() if name in kernels.available_backends()
        else pytest.mark.skip(reason=f"{name} backend unavailable"),
    )
    for name in ("python", "numpy")
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
@pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
class TestAnyStrategyParity:
    def test_labels_bit_identical_to_linear_scan(
        self, backend, workload, metric
    ):
        points, eps = next(
            (pts, eps) for name, pts, eps in WORKLOADS if name == workload
        )
        with kernels.use_backend(backend):
            baseline = sgb_any(points, eps, metric, "all-pairs").labels
            for strategy in ANY_STRATEGIES[1:]:
                labels = sgb_any(points, eps, metric, strategy).labels
                assert labels == baseline, (strategy, backend, workload)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
@pytest.mark.parametrize("metric", ["l2", "linf"])
class TestAllStrategyParity:
    def test_labels_bit_identical_across_strategies(self, backend, workload,
                                                    metric):
        points, eps = next(
            (pts, eps) for name, pts, eps in WORKLOADS if name == workload
        )
        with kernels.use_backend(backend):
            results = {
                s: sgb_all(points, eps, metric, strategy=s,
                           tiebreak="first").labels
                for s in ALL_STRATEGIES
            }
        baseline = results[ALL_STRATEGIES[0]]
        assert all(r == baseline for r in results.values()), results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
class TestExactEpsPairs:
    """The widened probe window keeps exact-ε pairs in every strategy."""

    def test_any_strategies(self, backend, metric):
        with kernels.use_backend(backend):
            for strategy in ANY_STRATEGIES:
                labels = sgb_any(EXACT_EPS_POINTS, 0.5, metric,
                                 strategy).labels
                assert labels == [0, 0, 1, 1], strategy

    def test_all_strategies(self, backend, metric):
        with kernels.use_backend(backend):
            for strategy in ALL_STRATEGIES:
                for clause in CLAUSES:
                    labels = sgb_all(EXACT_EPS_POINTS, 0.5, metric, clause,
                                     strategy).labels
                    assert labels == [0, 0, 1, 1], (strategy, clause)

    def test_all_strategies_other_order(self, backend, metric):
        # The ε-All rectangle's rounded edge must not split the pair.
        with kernels.use_backend(backend):
            for strategy in ALL_STRATEGIES:
                for clause in CLAUSES:
                    labels = sgb_all(EXACT_EPS_REVERSED, 0.5, metric,
                                     clause, strategy).labels
                    assert labels == [0, 0, 1, 1], (strategy, clause)
                for dim in (1, 3):
                    points = [p[:1] + (0.0,) * (dim - 1)
                              for p in EXACT_EPS_REVERSED[:2]]
                    labels = sgb_all(points, 0.5, metric,
                                     strategy=strategy).labels
                    assert labels == [0, 0], (strategy, dim)

    def test_all_strategies_beyond_eps_inside_rect(self, backend, metric):
        with kernels.use_backend(backend):
            for strategy in ALL_STRATEGIES:
                for clause in CLAUSES:
                    labels = sgb_all(BEYOND_EPS_INSIDE_RECT, 0.2, metric,
                                     clause, strategy).labels
                    assert labels == [0, 1], (strategy, clause)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossBackendParity:
    """The same strategy must also agree with itself across backends."""

    @pytest.mark.parametrize(
        "strategy", ["kdtree", "rtree-bulk", "hilbert-grid"]
    )
    def test_new_strategies_match_python_reference(self, backend, strategy):
        points, eps = WORKLOADS[0][1], WORKLOADS[0][2]
        with kernels.use_backend("python"):
            reference = sgb_any(points, eps, "l2", strategy).labels
        with kernels.use_backend(backend):
            assert sgb_any(points, eps, "l2", strategy).labels == reference


def _random_points(n, dim, seed, span):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-span, span) for _ in range(dim))
            for _ in range(n)]


def _edge_points():
    """Coordinates on the grid's cell edges (multiples of eps=0.5, exact
    in binary), negative ones included: exact-ε pairs and duplicates."""
    return [(0.25 * (i % 9 - 4), 0.5 * (i % 5 - 2)) for i in range(60)]


def _assert_grid_matches_all_pairs(points, eps, metric, clause, tiebreak,
                                   seed=0):
    reference = sgb_all(points, eps, metric, clause, "all-pairs",
                        tiebreak=tiebreak, seed=seed).labels
    labels = sgb_all(points, eps, metric, clause, "grid",
                     tiebreak=tiebreak, seed=seed).labels
    assert labels == reference


def _assert_anchors_consistent(op):
    """Every live group is in the grid exactly once, under its first
    member."""
    strat = op._strategy
    keyed = sorted((gid, pt) for pt, gid in strat._grid.items())
    assert keyed == sorted((g.gid, g.points[0]) for g in strat.registry)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("tiebreak", ["random", "first"])
@pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
@pytest.mark.parametrize("clause", CLAUSES)
class TestAllGridParity:
    """The SGB-All grid against the all-pairs executable spec."""

    def test_random_points(self, backend, dim, tiebreak, metric, clause):
        points = _random_points(120, dim, seed=dim, span=3.0)
        with kernels.use_backend(backend):
            _assert_grid_matches_all_pairs(points, 0.7, metric, clause,
                                           tiebreak, seed=5)

    def test_cell_edges_negative_coords_and_duplicates(
        self, backend, dim, tiebreak, metric, clause
    ):
        points = [p[:dim] + (0.5,) * (dim - 2) for p in _edge_points()]
        with kernels.use_backend(backend):
            _assert_grid_matches_all_pairs(points, 0.5, metric, clause,
                                           tiebreak, seed=3)


class TestAllGridRounding:
    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_pair_whose_rounded_distance_is_exactly_eps(self, metric):
        # |0.5 - (-1e-20)| rounds to 0.5, so the pair is similar, yet
        # 0.5 - 0.5 = 0.0 puts the probe box's edge in the cell right of
        # the anchor's; the probe box must be widened to reach it.
        points = [(-1e-20, 0.0), (0.5, 0.0)]
        for clause in CLAUSES:
            assert sgb_all(points, 0.5, metric, clause, "grid").labels == \
                [0, 0]


class TestAllGridAnchors:
    def test_eliminate_rekeys_a_group_whose_anchor_is_dropped(self):
        # 0.0 anchors group A; -1.0 overlaps A only through 0.0, so
        # ELIMINATE drops 0.0 and A survives as {0.9}; 1.8 must then find
        # A through its new anchor.
        points = [(0.0,), (0.9,), (-1.0,), (1.8,)]
        op = SGBAllOperator(1.0, "linf", "eliminate", "grid",
                            tiebreak="first")
        for p in points[:3]:
            op.add(p)
        _assert_anchors_consistent(op)
        assert [g.points for g in op._strategy.registry] == [
            [(0.9,)], [(-1.0,)]
        ]
        op.add(points[3])
        _assert_anchors_consistent(op)
        result = op.finalize()
        assert result.labels == sgb_all(points, 1.0, "linf", "eliminate",
                                        "all-pairs", tiebreak="first").labels
        assert result.labels[1] == result.labels[3]

    def test_anchors_stay_consistent_under_churn(self):
        points = _random_points(200, 2, seed=11, span=2.0)
        op = SGBAllOperator(0.5, "l2", "eliminate", "grid", seed=2)
        for p in points:
            op.add(p)
            _assert_anchors_consistent(op)

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_form_new_group_regroup_passes(self, metric):
        points = _random_points(200, 2, seed=4, span=2.0)
        bag = MetricBag()
        op = SGBAllOperator(0.6, metric, "form-new-group", "grid",
                            tiebreak="random", seed=7, metrics=bag)
        labels = op.add_many(points).finalize().labels
        assert bag.get("deferred") > 0  # S' is regrouped at least once
        assert labels == sgb_all(points, 0.6, metric, "form-new-group",
                                 "all-pairs", seed=7).labels


class _ScaledLinf(Metric):
    """A custom metric (2·L∞): the grid may not assume its cell bound."""

    name = "scaled-linf"

    def distance(self, p, q):
        return 2.0 * max(abs(a - b) for a, b in zip(p, q))


class TestAllGridFallbacks:
    def test_eps_zero_falls_back_to_bounds_checking(self):
        points = [(float(i % 3), float(i % 2)) for i in range(30)]
        op = SGBAllOperator(0.0, strategy="grid", tiebreak="first")
        assert op.strategy_name == "bounds-checking"
        labels = op.add_many(points).finalize().labels
        assert labels == sgb_all(points, 0.0, strategy="all-pairs",
                                 tiebreak="first").labels

    def test_custom_metric_falls_back_to_bounds_checking(self):
        points = _random_points(80, 2, seed=6, span=2.0)
        op = SGBAllOperator(0.5, _ScaledLinf(), "eliminate", "grid")
        assert op.strategy_name == "bounds-checking"
        labels = op.add_many(points).finalize().labels
        assert labels == sgb_all(points, 0.5, _ScaledLinf(), "eliminate",
                                 "all-pairs").labels

    def test_builtin_metrics_keep_the_grid(self):
        for metric in ("l2", "linf", "l1"):
            op = SGBAllOperator(0.5, metric, strategy="grid")
            assert op.strategy_name == "grid"


class TestAllGridOtherPaths:
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_sql_path(self, clause):
        points = skewed_points(300, seed=3, span=40.0)
        sql = ("SELECT min(id), count(*) FROM pts GROUP BY x, y "
               f"DISTANCE-TO-ALL L2 WITHIN 1.5 ON-OVERLAP {clause.upper()}")
        rows = {}
        for strategy in ("all-pairs", "grid"):
            db = Database(sgb_all_strategy=strategy)
            db.execute("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
            db.table("pts").insert_many(
                [(i, x, y) for i, (x, y) in enumerate(points)]
            )
            rows[strategy] = sorted(db.execute(sql).rows)
            plan = "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)
            assert f"strategy={strategy}/flag" in plan
        assert rows["grid"] == rows["all-pairs"]

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_streaming_wrapper(self, clause):
        points = _random_points(150, 2, seed=9, span=3.0)
        eng = StreamingSGBAll(eps=0.8, on_overlap=clause, strategy="grid",
                              seed=4)
        eng.extend(points[:70])
        eng.snapshot()  # mid-stream snapshot must not disturb the stream
        eng.extend(points[70:])
        batch = sgb_all(points, 0.8, on_overlap=clause,
                        strategy="all-pairs", seed=4)
        assert eng.snapshot().partition() == batch.partition()


# ----------------------------------------------------------------------
# SGB-Any grid: the batch cell-join kernel against the linear scan
# ----------------------------------------------------------------------
def _lattice(n, dim, seed, step=0.25, span=8):
    """Multiples of ``step`` (exact in binary) around the origin: with
    ε = 0.5 many points sit on cell edges, so their widened probe
    windows reach a fourth cell; negative coordinates, duplicates and
    exact-ε pairs abound."""
    rng = random.Random(seed)
    return [tuple(step * rng.randint(-span, span) for _ in range(dim))
            for _ in range(n)]


def _exact_eps_nd(dim):
    """Exact-ε pairs in both orders, in ``dim`` dimensions; a shift keeps
    the pairs apart along the axis whose tiny coordinate it would
    round away."""
    if dim == 1:  # one chain through both orders, and a plain pair
        return [(0.5,), (-1e-20,), (-0.5,), (1e-20,), (7.0,), (7.5,)]
    pts = EXACT_EPS_POINTS + [
        (x, y + 20.0) if y == 0.0 else (x + 20.0, y)
        for x, y in EXACT_EPS_REVERSED
    ]
    return [p + (0.0,) * (dim - 2) for p in pts]


GRID_INPUTS = {
    "edges": lambda dim: _lattice(160, dim, seed=dim),
    "exact_eps": _exact_eps_nd,
    "random": lambda dim: _random_points(160, dim, seed=dim, span=3.0),
}


@pytest.fixture
def vectorized_grid(monkeypatch):
    """Send every input, however small, through the numpy kernel."""
    if "numpy" not in kernels.available_backends():
        pytest.skip("numpy backend unavailable")
    from repro.kernels import numpy_backend

    monkeypatch.setattr(numpy_backend, "_GRID_FALLBACK", 2)
    return numpy_backend


def _grid_counters(points, eps, metric):
    bag = MetricBag()
    op = SGBAnyOperator(eps, metric, strategy="grid", metrics=bag)
    labels = op.add_many(points).finalize().labels
    return labels, {k: v for k, v in bag.counters.items()}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
@pytest.mark.parametrize("inputs", sorted(GRID_INPUTS))
class TestAnyGridKernelParity:
    def test_labels_match_linear_scan(self, vectorized_grid, dim, metric,
                                      inputs):
        points = GRID_INPUTS[inputs](dim)
        for backend in ("python", "numpy"):
            with kernels.use_backend(backend):
                reference = sgb_any(points, 0.5, metric, "all-pairs").labels
                assert sgb_any(points, 0.5, metric, "grid").labels == \
                    reference, backend

    def test_counters_identical_across_backends(self, vectorized_grid, dim,
                                                metric, inputs):
        points = GRID_INPUTS[inputs](dim)
        runs = {}
        for backend in ("python", "numpy"):
            with kernels.use_backend(backend):
                runs[backend] = _grid_counters(points, 0.5, metric)
        assert runs["numpy"] == runs["python"]
        counters = runs["numpy"][1]
        assert counters["index_probes"] == len(points)
        if metric == "linf":
            assert counters["distance_computations"] == 0
        else:
            assert counters["distance_computations"] == \
                counters["candidates"]


class TestAnyGridKernelBlocks:
    def test_tiny_blocks_change_nothing(self, vectorized_grid, monkeypatch):
        points = _lattice(300, 2, seed=7) + _random_points(200, 2, 8, 2.0)
        with kernels.use_backend("numpy"):
            expected = _grid_counters(points, 0.5, "l2")
            monkeypatch.setattr(vectorized_grid, "_PAIR_BLOCK", 7)
            assert _grid_counters(points, 0.5, "l2") == expected
        assert expected[0] == sgb_any(points, 0.5, "l2", "all-pairs").labels

    def test_custom_metric_falls_back_to_reference(self, vectorized_grid):
        points = _lattice(120, 2, seed=3)
        with kernels.use_backend("numpy"):
            labels = sgb_any(points, 0.5, _ScaledLinf(), "grid").labels
        assert labels == sgb_any(points, 0.5, _ScaledLinf(),
                                 "all-pairs").labels

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partitions_serial_and_parallel(self, backend):
        rng = random.Random(5)
        points = _lattice(400, 2, seed=5)
        keys = [rng.randrange(4) for _ in points]
        with kernels.use_backend(backend):
            serial = sgb_any(points, 0.5, strategy="grid", partitions=keys,
                             parallel=0).labels
            pooled = sgb_any(points, 0.5, strategy="grid", partitions=keys,
                             parallel=2).labels
            reference = sgb_any(points, 0.5, strategy="all-pairs",
                                partitions=keys).labels
        assert serial == pooled == reference
