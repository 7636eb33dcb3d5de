"""Self-tests of the benchmark: short runs of every workload, injected
wrong answers, and seed determinism of the generated inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import embedded, layers, service_load

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def small(name):
    """The workload at a size that runs in a few seconds."""
    if name == "tpch_table2":
        return embedded.TPCHTable2(scale=0.3)
    if name == "checkin_sgb":
        return embedded.CheckinSGB(n=300)
    return service_load.ServiceRW(initial=200, pool=400)


def run_small(name, trace, workload=None, seconds=1.0):
    workload = workload if workload is not None else small(name)
    if name == "service_rw":
        report, log = service_load.run(workload, 3, seconds, trace)
    else:
        report, log = embedded.run(workload, 3, seconds, trace)
    out = io.StringIO()
    report.emit(log.failed == 0, log.attempted, log.failed, out=out)
    return out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


def test_benchmark_json_names_match_the_code():
    assert PER_LAYER == set(layers.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} == {
        "tpch_table2", "checkin_sgb", "service_rw"}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["tpch_table2", "checkin_sgb",
                                  "service_rw"])
def test_short_run_prints_every_metric(name, trace):
    text, result = run_small(name, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for name_, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name_
        if not trace:
            assert metric["value"] > 0, name_
        # every metric is also printed with its unit and sample count
        assert any(line.split()[1:2] == [name_] and " n=" in line
                   for line in text.splitlines()), name_
    if trace:
        assert "self ms per op" in text


class _DropLastGroup(embedded.CheckinSGB):
    """Answers SGB-Any queries with their last group missing."""

    def build(self, seed):
        db = super().build(seed)
        execute = db.execute

        def lying(sql, **kwargs):
            result = execute(sql, **kwargs)
            if "DISTANCE-TO-ANY" in sql and not sql.startswith("EXPLAIN"):
                result.rows = result.rows[:-1]
            return result

        db.execute = lying
        return db


def test_wrong_embedded_answer_is_a_failed_op():
    workload = _DropLastGroup(n=300)
    text, result = run_small("checkin_sgb", False, workload=workload)
    assert result["correct"] is False
    cycles, rest = divmod(result["attempted"], len(workload.cycle))
    assert rest == 0
    assert result["failed"] == 2 * cycles  # any_fine and any_coarse
    ratio = [line for line in text.splitlines() if " error_ratio " in line]
    assert float(ratio[0].split()[1]) == pytest.approx(
        2 / len(workload.cycle))


def test_wrong_snapshot_is_a_failed_op(monkeypatch):
    from repro.service import ServiceClient

    real = ServiceClient.stream_snapshot

    def merged(self, name):
        snap = real(self, name)
        snap["labels"] = [0] * len(snap["labels"])
        return snap

    monkeypatch.setattr(ServiceClient, "stream_snapshot", merged)
    _, result = run_small("service_rw", False)
    assert result["correct"] is False
    assert result["failed"] >= 1


def _tables(db):
    return {name: list(db.table(name).rows)
            for name in sorted(t.name for t in db.catalog)}


@pytest.mark.parametrize("name", ["tpch_table2", "checkin_sgb"])
def test_embedded_inputs_depend_only_on_the_seed(name):
    workload = small(name)
    first = _tables(workload.build(5))
    assert _tables(workload.build(5)) == first
    assert _tables(workload.build(6)) != first


def test_service_inputs_depend_only_on_the_seed():
    workload = small("service_rw")
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5) != workload.inputs(6)


def test_exact_percentiles():
    from perfbench.measure import percentile, tail

    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert tail(xs) == (90.0, pytest.approx(90.1))
    assert tail(list(range(40))) == (75.0, pytest.approx(29.25))
    assert tail(list(range(39))) is None


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checkin_sgb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
