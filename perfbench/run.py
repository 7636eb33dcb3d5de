"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload checkin_sgb --seed 1 --seconds 10 \\
        --trace 0

Prints each metric with its unit and sample count (result metrics marked
``*``), then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also prints the per-layer self-time table and writes its spans under
``.perfbench/``.  Exits 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tpch_table2", "checkin_sgb", "service_rw")
OUT_DIR = ".perfbench"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    spans_path = None
    if args.trace:
        out_dir = os.path.join(ROOT, OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.workload == "service_rw":
        from perfbench import service_load

        report, log = service_load.run(
            service_load.ServiceRW(), args.seed, args.seconds,
            bool(args.trace), spans_path)
    else:
        from perfbench import embedded

        workload = embedded.WORKLOADS[args.workload]()
        report, log = embedded.run(workload, args.seed, args.seconds,
                                   bool(args.trace), spans_path)
    for why in log.failures:
        print(f"# FAILED {why}")
    report.emit(log.failed == 0, log.attempted, log.failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
