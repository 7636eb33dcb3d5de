"""Server process of the ``service_rw`` workload.

Started by ``perfbench/service_load.py`` as ``python3 -m perfbench.launcher``
with the program sources and the repository root on ``PYTHONPATH``.  It
serves an empty ``checkins`` table with an SGB-Any stream view through
``SGBService`` on an ephemeral port (2 scheduler workers, no default
deadline) and talks to its parent over stdin/stdout, one JSON object per
line:

* on start it prints ``{"port": <port>}``;
* ``{"cmd": "trace", "on": true}`` installs the timing shims and turns
  on the database's own tracing, so the engine counters accumulate;
  ``"on": false`` removes the shims and turns it off again.  The spans
  and totals of every traced stretch go to one recorder.  Replies
  ``{"ok": true}``;
* ``{"cmd": "stop", "spans": <path or null>}`` stops the server and
  replies with its peak RSS and, when traced, the recorder totals; then
  the process exits.
"""

from __future__ import annotations

import json
import sys


def classify(sql: str) -> str:
    """Op kind of a statement, as the load generator names it."""
    head = sql.lstrip().upper()
    if head.startswith("STREAM:"):
        return "snapshot"
    if head.startswith("INSERT"):
        return "insert"
    if "DISTANCE-TO-ANY" in head:
        return "heavy"
    if "WHERE USER_ID" in head:
        return "point"
    return "other"


def main() -> int:
    from repro import Database
    from repro.service import ServerThread, ServiceConfig

    from perfbench.measure import peak_rss_mb
    from perfbench.service_load import EPS, VIEW
    from perfbench.tracing import Recorder, install

    db = Database()
    db.execute("CREATE TABLE checkins "
               "(user_id int, latitude float, longitude float)")
    db.create_stream_view(VIEW, "checkins", ["latitude", "longitude"],
                          "any", eps=EPS, metric="l2")
    config = ServiceConfig(port=0, metrics_port=None, workers=2,
                           default_timeout_s=None)
    server = ServerThread(db, config).start()
    rec = None
    shims = None
    reply = {}
    try:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["cmd"] == "trace":
                if msg["on"] and shims is None:
                    rec = rec if rec is not None else Recorder()
                    db.set_trace(True)
                    shims = install(rec, classify=classify)
                elif not msg["on"] and shims is not None:
                    shims.remove()
                    shims = None
                    db.set_trace(False)
                print(json.dumps({"ok": True}), flush=True)
            elif msg["cmd"] == "stop":
                reply = msg
                break
    finally:
        server.stop()
        if shims is not None:
            shims.remove()
    out = {"peak_rss_mb": peak_rss_mb()}
    if rec is not None:
        agg, counts = rec.totals()
        out["agg"] = [[k, n, v] for (k, n), v in agg.items()]
        out["counts"] = [[k, n, v] for (k, n), v in counts.items()]
        if reply.get("spans"):
            out["spans"] = rec.write_spans(reply["spans"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
