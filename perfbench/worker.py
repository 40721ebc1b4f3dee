"""Warm worker of the supportgenus benchmark.

Reads one JSON request per line on stdin and answers one JSON line on
stdout:

* ``{"run": argv}`` calls ``supportgenus.cli.main(argv)`` with stdout and
  stderr captured and answers ``{"code", "out", "err", "seconds"}``;
* ``{"trace": argv, "op": id}`` does the same, then replays the op's
  layer calls once untraced and once traced (see :mod:`tracing`);
* ``{"finish": path}`` writes the spans to ``path`` and answers
  ``{"metrics": ...}`` with the per-layer totals.

Run from the repository root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import tracing
from supportgenus.cli import main


def run_main(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "seconds": seconds}


def serve(requests, replies) -> None:
    tracer, untraced = tracing.Tracer(), tracing.Untraced()
    untraced_seconds = 0.0
    fixture_dir = Path("src") / "supportgenus" / "fixtures"
    for line in requests:
        request = json.loads(line)
        if "run" in request:
            reply = run_main(request["run"])
        elif "trace" in request:
            argv, op = request["trace"], request["op"]
            reply = run_main(argv)
            tracer.op = op
            # Alternate which replay runs first, so that neither profits
            # from the other warming up on every op.
            if op % 2:
                tracing.replay(argv, reply["out"], tracer, fixture_dir)
            start = time.perf_counter()
            tracing.replay(argv, reply["out"], untraced, fixture_dir)
            untraced_seconds += time.perf_counter() - start
            if not op % 2:
                tracing.replay(argv, reply["out"], tracer, fixture_dir)
        else:
            tracer.write(Path(request["finish"]))
            reply = {"metrics": tracing.layer_metrics(tracer, untraced_seconds)}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
