"""The serve-query workload's server process.

Usage: ``python3 server.py <pickled MiningResult> <work dir> <set-ups> <pool size>``

Each set-up writes the mined patterns into a fresh file store, opens a
read-connection pool, starts the asyncio HTTP server and waits for the
first ``/healthz`` answer; all but the last server are stopped again.  The
process then prints one JSON line (port, set-up samples), serves until a
line arrives on stdin, and prints a second JSON line with its peak RSS.
"""

import contextlib
import gc
import http.client
import json
import os
import pickle
import resource
import sys
import time

from repro.serve.app import PatternApp
from repro.serve.async_http import running_server
from repro.serve.pool import ReadConnectionPool
from repro.store.pattern_store import PatternStore


def healthz(port: int) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
    finally:
        conn.close()


def main() -> int:
    result_path, workdir = sys.argv[1], sys.argv[2]
    setups, pool_size = int(sys.argv[3]), int(sys.argv[4])
    with open(result_path, "rb") as handle:
        result = pickle.load(handle)
    report = {"setup_s": [], "write_s": [], "start_s": []}
    with contextlib.ExitStack() as running:
        for index in range(setups):
            running.close()
            path = os.path.join(workdir, f"served-{index}.db")
            begin = time.perf_counter()
            store = PatternStore(path)
            store.write_result(result)
            store.close()
            written = time.perf_counter()
            pool = ReadConnectionPool(path, size=pool_size)
            running.callback(pool.close)
            app = PatternApp(pool)
            opened = time.perf_counter()
            host, port = running.enter_context(running_server(app, workers=pool_size))
            healthz(port)
            ready = time.perf_counter()
            report["setup_s"].append(ready - begin)
            report["write_s"].append(written - begin)
            report["start_s"].append(ready - opened)
        report.update(
            port=port,
            store=path,
            patterns=len(result.closed_crowds) + len(result.gatherings),
        )
        # A serving process does not hold a mined result: drop it, and keep
        # the collector from re-scanning the server's start-up objects.
        del result
        gc.collect()
        gc.freeze()
        sys.stdout.write(json.dumps(report) + "\n")
        sys.stdout.flush()
        sys.stdin.readline()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps({"peak_rss_mb": peak}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
