"""Benchmark entry point: one workload, one seed, every metric, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace-batch --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from ``--seed`` (never timed), runs the
timed part in a fresh worker process against the program in ``src/``,
checks the answers, and prints every metric.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run traces every other unit
of work (job, chunk of the feed, block of requests), prints the untraced
and traced units side by side with the tracing overhead, and writes a
Chrome trace plus per-layer aggregates under ``.perfbench-out/``.

Exits 1 when a correctness check fails and 2 when the program or its
inputs cannot be run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORK_DIR = os.path.join(ROOT, ".perfbench-work")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: A run that has not finished by then is killed (the contract allows 180 s).
WORKER_TIMEOUT = 170.0
#: The unit of work a traced run alternates on, per workload.
UNIT = {
    "trace-batch": "mining job (load, phases 1-3, store write)",
    "stream-replay": "replay of the feed's second half",
    "serve-query": "block of in-process PatternApp requests, the same block on two apps",
}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def generate(workload: str, seed: int, seconds: float, workdir: str) -> str:
    """Write the workload's inputs and its ``meta.json``; return the latter's path."""
    import numpy as np

    import gen
    import workloads as W

    spec = {
        "trace-batch": W.TRACE_BATCH,
        "stream-replay": W.STREAM_REPLAY,
        "serve-query": W.SERVE_QUERY,
    }[workload]
    fleet = gen.make_fleet(spec, seed)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "workdir": workdir,
        "planted": [asdict(event) for event in fleet.planted],
        "bounds": list(gen.firewall_bounds(spec)),
        "max_speed": gen.MAX_SPEED,
        "trace_path": os.path.join(OUT_DIR, f"{workload}-{seed}.trace.json"),
    }
    csv_path = os.path.join(workdir, "trace.csv")
    if workload == "trace-batch":
        meta["injected"] = gen.write_trace_csv(fleet, csv_path, W.CORRUPT_SHARE, seed)
        meta["rows"] = len(fleet) + sum(meta["injected"].values())
        meta["csv"] = csv_path
        meta["readback"] = gen.make_readback(fleet, seed, W.READBACK_QUERIES)
    elif workload == "serve-query":
        gen.write_clean_csv(fleet, csv_path)
        meta["csv"] = csv_path
        meta["mix"] = gen.make_query_mix(
            fleet, seed, W.SERVE_MIX_REQUESTS, W.SERVE_POPULAR_KEYS, W.SERVE_PAGE_WALKS
        )
    else:
        feed = gen.make_feed(
            fleet,
            seed,
            jitter=W.STREAM_JITTER,
            late_share=W.STREAM_LATE_SHARE,
            late_delay=W.STREAM_LATE_DELAY,
            garbage_share=W.STREAM_GARBAGE_SHARE,
        )
        meta["feed"] = os.path.join(workdir, "feed.npy")
        meta["half"] = len(feed) // 2
        np.save(meta["feed"], feed)
    path = os.path.join(workdir, "meta.json")
    with open(path, "w") as handle:
        json.dump(meta, handle)
    return path


def run_worker(meta_path: str, trace: bool) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Its own process group, so that a worker that overruns is stopped
    # together with every process it started.
    worker = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), meta_path, "1" if trace else "0"],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = worker.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with {worker.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def describe(benchmark: dict, run: dict) -> None:
    """Human-readable lines: every end-to-end metric with unit and sample size."""
    latency = run["details"].get("latency", {})
    host = run["details"]["host"]
    measured = run["details"]["measured_e2e"]
    print(
        f"host speed: {len(host['kernel_s'])} calibration kernel runs, reference"
        f" {host['reference_s']} s; times below are scaled by {host['factor']:.4f}"
        " (measured value in brackets)"
    )
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        note = ""
        if name.startswith("latency_"):
            if name == "latency_p50_ms":
                note = f"  [p50 of {latency['samples']} samples: {latency['what']}]"
            else:
                blocks = len(latency["block_tails_ms"])
                note = (f"  [median p{latency['tail_percentile']:g} of {blocks} blocks of"
                        f" {round(1000 / (100 - latency['tail_percentile']))} consecutive"
                        f" samples, of {latency['samples']} in all]")
        print(f"{name:>18} = {run['e2e'][name]:.6g} {metric['unit']}"
              f" ({measured[name]:.6g}){note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's source (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        meta_path = generate(args.workload, args.seed, args.seconds, workdir)
        run = run_worker(meta_path, bool(args.trace))
    except Exception as error:  # noqa: BLE001 - any failure means no result
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {json.dumps(run['details'])}")
    if args.trace:
        print("end-to-end figures of this run (every other unit traced):")
    describe(benchmark, run)
    if args.trace:
        metrics = traced_metrics(benchmark, run)
        untraced_s = [seconds for traced, seconds in run["units"] if not traced]
        traced_s = [seconds for traced, seconds in run["units"] if traced]
        ratios = run["overhead_ratios"]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "e2e": run["e2e"],
            "unit": UNIT[args.workload],
            "untraced_unit_s": statistics.median(untraced_s),
            "traced_unit_s": statistics.median(traced_s),
            "overhead_ratio": metrics["trace.overhead_ratio"]["value"],
            "overhead_ratios": ratios,
            "overhead_iqr": iqr(ratios),
            "aggregates": run["aggregates"],
            "counts": run["counts"],
            "layers": run["layers"],
        }
        path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-layers.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"unit: {report['unit']}")
        print(f"{'':>18}  {'untraced':>12}  {'traced':>12}")
        print(f"{'units':>18}  {len(untraced_s):12d}  {len(traced_s):12d}")
        print(
            f"{'median unit s':>18}  {report['untraced_unit_s']:12.6g}"
            f"  {report['traced_unit_s']:12.6g}"
        )
        print(
            f"tracing overhead: median {report['overhead_ratio']:+.2%} over {len(ratios)}"
            f" paired units (interquartile range {report['overhead_iqr']:.2%})"
        )
        for layer, entry in sorted(run["aggregates"].items()):
            print(
                f"  layer {layer:<12} spans {entry['count']:>7}  busy {entry['busy_s']:9.4f} s"
                f"  self {entry['self_s']:9.4f} s"
            )
        trace_path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}.trace.json")
        print(f"wrote {path} and {trace_path}")
    else:
        metrics = {
            metric["name"]: {"value": run["e2e"][metric["name"]], "unit": metric["unit"]}
            for metric in benchmark["end_to_end"]
        }

    for name, (ok, detail) in run["checks"].items():
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if run["correct"] else 1


def iqr(values) -> float:
    """Distance between the first and third quartile (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def traced_metrics(benchmark: dict, run: dict) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    values = dict(run["layers"])
    values["trace.overhead_ratio"] = statistics.median(run["overhead_ratios"])
    values["trace.spans"] = run["spans"]
    return {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in benchmark["per_layer"]
    }


if __name__ == "__main__":
    sys.exit(main())
