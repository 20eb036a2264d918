#!/usr/bin/env python3
"""Desk-session benchmark for alghyp.

A mathematician at a desk waits for each answer, so the load is a closed
loop with one client.  Every run is a fresh child process (one thread);
this harness only starts it and reads its report.  Run from the root of
a checkout that has ``src/alghyp``:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --repeat 3

One run prints every metric as "<workload> <metric> <value> <unit>" and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run of the workload's
fixed op list.  ``--workload all`` runs every workload both ways for
``--repeat`` seeds from ``--seed`` on, prints medians and quartiles, and
with ``--record FILE`` writes them with the Python version and git sha.
See README.md for the workloads, op classes and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_BUDGET_S = 170  # a run must end within 180 s, whatever the program does
WALL_CLOCK = "wall-clock, not scaled to nominal host speed"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(workload, seed, mode, deadline, seconds=0.0, spans_path=None):
    """Start one child, wait for it (killing it at `deadline`, a monotonic
    time), and return (setup timings, report)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--src", SRC]
    if spans_path:
        argv += ["--spans", spans_path]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cal_ms = host.calibration_ms()
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    messages = {}
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH "):
                _, tag, payload = line.split(" ", 2)
                messages[tag] = json.loads(payload)
                if tag == "READY":
                    messages["ready_seen_ns"] = time.perf_counter_ns()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or "READY" not in messages or (mode != "setup" and "RESULT" not in messages):
        raise BenchError(f"{workload} child in mode {mode} exited with {code}")
    ready = messages["READY"]
    scale = host.scale(cal_ms)
    setup = {
        "setup_s": (messages["ready_seen_ns"] - spawn_ns) / 1e9 * scale,
        "raw_setup_s": (messages["ready_seen_ns"] - spawn_ns) / 1e9,
        "interpreter_ms": (ready["main_ns"] - spawn_ns) / 1e6 * scale,
        "import_ms": (ready["imported_ns"] - ready["started_ns"]) / 1e6 * scale,
        "inputs_ms": (ready["ready_ns"] - ready["imported_ns"]) / 1e6 * scale,
    }
    return setup, messages.get("RESULT")


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def _latencies_ms(report):
    """Op latencies in ms at nominal host speed.  Each one is scaled by the
    mean of the calibrations taken right before and right after it: the
    host flips between a fast and a slow state many times a second, so
    only a calibration next to the op tells which state it ran in."""
    pairs = zip(report["latencies_ns"], report["calibration_ms"])
    return [ns / 1e6 * host.scale(cal) for ns, cal in pairs]


def _ops_per_s(lat_ms):
    return len(lat_ms) / (sum(lat_ms) / 1e3)


def run_timed(workload, seed, seconds, deadline):
    """End-to-end metrics of one untraced run."""
    setups = [_child(workload, seed, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
    setup, report = _child(workload, seed, "timed", deadline, seconds)
    setups.append(setup)
    raw_ms = [ns / 1e6 for ns in report["latencies_ns"]]
    lat_ms = _latencies_ms(report)
    raw = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "ops_per_s": _ops_per_s(raw_ms),
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": _p90(raw_ms),
    }
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_s": (_ops_per_s(lat_ms), "op/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (_p90(lat_ms), "ms"),
        "peak_rss_mib": (report["maxrss_kib"] / 1024, "MiB"),
    }
    by_class = {}
    for cls, ms in zip(report["op_classes"], lat_ms):
        by_class.setdefault(cls, []).append(ms)
    notes = {
        WALL_CLOCK: raw,
        "host calibration_ms mean": statistics.fmean(report["calibration_ms"]),
        "samples": len(raw_ms),
        "beyond_p90": sum(v > metrics["op_p90_ms"][0] for v in lat_ms),
        "fail_ratio": report["failed"] / len(raw_ms),
        "op class: count, p50 ms": {cls: (len(v), round(statistics.median(v), 4))
                                    for cls, v in by_class.items()},
    }
    return metrics, len(raw_ms), report["failed"], report["failures"], notes


def _work_counts(layer):
    return {name: value for name, (value, unit) in layer.items() if unit == "count"}


def _trace_workload(workload, seed, deadline):
    """Per-layer metrics of one workload's fixed op list, traced twice,
    plus an untraced pass of the same list for the tracing overhead."""
    setups, reports, layers = [], [], []
    setup, plain = _child(workload, seed, "fixed", deadline)
    setups.append(setup)
    for attempt in (1, 2):
        path = os.path.join(OUT, f"spans-{workload}-{attempt}.json")
        setup, report = _child(workload, seed, "traced", deadline, spans_path=path)
        setups.append(setup)
        reports.append(report)
        layers.append(spans.layer_metrics(path, workload))
    scale = host.scale(statistics.fmean(reports[0]["calibration_ms"]))
    metrics = {name: (value * scale if unit == "ms" else value, unit)
               for name, (value, unit) in layers[0].items()}
    if "grassmann.multiply" in spans.REACHED[workload][0]:
        metrics["grassmann.cache_hits"] = (reports[0].get("cache_hits", 0), "count")
        metrics["grassmann.cache_size"] = (reports[0].get("cache_size", 0), "count")
    traced = _ops_per_s(_latencies_ms(reports[0]))
    untraced = _ops_per_s(_latencies_ms(plain))
    metrics["trace.traced_ops_per_s"] = (traced, "op/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "op/s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    for part in ("interpreter_ms", "import_ms", "inputs_ms"):
        metrics[f"setup.{part}"] = (statistics.median(s[part] for s in setups), "ms")
    failures = plain["failures"] + reports[0]["failures"] + reports[1]["failures"]
    if _work_counts(layers[0]) != _work_counts(layers[1]):
        failures.append("work counts differ between two traced runs of the same inputs")
    attempted = sum(len(r["latencies_ns"]) for r in (plain, *reports))
    return metrics, attempted, failures


def run_traced(seed, deadline):
    """Per-layer metrics of every workload, each under its own name prefix.

    All four fixed lists are traced whatever --workload names, because a
    layer is measured where it works: ``sections`` on section-rank,
    ``cli`` on cli-session, and so on.
    """
    os.makedirs(OUT, exist_ok=True)
    metrics, attempted, failures = {}, 0, []
    for workload in workloads.WORKLOADS:
        layer, count, failed = _trace_workload(workload, seed, deadline)
        metrics.update({f"{workload}.{name}": value for name, value in layer.items()})
        attempted += count
        failures += [f"{workload}: {f}" for f in failed]
    notes = {"spans files": os.path.relpath(OUT, ROOT),
             "matrix_cells": "computed as target_dim * n * C(n+d-1, d-1) per check"}
    return metrics, attempted, len(failures), failures, notes


def _print_metrics(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}" if isinstance(value, float)
              else f"{workload} {name} {value} {unit}")


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        workload = "trace"
        metrics, attempted, failed, failures, notes = run_traced(seed, deadline)
    else:
        metrics, attempted, failed, failures, notes = run_timed(workload, seed, seconds, deadline)
    _print_metrics(workload, metrics)
    print(f"{workload} attempted {attempted} failed {failed} fail_ratio {failed / attempted:.6g}")
    for key, value in notes.items():
        print(f"{workload} note {key}: {value}")
    for failure in failures:
        print(f"{workload} FAILED {failure}")
    return metrics, attempted, failed, notes


def _git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_all(seed, seconds, repeat, record):
    """Every workload untraced for `repeat` seeds, then the traced run."""
    summary, attempted, failed = {}, 0, 0
    for workload in workloads.WORKLOADS:
        runs, walls = [], []
        for s in range(seed, seed + repeat):
            metrics, a, f, notes = run_one(workload, s, seconds, trace=False)
            runs.append(metrics)
            walls.append(notes[WALL_CLOCK])
            attempted, failed = attempted + a, failed + f
        entry = {}
        for name, (_, unit) in runs[0].items():
            values = [m[name][0] for m in runs]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            entry[name] = {"unit": unit, "median": median, "q1": q[0], "q3": q[2],
                           "spread": (q[2] - q[0]) / median}
            if name in walls[0]:
                entry[name]["wall_clock_median"] = statistics.median(w[name] for w in walls)
            print(f"{workload} {name} median {median:.6g} {unit}"
                  f" spread {entry[name]['spread']:.3f} over {len(values)} seeds")
        summary[workload] = entry
    layer, a, f, _ = run_one("trace", seed, seconds, trace=True)
    attempted, failed = attempted + a, failed + f
    if record:
        with open(record, "w", encoding="utf-8") as fh:
            json.dump({"git_sha": _git_sha(), "python": platform.python_version(),
                       "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
                       "seeds": [seed, seed + repeat - 1], "seconds": seconds,
                       "end_to_end": summary,
                       "per_layer": {n: {"value": v, "unit": u} for n, (v, u) in layer.items()}},
                      fh, indent=1)
            fh.write("\n")
    flat = {f"{w}.{n}": {"value": e["median"], "unit": e["unit"]}
            for w, entry in summary.items() for n, e in entry.items()}
    return attempted, failed, flat


def main(argv=None):
    parser = argparse.ArgumentParser(description="Desk-session benchmark for alghyp.")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload with --workload all")
    parser.add_argument("--record", help="with --workload all: write the summary to this file")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alghyp", "__init__.py")):
        print(f"error: no alghyp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if opts.workload == "all":
            attempted, failed, metrics = run_all(opts.seed, opts.seconds, opts.repeat, opts.record)
        else:
            raw, attempted, failed, _ = run_one(opts.workload, opts.seed, opts.seconds, opts.trace)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
