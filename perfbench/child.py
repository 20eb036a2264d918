"""One benchmark run: a fresh process that sets up, then runs ops in a
closed loop with one client and checks every output outside the timed
region.  Started by run.py; talks to it through "PERFBENCH <tag> <json>"
lines on a duplicate of the original stdout, so nothing the program
prints can be mistaken for them.

Modes:
  setup   import and generate inputs, report READY, exit
  timed   run whole blocks until --seconds have passed (and 110 ops)
  fixed   run the workload's fixed list of blocks untraced
  traced  run the same fixed list with every layer binding traced
"""

import time

MAIN_NS = time.perf_counter_ns()

import argparse
import importlib
import io
import itertools
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout

import checks
import host
import workloads
from checks import expect

clock = time.perf_counter_ns


def _parts(element):
    return {lam.parts: c for lam, c in element.terms.items()}


class Library:
    """Runs the ring, chern and sections workloads through library calls."""

    def __init__(self):
        self.grassmann = importlib.import_module("alghyp.grassmann")
        self.chern = importlib.import_module("alghyp.chern")
        self.sections = importlib.import_module("alghyp.sections")

    def prepare(self, call, args):
        g, chern, sections = self.grassmann, self.chern, self.sections
        if call == "multiply":
            k, n, lam, mu = args
            ctx = g.RingContext(k, n)
            x, y = g.make_class(ctx, lam), g.make_class(ctx, mu)
            return lambda: g.multiply(x, y)
        if call == "chain":
            ctx = g.RingContext(*args)
            s1 = g.make_class(ctx, (1,))

            def chain():
                x = s1
                for _ in range(ctx.dim - 1):
                    x = g.multiply(x, s1)
                return x

            return chain
        if call == "grid":
            return lambda: sections.grid_report()
        if call == "check":
            return lambda: sections.check_projective_space(*args)
        return lambda: getattr(chern, call)(*args)

    def check(self, call, args, result):
        if call == "multiply":
            k, n, lam, mu = args
            width = n - k
            terms = _parts(result)
            checks.check_product(terms, lam, mu, k, width)
            for a, b in ((lam, mu), (mu, lam)):
                if len(b) == 1:
                    expect(terms == checks.pieri_row(a, b[0], k, width), "Pieri row oracle")
                elif set(b) == {1}:
                    expect(terms == checks.pieri_column(a, len(b), k, width), "Pieri column oracle")
            if k <= 4 and k * width <= 12:
                expect(terms == checks.schur_product(lam, mu, k, width), "Schur oracle")
        elif call == "chain":
            k, n = args
            top = (n - k,) * k
            expect(_parts(result) == {top: checks.grassmannian_degree(k, n)}, "hook-length degree")
        elif call == "paired_rearrangement":
            terms = _parts(result)
            expect(terms == checks.top_chern_expansion(*args), "paired route vs root product")
            expect(terms == _parts(self.chern.top_chern_sym(*args)), "paired route vs top_chern_sym")
        elif call == "fano_class":
            d, N = args
            terms = _parts(result.expansion)
            expect(terms == checks.top_chern_expansion(d, N), "fano_class vs root product")
            two_rows = [terms.get((d + 1 - j, j), 0) for j in range(1, (d + 1) // 2 + 1)]
            missing = (d + 1,) not in terms and min(two_rows) > 0
            expect(result.missing_class_ok and missing, "missing_class_ok")
        elif call == "line_count":
            (n,) = args
            expect(result == checks.line_count(n), f"line count {result} for n={n}")
            expect(result == checks.A027363.get(n, result), f"A027363 disagrees at n={n}")
        else:
            results = result if call == "grid" else [result]
            wanted = [(n, d) for n in range(1, 5) for d in range(1, 7)] if call == "grid" else [args]
            expect([(r.n, r.d) for r in results] == wanted, "section checks out of order")
            for r in results:
                target = checks.section_target(r.n, r.d)
                expect(r.ok and r.rank == r.target_dim == target, f"section rank at {(r.n, r.d)}")


class Cli:
    """Runs argv through alghyp.cli.main in process, stdout captured."""

    def __init__(self, tracer):
        self.cli = importlib.import_module("alghyp.cli")
        self.checker = checks.CliChecker()
        self.tracer = tracer

    def prepare(self, call, args):
        argv = list(args[0])

        def invoke():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return invoke

    def check(self, call, args, result):
        code, out, err = result
        if self.tracer is not None:
            counters = self.tracer.counters
            counters["cli.stdout_bytes"] += len(out.encode())
            if code in (1, 2):
                counters[f"cli.exit{code}"] += 1
        argv, expected = args
        expect(self.prepare(call, args)() == result, "rerun output differs")
        self.checker.check(argv, expected, code, out, err)


def _cache_stats(grassmann):
    info = getattr(getattr(grassmann, "_basis_product", None), "cache_info", None)
    return info() if info else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    parser.add_argument("--src", required=True)
    opts = parser.parse_args()
    started_ns = clock()

    import alghyp

    if opts.workload == "cli-session":
        import alghyp.cli  # noqa: F401

    if not os.path.realpath(alghyp.__file__).startswith(os.path.realpath(opts.src) + os.sep):
        raise SystemExit(f"alghyp imported from {alghyp.__file__}, not from {opts.src}")
    imported_ns = clock()
    stream = workloads.blocks(opts.workload, opts.seed)
    fixed = [next(stream) for _ in range(workloads.WORKLOADS[opts.workload][1])]
    ready_ns = clock()

    channel = os.fdopen(os.dup(1), "w")

    def emit(tag, payload):
        channel.write(f"PERFBENCH {tag} {json.dumps(payload)}\n")
        channel.flush()

    emit("READY", {"main_ns": MAIN_NS, "started_ns": started_ns,
                   "imported_ns": imported_ns, "ready_ns": ready_ns})
    if opts.mode == "setup":
        return

    tracer = None
    if opts.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    runner = Cli(tracer) if opts.workload == "cli-session" else Library()
    grassmann = importlib.import_module("alghyp.grassmann")
    cache_before = _cache_stats(grassmann)

    if opts.mode == "timed":
        deadline = clock() + int(opts.seconds * 1e9)
        todo = itertools.chain(fixed, stream)
    else:
        deadline = None
        todo = iter(fixed)

    latencies, op_classes, failures = [], [], []
    calibrations = []
    for block in todo:
        for cls, call, args in block:
            before = host.calibration_ms()
            op_id = len(latencies)
            t0 = t1 = clock()
            try:
                thunk = runner.prepare(call, args)
                if tracer is not None:
                    tracer.begin(op_id)
                t0 = clock()
                try:
                    result = thunk()
                finally:
                    t1 = clock()
                    if tracer is not None:
                        tracer.end()
                runner.check(call, args, result)
            except Exception as err:  # any raise or failed check fails the op
                failures.append(f"{cls} {call}{args!r}: {type(err).__name__}: {err}"[:400])
            latencies.append(t1 - t0)
            calibrations.append((before + host.calibration_ms()) / 2)
            op_classes.append(cls)
        # Ten samples beyond the 90th percentile need at least 110 ops.
        if deadline is not None and clock() >= deadline and len(latencies) >= 110:
            break

    cache_after = _cache_stats(grassmann)
    report = {
        "latencies_ns": latencies,
        "calibration_ms": calibrations,
        "failed": len(failures),
        "failures": failures[:5],
        "op_classes": op_classes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if cache_after is not None:
        report["cache_hits"] = cache_after.hits - cache_before.hits
        report["cache_size"] = cache_after.currsize
    if tracer is not None:
        tracer.write(opts.spans, {"workload": opts.workload, "seed": opts.seed})
    emit("RESULT", report)


if __name__ == "__main__":
    sys.exit(main())
