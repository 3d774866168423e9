"""Run one workload of the treeharmonics benchmark and print its metrics.

    python3 perfbench/run.py --workload report-mix --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  One client runs the workload's op list in a closed loop, one
pass after another, until ``--seconds`` are spent.  Every op's output is
checked; an op that raises or fails its check is counted and the run goes on.

Times are wall-clock seconds rescaled to the reference host's speed: between
ops the runner times a fixed pure-Python probe that calls no package code,
and multiplies each pass's measured seconds by ``NOMINAL_PROBE_S`` over the
pass's median probe time.  On a shared host whose speed drifts by tens of
percent over tens of seconds, this keeps runs of one commit comparable.  The
unscaled figures are printed on the provenance line.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes alternate, the per-layer metrics of the traced
passes are printed, and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records provenance and sample counts.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: The variables ``treeharm --deterministic`` pins; set before numpy loads.
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("report-mix", "report-deep", "kernel-suite")
#: Set-up (input generation and one warm-up op) is repeated and its median kept.
SETUP_REPEATS = 3
#: At most this many failure messages are printed to standard error.
MAX_REPORTED_FAILURES = 5

#: Loop length of the speed probe, about 6 ms of interpreter work.
PROBE_ITERS = 50_000
#: Probe time on the reference host (a 2-core x86-64 virtual machine, CPython 3.11).
NOMINAL_PROBE_S = 0.006
#: A probe is taken after the first op that ends this long after the last probe.
PROBE_INTERVAL_S = 0.2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _probe():
    """Seconds for a fixed interpreter loop that calls no package code."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - start


class HostSpeed:
    """Probes taken during one stretch of work; :meth:`scale` ends the stretch."""

    def __init__(self):
        self.samples = [_probe()]
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.samples.append(_probe())
            self.last = time.perf_counter()

    def scale(self):
        """Factor that converts this stretch's seconds to reference-host seconds."""
        self.samples.append(_probe())
        return NOMINAL_PROBE_S / statistics.median(self.samples)


class Runner:
    """Runs a workload's passes and keeps what the metrics are computed from."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.pass_s = []
        self.raw_pass_s = []
        self.attempted = 0
        self.failures = []
        self.gaps = []

    def execute(self, op):
        """Run and check one op; return ``(seconds, output, error)``."""
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is counted, the run goes on
            return time.perf_counter() - start, None, exc
        elapsed = time.perf_counter() - start
        try:
            op.check(out)
        except Exception as exc:
            return elapsed, out, exc
        return elapsed, out, None

    def run_pass(self, tracer=None, expected=None, first_op_id=0):
        """One pass over the op list; returns ``(scaled seconds, scale, outputs)``.

        Latencies, pass time and gaps are recorded for untraced passes only.
        ``expected`` holds an untraced pass's outputs, which a traced pass
        must reproduce exactly.
        """
        speed = HostSpeed()
        total = 0.0
        latencies = []
        outputs = []
        for i, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = first_op_id + i
            elapsed, out, error = self.execute(op)
            if error is None and expected is not None and out != expected[i]:
                error = AssertionError("traced output differs from the untraced output")
            self.attempted += 1
            total += elapsed
            outputs.append(out)
            if error is not None:
                self.failures.append(f"{op.name}: {type(error).__name__}: {error}")
            elif tracer is None:
                latencies.append(elapsed)
                gap = op.gap(out) if op.gap is not None else None
                if gap is not None:
                    self.gaps.append(math.log(gap[0] / gap[1]))
            speed.tick()
        scale = speed.scale()
        if tracer is None:
            self.latencies += [t * scale for t in latencies]
            self.pass_s.append(total * scale)
            self.raw_pass_s.append(total)
        return total * scale, scale, outputs


def _timed_loop(seconds, one_round):
    """Call ``one_round`` until the next round would end past ``seconds``."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return


def _quantile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _end_to_end(runner, setup_s):
    ms = [t * 1e3 for t in runner.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(runner.pass_s), "s"),
        "ops_per_s": (len(runner.latencies) / math.fsum(runner.pass_s), "1/s"),
        "op_p50_ms": (_quantile(ms, 50), "ms"),
        "op_p90_ms": (_quantile(ms, 90), "ms"),
        "sandwich_gap": (math.exp(statistics.fmean(runner.gaps)) if runner.gaps else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(runner, seconds, tracer_mod):
    """Alternate untraced and traced passes; per-layer medians of the traced ones."""
    tracer = tracer_mod.Tracer()
    traced_s = []
    per_pass = []
    span_log = []
    n_ops = len(runner.workload.ops)

    def one_round():
        _, _, expected = runner.run_pass()
        tracer.reset()
        with tracer:
            wall, scale, _ = runner.run_pass(tracer, expected, first_op_id=len(traced_s) * n_ops)
        traced_s.append(wall)
        per_pass.append(tracer_mod.layer_metrics(tracer.spans, tracer.counts, wall, scale))
        span_log.append(tracer.spans)

    _timed_loop(seconds, one_round)
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), tracer_mod.unit(name))
        for name in per_pass[0]
    }
    untraced = statistics.median(runner.pass_s)
    metrics["trace.pass_s"] = (statistics.median(traced_s), "s")
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced_s) / untraced - 1.0, "ratio")
    metrics["trace.spans"] = (statistics.median(len(s) for s in span_log), "count")
    return metrics, span_log


def main(argv=None):
    args = _parse_args(argv)
    for var in PINS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "treeharmonics", "__init__.py")):
        print(f"error: no treeharmonics package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    import numpy

    import tracer as tracer_mod
    import workloads

    import_s = time.perf_counter() - start
    speed = HostSpeed()

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.BUILDERS[args.workload](args.seed, workdir, ROOT)
            Runner(workload).execute(workload.warmup)
            builds.append(time.perf_counter() - start)
            speed.tick()
        raw_setup_s = import_s + statistics.median(builds)
        setup_s = raw_setup_s * speed.scale()

        runner = Runner(workload)
        if args.trace:
            metrics, span_log = _traced(runner, args.seconds, tracer_mod)
        else:
            _timed_loop(args.seconds, runner.run_pass)
            metrics = _end_to_end(runner, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "pins": {var: os.environ[var] for var in PINS},
        "passes": len(runner.pass_s),
        "op_samples": len(runner.latencies),
        "failed_frac": len(runner.failures) / runner.attempted,
        "unscaled_setup_s": raw_setup_s,
        "unscaled_pass_s": statistics.median(runner.raw_pass_s),
    }
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({
                "provenance": provenance,
                "span_fields": ["name", "start", "end", "parent", "op"],
                "passes": span_log,
            }, fh)
    for message in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"failed: {message}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
