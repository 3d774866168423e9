"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload report-mix --seeds 0 1 2 3 4 5 6 7 8 9

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints each end-to-end metric's
median and its quartile spread ``(Q3 - Q1) / median`` next to the metric's
bound.  A benchmark is steady when every spread is below a third of its bound
(``setup_s`` excepted).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, provenance, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
              + f" ({provenance})", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<14} {med:12.6g} {(q3 - q1) / med:8.4f} {metric['bound']:6.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
