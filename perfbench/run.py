"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric (name, value, unit, sample count) and the per-kind
medians; with ``--trace 1`` it wraps the program's layer boundaries and
prints every per-layer metric plus a per-op layer breakdown, and writes
the spans to ``.perfbench_out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every correctness check passed, 1 when one
failed, 2 on a usage error or a checkout without the program.

See README.md beside this file for why each workload exists and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interactive", "registry_nway", "served_mix")

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("rss_peak_mb", "MB"),
    ("quality_f1", "frac"),
    ("op_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("slo_met_frac", "frac"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for needed in (os.path.join(ROOT, "src", "repro"),
                   os.path.join(ROOT, "benchmarks", "nway_workload.py")):
        if not os.path.exists(needed):
            print(f"no program to measure: {needed} is missing",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE,
                    os.path.join(ROOT, "benchmarks")]

    import layers
    from common import environment

    if args.workload == "interactive":
        import interactive as workload
    elif args.workload == "registry_nway":
        import registry_nway as workload
    else:
        import served_mix as workload

    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    trace_path = os.path.join(
        out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    os.makedirs(workdir, exist_ok=True)
    env = environment()
    started = time.perf_counter()
    try:
        outcome = workload.run(args.seed, args.seconds,
                               trace_path if args.trace else None, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  wall {wall:.1f}s")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items())
          + "  (one process per workload run)")
    for line in outcome.notes:
        print(line)
    if args.trace:
        metrics = {name: {"value": round(outcome.layer[name], 6), "unit": unit}
                   for name, unit in layers.PER_LAYER}
        for name, unit in layers.PER_LAYER:
            print(f"{name:<44} {outcome.layer[name]:14.4f} {unit}")
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            value, got_unit, samples = outcome.metrics[name]
            if got_unit != unit:
                raise ValueError(f"{name} reported in {got_unit}, not {unit}")
            metrics[name] = {"value": round(value, 6), "unit": unit}
            print(f"{name:<20} {value:14.4f} {unit:<5} n={samples}")
    for name, passed, detail in outcome.checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {name}"
              + (f" ({detail})" if detail else ""))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
