"""One benchmark run of one workload, in a fresh process.

run.py starts this script so that the process's peak RSS belongs to the
workload alone. Modes:

  setup  import araf, build the inputs, print the set-up time;
  run    set up, then iterate for --seconds and check every output;
  trace  set up, then alternate untraced and traced in-process iterations.

The last line of standard output is one JSON object for run.py.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spawner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 11  # one more than the ten samples the tail percentile needs beyond it
MAX_LOOP_S = 120.0


class Checker:
    """Counts operations and compares each output digest with golden.json."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.error is not None:
                self.failures.append("%s: %s" % (op.name, op.error))
                continue
            for key, digest in sorted(op.outputs.items()):
                want = self.golden.get("%s.%s" % (op.name, key))
                if digest != want:
                    self.failures.append("%s: %s digest %s, golden %s" % (op.name, key, digest, want))
                    break

    def checks(self, checks) -> None:
        for name, mismatch in checks:
            self.attempted += 1
            if mismatch is not None:
                self.failures.append("%s: %s" % (name, mismatch))


def load_golden(workload: str, seed: int) -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def timed_loop(seconds: float, step) -> None:
    """Call step() until seconds have passed and MIN_ITERATIONS were made."""
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and count >= MIN_ITERATIONS) or elapsed >= MAX_LOOP_S:
            return
        step()
        count += 1


def run(workload, seconds: float, checker: Checker) -> dict:
    checker.ops(workload.iteration())  # warm-up: checked, not timed
    iterations = []

    def step():
        ops = workload.iteration()
        checker.ops(ops)
        iterations.append(
            {
                "ops": {op.name: op.seconds for op in ops},
                "rss_mb": {op.name: op.rss_mb for op in ops if op.rss_mb is not None},
            }
        )

    timed_loop(seconds, step)
    return {"iterations": iterations}


def trace(workload, seconds: float, checker: Checker, trace_path: Path) -> dict:
    tracer = tracing.Tracer()
    checker.ops(workload.iteration(in_process=True))  # warm-up
    walls = {False: [], True: []}

    def step():
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                ops = workload.iteration(tracer=tracer if traced else None, in_process=True)
            finally:
                tracer.uninstall()
            checker.ops(ops)
            walls[traced].append(sum(op.seconds for op in ops))

    timed_loop(seconds, step)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}))
            fh.write("\n")
    return {"layers": per_layer(tracer, walls), "trace_file": str(trace_path)}


def per_layer(tracer: tracing.Tracer, walls: dict) -> dict:
    """Per-iteration busy/self time, calls and counters, plus the tracing overhead."""
    n = len(walls[True])
    totals = tracer.layer_totals()
    out: dict = {}
    for name in tracing.SPAN_NAMES:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        out[name + ".s"] = t["s"] / n
        out[name + ".self_s"] = t["self_s"] / n
        out[name + ".calls"] = t["calls"] / n
    for name in tracing.COUNTERS:
        out[name] = tracer.counts.get(name, 0.0) / n
    out["mining.table_entries"] = tracer.maxima.get("mining.table_entries", 0.0)
    pairs = tracer.counts.get("mining.pairs_counted", 0.0)
    out["mining.pair_yield"] = tracer.counts.get("mining.pairs_kept", 0.0) / pairs if pairs else 0.0
    traced, plain = statistics.median(walls[True]), statistics.median(walls[False])
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = plain
    out["trace.overhead_s"] = traced - plain
    out["trace.spans"] = len(tracer.spans) / n
    stages = {}
    for stage, got in tracer.stage_breakdown().items():
        stages[stage] = {"s": got["s"] / n, "layers": {k: v / n for k, v in sorted(got["layers"].items())}}
    out["stages"] = stages
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", help="where trace mode writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    seed = workloads.data_seed(args.seed)
    cls = workloads.WORKLOADS[args.workload]
    children = spawner.Spawner() if args.mode == "run" and cls.child_processes else None
    try:
        result = measure(args, workdir, seed, children)
    finally:
        if children is not None:
            children.close()
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path, seed: int, children) -> dict:
    import numpy as np

    import araf.cli  # noqa: F401  (set-up time includes importing araf)

    workload = workloads.WORKLOADS[args.workload](workdir, children)
    workload.setup(seed)
    result = {"setup_s": time.perf_counter() - _START}
    if args.mode != "setup":
        checker = Checker(load_golden(args.workload, seed))
        if args.mode == "run":
            result.update(run(workload, args.seconds, checker))
        else:
            result.update(trace(workload, args.seconds, checker, Path(args.trace_file)))
        checker.checks(workload.oracle_checks())
        result.update(
            {
                "data_seed": seed,
                "rows": workload.rows,
                "attempted": checker.attempted,
                "failed": len(checker.failures),
                "failures": checker.failures[:20],
                "numpy": np.__version__,
            }
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
