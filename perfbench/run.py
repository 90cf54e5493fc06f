"""araf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout holding araf's sources under src/. With
--trace 0 it prints every end-to-end metric; with --trace 1 it runs a
separate traced run and prints the per-layer metrics. Every operation's
outputs are checked against golden digests and, on the mining workloads,
against the exhaustive reference miner. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Each workload runs in a fresh worker process (worker.py) so that its peak
RSS is its own; the pipeline's araf commands are child processes of that
worker, and each one's peak RSS is read from its own rusage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-continuous", "mine-wide", "mine-tall-subsample", "bench-s1")
SETUP_PROBES = 4
"""Extra fresh processes that only set up; setup_s is the median over them and the main run."""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("data.categorical_matrix.s", "s"),
    ("data.categorical_matrix.calls", "count"),
    ("mining.count_singletons.s", "s"),
    ("mining.count_singletons.calls", "count"),
    ("mining.generate_pair_candidates.s", "s"),
    ("mining.pair_candidates", "count"),
    ("mining.count_pairs.s", "s"),
    ("mining.count_pairs.calls", "count"),
    ("mining.pairs_counted", "count"),
    ("mining.pair_yield", "ratio"),
    ("mining.mine_frequent.s", "s"),
    ("mining.mine_frequent.self_s", "s"),
    ("mining.table_entries", "count"),
    ("rules.select_rules_reluctant.s", "s"),
    ("rules.build_rule.calls", "count"),
    ("rules.interactions_offered", "count"),
    ("rules.interactions_output", "count"),
    ("data.load_csv.cells", "count"),
    ("data.write_csv.cells", "count"),
    ("discretize.info_gain.calls", "count"),
    ("sampling.subsample.rows", "count"),
    ("features.transform.cells_out", "count"),
    ("cli.output_bytes", "bytes"),
    ("bench.train_logreg.calls", "count"),
)
"""The per-layer metrics of BENCHMARK.json: every time here is busy on every
workload; the traced run prints the full set of layers besides these."""


class BenchError(Exception):
    pass


def spawn(argv: list) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its own peak RSS in MB."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with %d" % (argv[2], proc.returncode))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def worker(mode: str, args, workdir: Path, *extra: str) -> tuple[dict, float]:
    return spawn(
        [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir), *extra]
    )


def median_ops(iterations: list) -> dict:
    names = iterations[0]["ops"]
    return {name: statistics.median(it["ops"][name] for it in iterations) for name in names}


def end_to_end(res: dict, worker_rss: float, setups: list) -> tuple[dict, dict]:
    """(contract metrics, detail) from the worker's per-iteration records."""
    iters = res["iterations"]
    walls = [sum(it["ops"].values()) for it in iters]
    n = len(walls)
    if n <= 10:
        raise BenchError("only %d iterations; wall_tail_s needs at least 11" % n)
    # the pipeline's commands report their own peak RSS; other workloads are the worker
    child_rss = [max(it["rss_mb"].values()) for it in iters if it["rss_mb"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        # the highest percentile with at least ten samples beyond it
        "wall_tail_s": sorted(walls)[n - 11],
        "rows_per_s": res["rows"] * n / sum(walls),
        "peak_rss_mb": statistics.median(child_rss) if child_rss else worker_rss,
    }
    detail = {
        "wall_tail_percentile": 100.0 * (n - 10) / n,
        "samples": n,
        "setup_samples": setups,
        "error_rate": res["failed"] / res["attempted"],
    }
    detail.update({name + "_s": v for name, v in median_ops(iters).items()})
    if child_rss:
        for name in iters[0]["rss_mb"]:
            detail[name + "_rss_mb"] = statistics.median(it["rss_mb"][name] for it in iters)
    return metrics, detail


def print_layers(layers: dict) -> None:
    """Every traced layer that ran, its counters, the stages and the tracing overhead."""
    print("  %-36s %10s %10s %8s   (per iteration)" % ("layer", "busy_s", "self_s", "calls"))
    for name in sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".calls")}):
        if layers[name + ".calls"]:
            print("  %-36s %10.5f %10.5f %8.1f" % (
                name, layers[name + ".s"], layers[name + ".self_s"], layers[name + ".calls"]))
    for name in sorted(k for k, v in layers.items() if not isinstance(v, dict)):
        if name.rsplit(".", 1)[-1] not in ("s", "self_s", "calls"):
            print("  %-36s %14.6g" % (name, layers[name]))
    for stage, got in layers["stages"].items():
        top = sorted(got["layers"].items(), key=lambda kv: -kv[1])[:4]
        shares = ", ".join("%s %.0f%%" % (k, 100.0 * v / got["s"]) for k, v in top)
        print("  %s %.4f s: %s" % (stage, got["s"], shares))


def environment(res: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res.get("numpy"),
        "machine": platform.machine(),
        "execution": "one worker process per run, one client, closed loop; no thread or process pools",
        "not_measured": "cold file cache (the page cache is never dropped, so runs after the first "
        "read warm files), CPU frequency, load from other tenants of a shared host",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="araf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "araf" / "__init__.py").is_file():
        print("araf sources not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    run_dir = out_dir / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.trace:
            trace_file = out_dir / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))
            res, _ = worker("trace", args, run_dir / "main", "--trace-file", str(trace_file))
            metrics = {name: res["layers"][name] for name, _ in PER_LAYER}
            units = dict(PER_LAYER)
            detail = {"layers": res["layers"], "trace_file": res["trace_file"]}
        else:
            setups = [worker("setup", args, run_dir / ("probe%d" % i))[0]["setup_s"]
                      for i in range(SETUP_PROBES)]
            res, rss = worker("run", args, run_dir / "main")
            metrics, detail = end_to_end(res, rss, setups + [res["setup_s"]])
            units = dict(END_TO_END)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "data_seed": res["data_seed"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "failures": res["failures"],
            "environment": environment(res),
        }
    )
    with open(out_dir / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=2, sort_keys=True)

    print("%s seed=%d trace=%d data_seed=%d" % (args.workload, args.seed, args.trace, res["data_seed"]))
    if args.trace:
        print_layers(res["layers"])
    else:
        for name, value in metrics.items():
            print("  %-28s %12.6g %s" % (name, value, units[name]))
        for name, value in sorted(detail.items()):
            if name.endswith("_s") or name.endswith("_mb"):
                print("  %-28s %12.6g %s" % (name, value, "MB" if name.endswith("_mb") else "s"))
        print("  %-28s %12.6g failed/attempted" % ("error_rate", detail["error_rate"]))
        print("  wall_tail_s is p%.1f of %d iterations" % (detail["wall_tail_percentile"], detail["samples"]))
    for failure in res["failures"][:5]:
        print("  FAILED %s" % failure)
    print("  environment: %s" % json.dumps(detail["environment"], sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
