"""The benchmark workloads: their inputs, one iteration, and the output checks.

Every workload is a closed loop with one client: an iteration runs its
operations one after another in one process (the pipeline's operations are
one child process each), and the next iteration starts when the last one
has finished. Inputs depend only on the data seed.

Sizes keep the layer mix each workload exists for (see README.md) while a
20 s run still holds at least 11 iterations on a 2-core machine; the loop
runs on past --seconds until it has 11.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path

# NumPy, gen and araf are imported inside the functions that need them: the
# worker forks its spawner before set-up, while it is still small.

GOLDEN_SEEDS = 32
"""Inputs are made from seed % GOLDEN_SEEDS, the seeds golden.json holds digests for."""

ORACLE_ROWS, ORACLE_COLS = 2000, 20
"""The slice of each mining workload checked against bench.brute_force_topk."""


def data_seed(seed: int) -> int:
    return seed % GOLDEN_SEEDS


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class Op:
    """One timed operation: its wall time, output digests and failure, if any."""

    name: str
    seconds: float
    outputs: dict
    error: "str | None" = None
    rss_mb: "float | None" = None


def run_call(name: str, work, digest, tracer=None) -> Op:
    """Time work() in this process; digest its result outside the timing."""
    stage = tracer.stage(name) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with stage:
            out = work()
        seconds = time.perf_counter() - start
        return Op(name, seconds, digest(out))
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(name, time.perf_counter() - start, {}, "%s: %s" % (type(exc).__name__, exc))


def categorical_dataset(codes, cards: list, labels):
    """Wrap generated category codes as an araf Dataset through its public types."""
    import numpy as np
    from araf.data import Column, ColumnKind, Dataset, Schema

    import gen

    features = tuple(
        Column("a%d" % j, ColumnKind.CATEGORICAL, tuple("v%d" % c for c in range(k)))
        for j, k in enumerate(cards)
    )
    columns = tuple(np.ascontiguousarray(codes[:, j]) for j in range(codes.shape[1]))
    return Dataset(Schema(features, "y", gen.CLASSES), columns, labels)


def oracle_mismatch(ds, config) -> "str | None":
    """Compare mine_frequent plus selection with the exhaustive reference miner."""
    from araf.bench import brute_force_topk
    from araf.mining import mine_frequent
    from araf.rules import select_rules, select_rules_reluctant

    try:
        result = mine_frequent(ds, config)
        select = select_rules_reluctant if config.reluctant else select_rules
        rules = select(result, config)
        ref = brute_force_topk(ds, config)
    except Exception as exc:  # a failed check is counted, not fatal
        return "%s: %s" % (type(exc).__name__, exc)
    if result.itemsets != ref.itemsets or result.per_class != ref.per_class:
        return "frequent itemsets differ from brute_force_topk"
    if rules != ref.rules:
        return "rules differ from brute_force_topk"
    return None


class Workload:
    name = ""
    rows = 0
    cycle = 1  # iterations before the outputs repeat
    child_processes = False  # untraced runs start each araf command as a child of a Spawner

    def __init__(self, workdir: Path, spawner=None) -> None:
        self.workdir = workdir
        self.spawner = spawner

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def iteration(self, tracer=None, in_process: bool = False) -> list:
        raise NotImplementedError

    def oracle_checks(self) -> list:
        """(check name, mismatch or None) for each mining config the workload uses."""
        return []


class PipelineContinuous(Workload):
    """discretize -> mine --reluctant -> transform --mode label through the CLI."""

    name = "pipeline-continuous"
    rows = 3000
    cols = 30
    child_processes = True

    def setup(self, seed: int) -> None:
        import gen

        x, y = gen.continuous_table(seed, self.rows, self.cols)
        self.input = self.workdir / "input.csv"
        gen.write_continuous_csv(str(self.input), x, y)
        self.files = {
            name: self.workdir / name
            for name in ("binned.csv", "bins.json", "rules.jsonl", "features.csv")
        }
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def commands(self) -> list:
        f = {k: str(v) for k, v in self.files.items()}
        common = ["--label", "y"]
        return [
            ("discretize", ["discretize", "--input", str(self.input), *common, "--k", "4",
                            "--out-data", f["binned.csv"], "--out-map", f["bins.json"]],
             ("binned.csv", "bins.json")),
            ("mine", ["mine", "--input", f["binned.csv"], *common, "--reluctant",
                      "--out-rules", f["rules.jsonl"]],
             ("rules.jsonl",)),
            ("transform", ["transform", "--input", f["binned.csv"], *common,
                           "--rules", f["rules.jsonl"], "--mode", "label", "--out", f["features.csv"]],
             ("features.csv",)),
        ]

    def iteration(self, tracer=None, in_process: bool = False) -> list:
        from araf import cli

        for path in self.workdir.iterdir():
            if path != self.input:
                path.unlink()
        ops = []
        for name, argv, outputs in self.commands():
            digest = self._digest(outputs)
            if in_process:
                ops.append(run_call(name, lambda argv=argv: cli.main(argv), digest, tracer))
                continue
            # a child of the spawner, so that its peak RSS is its own
            got = self.spawner.run([sys.executable, "-m", "araf.cli", *argv], self.env)
            op = Op(name, got["seconds"], {}, None, got["rss_mb"])
            try:
                op.outputs = digest(got["code"])
            except (OSError, RuntimeError) as exc:
                op.error = "%s %s" % (exc, got["stderr"])
            ops.append(op)
        return ops

    def _digest(self, outputs):
        def digest(code):
            if code != 0:
                raise RuntimeError("araf exited with %d" % code)
            return {o: sha256_file(self.files[o]) for o in outputs}

        return digest


class MineWide(Workload):
    """conf, rconf and reluctant mining of a wide in-memory categorical table."""

    name = "mine-wide"
    rows = 5000
    cols = 100
    methods = ("conf", "rconf", "reluctant")

    def setup(self, seed: int) -> None:
        from araf.features import suggest_params

        import gen

        codes, cards, y = gen.categorical_table(seed, self.rows, self.cols)
        self.ds = categorical_dataset(codes, cards, y)
        self.slice = categorical_dataset(codes[:ORACLE_ROWS, :ORACLE_COLS], cards[:ORACLE_COLS], y[:ORACLE_ROWS])
        self.d_freq, self.d_conf = suggest_params(self.cols, len(gen.CLASSES))

    def iteration(self, tracer=None, in_process: bool = True) -> list:
        from araf import bench
        from araf.rules import rules_to_jsonl

        def digest(rules):
            return {"rules": sha256_text(rules_to_jsonl(rules, self.ds.schema))}

        return [
            run_call("mine_" + m, lambda m=m: bench.mine_method(self.ds, m, self.d_freq, self.d_conf), digest, tracer)
            for m in self.methods
        ]

    def oracle_checks(self) -> list:
        from araf.bench import method_config

        return [
            ("oracle_" + m, oracle_mismatch(self.slice, method_config(m, self.d_freq, self.d_conf)))
            for m in self.methods
        ]


class MineTallSubsample(Workload):
    """Per-class reluctant mining of a tall table on a 5,000-row subsample."""

    name = "mine-tall-subsample"
    rows = 400_000
    cols = 20
    subsample = 5000

    def setup(self, seed: int) -> None:
        from araf.bench import method_config
        from araf.features import suggest_params

        import gen

        codes, cards, y = gen.categorical_table(seed, self.rows, self.cols)
        self.ds = categorical_dataset(codes, cards, y)
        self.slice = categorical_dataset(codes[:ORACLE_ROWS, :ORACLE_COLS], cards[:ORACLE_COLS], y[:ORACLE_ROWS])
        d_freq, d_conf = suggest_params(self.cols, len(gen.CLASSES))
        self.config = dataclasses.replace(
            method_config("reluctant", d_freq, d_conf), subsample=self.subsample, seed=seed
        )

    def iteration(self, tracer=None, in_process: bool = True) -> list:
        from araf.mining import mine_frequent
        from araf.rules import rules_to_jsonl, select_rules_reluctant

        def work():
            return select_rules_reluctant(mine_frequent(self.ds, self.config), self.config)

        def digest(rules):
            return {"rules": sha256_text(rules_to_jsonl(rules, self.ds.schema))}

        return [run_call("mine_reluctant", work, digest, tracer)]

    def oracle_checks(self) -> list:
        # the oracle counts full data only, so the slice is mined without subsample
        config = dataclasses.replace(self.config, subsample=None)
        return [("oracle_reluctant", oracle_mismatch(self.slice, config))]


class BenchS1(Workload):
    """One `araf bench --variant s1` trial with evaluation, through cli.main.

    Iterations cycle through `cycle` trial seeds derived from the data seed:
    how long a trial takes depends on its data (rules found, gradient steps
    to convergence), and a run's median over a mix of trials moves less from
    seed to seed than a single trial does.
    """

    name = "bench-s1"
    rows = 1000
    cols = 99
    cycle = 8

    def setup(self, seed: int) -> None:
        self.trial_seeds = [seed * self.cycle + k for k in range(self.cycle)]
        self.done = 0
        self.out = self.workdir / "s1.csv"

    def iteration(self, tracer=None, in_process: bool = True) -> list:
        from araf import cli

        for path in self.workdir.iterdir():
            path.unlink()
        k = self.done % self.cycle
        self.done += 1
        argv = ["bench", "--variant", "s1", "--n", str(self.rows), "--p", str(self.cols),
                "--trials", "1", "--seed", str(self.trial_seeds[k]), "--out", str(self.out)]

        def digest(code):
            if code != 0:
                raise RuntimeError("araf bench exited with %d" % code)
            return {"metrics-%d.csv" % k: sha256_file(self.out)}

        return [run_call("trial", lambda: cli.main(argv), digest, tracer)]


WORKLOADS = {w.name: w for w in (PipelineContinuous, MineWide, MineTallSubsample, BenchS1)}
