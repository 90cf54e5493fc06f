"""Regenerate golden.json: output digests of every workload for every data seed.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right; the benchmark
then counts any later difference from these digests as a failed operation.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spawner  # noqa: E402
import workloads  # noqa: E402

CHILDREN = spawner.Spawner()  # forked before NumPy and araf are imported


def digests(name: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](workdir, CHILDREN)
        workload.setup(seed)
        out = {}
        for op in (op for _ in range(workload.cycle) for op in workload.iteration()):
            if op.error is not None:
                raise SystemExit("%s seed %d: %s failed: %s" % (name, seed, op.name, op.error))
            out.update({"%s.%s" % (op.name, key): d for key, d in op.outputs.items()})
        return out
    finally:
        shutil.rmtree(workdir)


def main(argv: list) -> int:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    scratch = HERE.parent / ".bench_out" / "golden"
    for name in argv or sorted(workloads.WORKLOADS):
        golden[name] = {
            str(seed): digests(name, seed, scratch / ("%s-%d" % (name, seed)))
            for seed in range(workloads.GOLDEN_SEEDS)
        }
        print("%s: %d seeds" % (name, workloads.GOLDEN_SEEDS))
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
