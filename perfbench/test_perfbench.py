"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _csv_bytes(tmp_path, seed, name):
    x, y = gen.continuous_table(seed, 300, 6)
    path = tmp_path / name
    gen.write_continuous_csv(str(path), x, y)
    return path.read_bytes()


def test_continuous_csv_depends_only_on_seed(tmp_path):
    first = _csv_bytes(tmp_path, 7, "a.csv")
    assert _csv_bytes(tmp_path, 7, "b.csv") == first
    assert _csv_bytes(tmp_path, 8, "c.csv") != first


def test_categorical_table_depends_only_on_seed():
    a = gen.categorical_table(3, 500, 12)
    b = gen.categorical_table(3, 500, 12)
    c = gen.categorical_table(4, 500, 12)
    assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1] and a[2].tobytes() == b[2].tobytes()
    assert a[0].tobytes() != c[0].tobytes()
    codes, cards, y = a
    assert all(2 <= k <= 8 for k in cards)
    assert (codes < np.array(cards)).all() and set(np.unique(y)) == {0, 1, 2}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)


def test_golden_covers_every_workload_and_seed():
    golden = json.loads((HERE / "golden.json").read_text())
    for name in run.WORKLOADS:
        assert sorted(golden[name], key=int) == [str(s) for s in range(workloads.GOLDEN_SEEDS)]


def test_tracer_patches_every_binding_and_restores_them():
    from araf import bench, cli, data, mining
    from araf.features import suggest_params

    originals = (cli.load_csv, data.load_csv, mining.count_pairs, bench.mine_frequent)
    codes, cards, y = gen.categorical_table(1, 400, 8)
    ds = workloads.categorical_dataset(codes, cards, y)
    d_freq, d_conf = suggest_params(8, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_csv is data.load_csv and cli.load_csv is not originals[0]
        with tracer.stage("mine_conf"):
            rules = bench.mine_method(ds, "conf", d_freq, d_conf)
    finally:
        tracer.uninstall()
    assert (cli.load_csv, data.load_csv, mining.count_pairs, bench.mine_frequent) == originals

    totals = tracer.layer_totals()
    assert totals["mining.count_pairs"]["calls"] == 1
    assert tracer.counts["mining.pairs_counted"] > 0
    assert tracer.counts["rules.interactions_output"] == sum(1 for r in rules if r.size == 2)
    for name, t in totals.items():
        assert 0.0 <= t["self_s"] <= t["s"] + 1e-9, name
    stage = tracer.stage_breakdown()["mine_conf"]
    assert stage["layers"]["bench.mine_method"] <= stage["s"]
    assert set(totals) <= set(tracing.SPAN_NAMES) | {"mine_conf"}


@pytest.mark.parametrize("name", ["mine-wide", "mine-tall-subsample"])
def test_oracle_check_passes_on_a_small_slice(tmp_path, name):
    workload = workloads.WORKLOADS[name](tmp_path)
    workload.rows = 2500
    workload.setup(0)
    assert [m for _, m in workload.oracle_checks() if m is not None] == []
