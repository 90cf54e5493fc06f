"""Command line round trips, exit codes, and manifests."""

import csv
import json

import numpy as np
import pytest

from araf.cli import main


@pytest.fixture
def mixed_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(60):
        a = rng.integers(0, 2)
        b = float(rng.normal(loc=3.0 * a))
        c = ["u", "v"][int(rng.integers(0, 2))]
        y = int(a if rng.random() < 0.8 else 1 - a)
        rows.append("%d,%.4f,%s,%d" % (a, b, c, y))
    path = tmp_path / "mixed.csv"
    path.write_text("a,b,c,y\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def categorical_csv(tmp_path):
    rng = np.random.default_rng(1)
    lines = ["x1,x2,x3,y"]
    for _ in range(80):
        v = rng.integers(0, 2, size=3)
        y = v[0] if rng.random() < 0.85 else 1 - v[0]
        cells = ["ab"[c] for c in v] + ["np"[y]]
        lines.append(",".join(cells))
    path = tmp_path / "cat.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_manifest(out_path):
    with open(out_path + ".manifest.json") as f:
        return json.load(f)


class TestDiscretize:
    def test_bins_continuous_column(self, mixed_csv, tmp_path):
        out = str(tmp_path / "binned.csv")
        out_map = str(tmp_path / "map.json")
        rc = main(
            [
                "discretize", "--input", mixed_csv, "--label", "y",
                "--declare", "a=categorical", "--k", "3",
                "--out-data", out, "--out-map", out_map,
            ]
        )
        assert rc == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["a", "b", "c", "y"]
        binned = {r[1] for r in rows[1:]}
        assert len(binned) <= 3
        assert all(v.startswith("(") for v in binned)
        maps = json.loads(open(out_map).read())
        assert [m["column"] for m in maps] == ["b"]
        manifest = read_manifest(out)
        assert manifest["tool"] == "araf"
        assert manifest["params"]["columns_discretized"] == ["b"]
        assert mixed_csv in manifest["inputs"]

    def test_all_categorical_is_identity(self, categorical_csv, tmp_path):
        out = str(tmp_path / "same.csv")
        out_map = str(tmp_path / "map.json")
        rc = main(
            [
                "discretize", "--input", categorical_csv, "--label", "y",
                "--k", "4", "--out-data", out, "--out-map", out_map,
                "--assume-categorical",
            ]
        )
        assert rc == 0
        assert json.loads(open(out_map).read()) == []
        with open(categorical_csv) as f:
            original = list(csv.reader(f))
        with open(out) as f:
            copy = list(csv.reader(f))
        assert copy == original

    def test_assume_categorical_loads_once(self, mixed_csv, tmp_path, monkeypatch):
        import araf.cli

        calls = []
        real_load = araf.cli.load_csv

        def counting_load(*args, **kwargs):
            calls.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(araf.cli, "load_csv", counting_load)
        outs = {}
        for name, flags in (
            ("assumed", ["--assume-categorical"]),
            ("declared", ["--declare", "a=categorical", "--declare", "b=categorical",
                          "--declare", "c=categorical"]),
        ):
            outs[name] = tmp_path / (name + ".jsonl")
            calls.clear()
            rc = main(["mine", "--input", mixed_csv, "--label", "y", *flags,
                       "--out-rules", str(outs[name])])
            assert rc == 0
            assert len(calls) == 1
        assert outs["assumed"].read_bytes() == outs["declared"].read_bytes()

    def test_k_too_small(self, mixed_csv, tmp_path):
        rc = main(
            [
                "discretize", "--input", mixed_csv, "--label", "y",
                "--k", "1", "--out-data", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2


class TestMine:
    def test_default_capacities_recorded(self, categorical_csv, tmp_path):
        out = str(tmp_path / "rules.jsonl")
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", out])
        assert rc == 0
        manifest = read_manifest(out)
        # p=3 features, 2 classes: 5*2*isqrt(3) and 5*isqrt(3)
        assert manifest["params"]["d_freq"] == 10
        assert manifest["params"]["d_conf"] == 5
        assert manifest["params"]["n"] == 80
        assert manifest["params"]["p"] == 3
        lines = [l for l in open(out).read().splitlines() if l]
        assert 0 < len(lines) <= 5
        first = json.loads(lines[0])
        assert list(first) == ["antecedent", "class", "support", "confidence", "rconf", "lift"]

    def test_reluctant_pipeline(self, categorical_csv, tmp_path):
        out = str(tmp_path / "rules.jsonl")
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--reluctant", "--out-rules", out,
            ]
        )
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["params"]["scoring"] == "rconf"
        assert manifest["params"]["per_class"] is True

    def test_threshold_mode(self, categorical_csv, tmp_path):
        out = str(tmp_path / "rules.jsonl")
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--minconf", "0.6", "--out-rules", out,
            ]
        )
        assert rc == 0
        for line in open(out).read().splitlines():
            assert json.loads(line)["confidence"] >= 0.6 - 1e-9

    def test_threshold_and_fixed_size_conflict(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--minconf", "0.6", "--d-freq", "10",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

    def test_minsupp_needs_minconf(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

    def test_reluctant_rejects_other_scoring(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--reluctant", "--scoring", "conf",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

    def test_subsample_recorded(self, categorical_csv, tmp_path):
        out = str(tmp_path / "rules.jsonl")
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--subsample", "40", "--seed", "7", "--out-rules", out,
            ]
        )
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["params"]["subsample"] == 40
        assert manifest["params"]["seed"] == 7

    def test_mine_discretizes_when_asked(self, mixed_csv, tmp_path):
        out = str(tmp_path / "rules.jsonl")
        rc = main(
            [
                "mine", "--input", mixed_csv, "--label", "y",
                "--k", "3", "--out-rules", out,
            ]
        )
        assert rc == 0
        # without --k the continuous column is a data error
        rc = main(["mine", "--input", mixed_csv, "--label", "y", "--out-rules", out])
        assert rc == 3


class TestTransform:
    def test_round_trip_label_mode(self, categorical_csv, tmp_path):
        rules = str(tmp_path / "rules.jsonl")
        out = str(tmp_path / "feat.csv")
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        rc = main(
            [
                "transform", "--input", categorical_csv, "--label", "y",
                "--rules", rules, "--mode", "label", "--out", out,
            ]
        )
        assert rc == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        header = rows[0]
        assert header[:3] == ["x1", "x2", "x3"]
        assert header[-1] == "y"
        n_rules = len(open(rules).read().splitlines())
        distinct = len({tuple(sorted((e["feature"], e["category"]) for e in json.loads(l)["antecedent"]))
                        for l in open(rules).read().splitlines()})
        assert len(header) == 3 + distinct + 1
        assert len(rows) == 81
        body = np.array([[float(v) for v in r[:-1]] for r in rows[1:]])
        assert set(np.unique(body)) <= {0.0, 1.0}
        assert {r[-1] for r in rows[1:]} == {"n", "p"}

    def test_round_trip_onehot_mode(self, categorical_csv, tmp_path):
        rules = str(tmp_path / "rules.jsonl")
        out = str(tmp_path / "feat.csv")
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        rc = main(
            [
                "transform", "--input", categorical_csv, "--label", "y",
                "--rules", rules, "--mode", "onehot", "--out", out,
            ]
        )
        assert rc == 0
        header = open(out).readline().strip().split(",")
        assert "x1=a" in header and "x1=b" in header
        assert header[-1] == "y"

    def test_rules_for_other_schema_rejected(self, categorical_csv, mixed_csv, tmp_path):
        rules = str(tmp_path / "rules.jsonl")
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        rc = main(
            [
                "transform", "--input", mixed_csv, "--label", "y",
                "--rules", rules, "--mode", "label", "--out", str(tmp_path / "f.csv"),
                "--k", "3",
            ]
        )
        assert rc == 3


    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda line: line[: len(line) // 2], "line 2 is not valid JSON"),
            (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "antecedent"}),
             "line 2 has no field 'antecedent'"),
            (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "class"}),
             "line 2 has no field 'class'"),
            (lambda line: "[1, 2]", "line 2 is not a rule object"),
        ],
        ids=["truncated", "no-antecedent", "no-class", "not-an-object"],
    )
    def test_malformed_rules_line_is_a_data_error(self, categorical_csv, tmp_path, capsys, corrupt, message):
        rules = tmp_path / "rules.jsonl"
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", str(rules)]) == 0
        lines = rules.read_text().splitlines()
        assert len(lines) >= 2
        lines[1] = corrupt(lines[1])
        rules.write_text("\n".join(lines))
        rc = main(
            [
                "transform", "--input", categorical_csv, "--label", "y",
                "--rules", str(rules), "--mode", "label", "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert rc == 3
        assert message in capsys.readouterr().err


class TestBench:
    def test_synth_smoke(self, tmp_path):
        out = str(tmp_path / "metrics.csv")
        rec = str(tmp_path / "recovery.csv")
        rc = main(
            [
                "bench", "--variant", "s1", "--trials", "1", "--seed", "0",
                "--n", "400", "--no-eval", "--out", out, "--recovery", rec,
            ]
        )
        assert rc == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["variant", "method", "seed", "logloss", "accuracy"]
        with open(rec) as f:
            rrows = list(csv.reader(f))
        assert rrows[0] == ["variant", "method", "rule", "recovered", "trials"]
        # 3 mining methods x 5 ground-truth rules
        assert len(rrows) == 1 + 15

    def test_freq_smoke(self, tmp_path):
        out = str(tmp_path / "metrics.csv")
        rec = str(tmp_path / "recovery.csv")
        rc = main(
            [
                "bench", "--variant", "freq", "--trials", "2", "--n", "2000",
                "--out", out, "--recovery", rec,
            ]
        )
        assert rc == 0
        with open(rec) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["variant", "n_prime", "all_recovered", "trials", "mean_abs_err"]
        assert [r[1] for r in rows[1:]] == ["100", "500", "1000", "5000"]


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        rc = main(
            [
                "mine", "--input", str(tmp_path / "absent.csv"), "--label", "y",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 3

    def test_unknown_label_column(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "nope",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 3

    def test_bad_declare_syntax(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--declare", "x1continuous",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "araf" in capsys.readouterr().out
