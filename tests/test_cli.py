"""Command line round trips, exit codes, and manifests."""

import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from araf import cli, data
from araf.cli import main, write_manifest
from araf.data import load_csv, open_output
from araf.features import FeatureMode, transform
from araf.rules import parse_rules_jsonl


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


def every_command(tmp_path, mixed_csv, categorical_csv):
    """A complete argument list for each subcommand, run in this order, and its output."""
    rules = str(tmp_path / "rules.jsonl")
    outs = {
        name: str(tmp_path / name)
        for name in ("binned.csv", "features.csv", "recovery.csv")
    }
    return [
        (["discretize", "--input", mixed_csv, "--label", "y", "--k", "3",
          "--out-data", outs["binned.csv"]], outs["binned.csv"]),
        (["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules], rules),
        (["transform", "--input", categorical_csv, "--label", "y", "--rules", rules,
          "--mode", "label", "--out", outs["features.csv"]], outs["features.csv"]),
        (["bench", "--variant", "s1", "--trials", "1", "--n", "200", "--no-eval",
          "--out", outs["recovery.csv"]], outs["recovery.csv"]),
    ]


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

    def test_l_far_above_the_row_count_bins_as_l_n_minus_1(self, mixed_csv, tmp_path):
        # mixed_csv has 60 rows; a larger l gives the same candidate cuts
        outs = {}
        for l in ("59", "100000000000000"):
            out = str(tmp_path / ("binned-%s.csv" % l))
            argv = ["discretize", "--input", mixed_csv, "--label", "y", "--k", "4", "--l", l,
                    "--out-data", out, "--out-map", out + ".map.json"]
            assert main(argv) == 0
            outs[l] = (open(out).read(), open(out + ".map.json").read())
        assert outs["59"] == outs["100000000000000"]

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

    def test_thresholds_alike_at_six_digits_name_distinct_bins(self, tmp_path):
        # the cuts fall near 1,700,000,093.5, 107.5 and 201.5: "%.6g" prints
        # each as 1.7e+09
        rng = np.random.default_rng(0)
        ticks = rng.integers(0, 300, size=600)
        rows = ["%d,%s,%s" % (1_700_000_000 + t, rng.choice(["u", "v"]), "abc"[t // 100]) for t in ticks]
        path = tmp_path / "times.csv"
        path.write_text("t,z,y\n" + "\n".join(rows) + "\n")
        binned = str(tmp_path / "binned.csv")
        assert main(["discretize", "--input", str(path), "--label", "y", "--k", "4", "--out-data", binned]) == 0
        with open(binned) as f:
            assert len({row[0] for row in list(csv.reader(f))[1:]}) == 4
        # room for every rule, so that no tie on a category id decides which are kept
        every = ["--label", "y", "--d-freq", "100", "--d-conf", "100", "--out-rules"]
        assert main(["mine", "--input", binned, *every, str(tmp_path / "binned.jsonl")]) == 0
        assert main(["mine", "--input", str(path), "--k", "4", *every, str(tmp_path / "in-process.jsonl")]) == 0
        lines = [sorted((tmp_path / name).read_text().splitlines()) for name in ("binned.jsonl", "in-process.jsonl")]
        assert len(lines[0]) < 100 and lines[0] == lines[1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k_in_process_writes_what_the_binned_file_gives(self, seed, tmp_path):
        # selection breaks ties on category ids, and label mode writes them:
        # both equal the binned file's only if the bins are numbered alike
        rng = np.random.default_rng(seed)
        ticks = rng.integers(0, 300, size=600)
        rows = ["%d,%s,%s" % (1_700_000_000 + t, rng.choice(["u", "v"]), "abc"[t // 100]) for t in ticks]
        path = str(tmp_path / "times.csv")
        binned = str(tmp_path / "binned.csv")
        with open(path, "w") as f:
            f.write("t,z,y\n" + "\n".join(rows) + "\n")
        assert main(["discretize", "--input", path, "--label", "y", "--k", "4", "--out-data", binned]) == 0
        rules = str(tmp_path / "binned.jsonl")
        outs = {}
        for name, source, k in (("binned", binned, []), ("in-process", path, ["--k", "4"])):
            common = ["--input", source, "--label", "y", *k]
            outs[name] = str(tmp_path / (name + ".jsonl")), str(tmp_path / (name + ".csv"))
            assert main(["mine", *common, "--out-rules", outs[name][0]]) == 0
            assert main(["transform", *common, "--rules", rules, "--mode", "label", "--out", outs[name][1]]) == 0
        for binned_out, in_process_out in zip(outs["binned"], outs["in-process"]):
            assert open(binned_out, "rb").read() == open(in_process_out, "rb").read()

    def test_assume_categorical_loads_once(self, mixed_csv, tmp_path, monkeypatch):
        import araf.cli

        calls = []
        real_load = araf.cli.load_csv

        def counting_load(*args, **kwargs):
            calls.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(araf.cli, "load_csv", counting_load)
        # every open of the input goes through data.open_text; the header is read by load_csv's
        opens = []
        real_open = data.open_text
        monkeypatch.setattr(data, "open_text", lambda path: opens.append(path) or real_open(path))
        outs = {}
        for name, flags in (
            ("assumed", ["--assume-categorical"]),
            ("declared", ["--declare", "a=categorical", "--declare", "b=categorical",
                          "--declare", "c=categorical"]),
        ):
            outs[name] = tmp_path / (name + ".jsonl")
            calls.clear()
            opens.clear()
            rc = main(["mine", "--input", mixed_csv, "--label", "y", *flags,
                       "--out-rules", str(outs[name])])
            assert rc == 0
            assert len(calls) == 1
            assert opens == [mixed_csv]
        assert outs["assumed"].read_bytes() == outs["declared"].read_bytes()



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

    def test_threshold_and_fixed_size_conflict(self, categorical_csv, tmp_path, capsys):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--minconf", "0.6", "--d-freq", "10",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: threshold mining (--minsupp/--minconf) cannot be combined with "
            "fixed-size options (--d-freq/--d-conf/--scoring/--per-class/--reluctant/--subsample)\n"
        )

    def test_minconf_out_of_range(self, categorical_csv, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--minconf", "1.5", "--out-rules", str(out),
            ]
        )
        assert rc == 2
        assert "minconf must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "r.jsonl.manifest.json").exists()

    def test_minsupp_needs_minconf(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

    def test_reluctant_rejects_other_scoring(self, categorical_csv, tmp_path, capsys):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--reluctant", "--scoring", "conf",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "usage error: --reluctant requires rconf scoring\n"

    @pytest.mark.parametrize(
        "flags",
        [[], ["--d-freq", "4", "--d-conf", "2"], ["--reluctant"], ["--minsupp", "0.2", "--minconf", "0.5"]],
        ids=["default-capacities", "given-capacities", "reluctant", "threshold"],
    )
    def test_a_label_only_file_is_a_data_error_in_every_mode(self, flags, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("y\na\nb\n")
        out = tmp_path / "r.jsonl"
        rc = main(["mine", "--input", str(path), "--label", "y", *flags, "--out-rules", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "data error: mining needs at least one feature column\n"
        assert not out.exists()

    def test_default_rule_count_stays_within_a_given_capacity(self, categorical_csv, tmp_path):
        # p=3 gives a default rule count of 5*isqrt(3) = 5, above --d-freq 3
        out = str(tmp_path / "rules.jsonl")
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--d-freq", "3",
                   "--out-rules", out])
        assert rc == 0
        params = read_manifest(out)["params"]
        assert (params["d_freq"], params["d_conf"]) == (3, 3)

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

    @pytest.mark.parametrize("command", ["mine", "transform"])
    @pytest.mark.parametrize(
        "flags, k, l",
        [(["--k", "3", "--l", "2"], 3, 2), (["--k", "3"], 3, 10), (["--assume-categorical"], None, None)],
        ids=["k-and-l", "k-only", "no-k"],
    )
    def test_manifest_records_the_bins_fit(self, command, flags, k, l, mixed_csv, tmp_path):
        rules = str(tmp_path / "rules.jsonl")
        assert main(["mine", "--input", mixed_csv, "--label", "y", *flags, "--out-rules", rules]) == 0
        out = rules
        if command == "transform":
            out = str(tmp_path / "features.csv")
            assert main(["transform", "--input", mixed_csv, "--label", "y", *flags, "--rules", rules,
                         "--mode", "label", "--out", out]) == 0
        params = read_manifest(out)["params"]
        assert (params["k"], params["l"]) == (k, l)


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

    def test_rules_of_a_class_the_file_lacks_still_apply(self, tmp_path):
        # a class plays no part in a feature, so the scored file need not hold it
        train = tmp_path / "train.csv"
        train.write_text("f,y\nu,a\nv,b\nu,a\nv,b\n")
        scored = tmp_path / "scored.csv"
        scored.write_text("f,y\nu,a\nv,a\nu,a\n")
        rules = str(tmp_path / "rules.jsonl")
        out = tmp_path / "feat.csv"
        assert main(["mine", "--input", str(train), "--label", "y", "--out-rules", rules]) == 0
        assert '"class": "b"' in open(rules).read()
        rc = main(["transform", "--input", str(scored), "--label", "y", "--rules", rules,
                   "--mode", "label", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert set(header[1:-1]) == {"f=u", "f=v"}

    def test_column_name_given_twice_is_refused(self, tmp_path, capsys):
        # label mode names the indicator of f=1 as the column f=1 is already named
        table = tmp_path / "t.csv"
        table.write_text("f=1,f,y\n1,1,a\n0,1,b\n1,0,a\n0,0,b\n")
        rules = tmp_path / "rules.jsonl"
        rules.write_text('{"antecedent": [{"feature": "f", "category": "1"}], "class": "a"}\n')
        out = tmp_path / "feat.csv"
        out.write_bytes(b"earlier\n")
        rc = main(["transform", "--input", str(table), "--label", "y", "--assume-categorical",
                   "--rules", str(rules), "--mode", "label", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "data error: 'f=1' is named twice among the columns\n"
        assert out.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize("mode", ["label", "onehot"])
    def test_writes_each_cell_as_g12_across_blocks(self, mode, categorical_csv, tmp_path, monkeypatch):
        # the matrix is written through write_csv as category ids; its bytes
        # stay those of a row-by-row "%.12g" of the float matrix
        rules = str(tmp_path / "rules.jsonl")
        out = tmp_path / "feat.csv"
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        monkeypatch.setattr(data, "BLOCK_ROWS", 3)
        assert main(["transform", "--input", categorical_csv, "--label", "y", "--rules", rules,
                     "--mode", mode, "--out", str(out)]) == 0
        ds = load_csv(categorical_csv, "y")
        matrix, names = transform(ds, parse_rules_jsonl(open(rules).read(), ds.schema), FeatureMode(mode))
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(names + ["y"])
            for row, label in zip(matrix, ds.labels):
                writer.writerow(["%.12g" % v for v in row] + [ds.schema.classes[label]])
        assert ds.n > 3 * 2
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda line: line[: len(line) // 2], "line 2 is not valid JSON: "),
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
        expected = "data error: rules " + message
        if message.endswith(": "):
            try:
                json.loads(lines[1].strip())
            except json.JSONDecodeError as exc:
                expected += str(exc)
        assert capsys.readouterr().err == expected + "\n"

    def test_non_utf8_rules_file_is_a_data_error(self, categorical_csv, tmp_path, capsys):
        rules = tmp_path / "rules.jsonl"
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", str(rules)]) == 0
        # one category written as the Latin-1 byte of "é"
        rules.write_bytes(rules.read_bytes().replace(b'"category": "', b'"category": "\xe9', 1))
        rc = main(
            [
                "transform", "--input", categorical_csv, "--label", "y",
                "--rules", str(rules), "--mode", "label", "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and str(rules) in err


class TestBench:
    def test_synth_smoke(self, tmp_path):
        # a --no-eval run has no metrics rows; its recovery table goes to --out
        out = str(tmp_path / "recovery.csv")
        rc = main(
            [
                "bench", "--variant", "s1", "--trials", "1", "--seed", "0",
                "--n", "400", "--no-eval", "--out", out,
            ]
        )
        assert rc == 0
        with open(out) as f:
            rrows = list(csv.reader(f))
        assert rrows[0] == ["variant", "method", "rule", "recovered", "trials"]
        # 3 mining methods x 5 ground-truth rules
        assert len(rrows) == 1 + 15
        assert sorted(os.listdir(tmp_path)) == ["recovery.csv", "recovery.csv.manifest.json"]

    def test_bench_leaves_numpy_ma_unloaded(self, tmp_path):
        # a plain np.unique imports numpy.ma, 9-14 ms and about 0.7 MB that no
        # araf code uses; a fresh process shows whether any bench path does
        code = (
            "import sys\n"
            "from araf import cli\n"
            "rc = cli.main(['bench', '--variant', 's1', '--n', '300', '--p', '9',"
            " '--trials', '1', '--out', sys.argv[1]])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "metrics.csv")],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.split() == ["0", "False"], done.stderr

    def test_freq_smoke(self, tmp_path):
        out = str(tmp_path / "recovery.csv")
        rc = main(
            [
                "bench", "--variant", "freq", "--trials", "2", "--n", "2000",
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["variant", "n_prime", "all_recovered", "trials", "mean_abs_err"]
        assert [r[1] for r in rows[1:]] == ["100", "500", "1000", "5000"]

    def test_empty_test_split_is_a_usage_error(self, tmp_path, capsys):
        # two rows of different classes leave the 30 % test side empty; the
        # earlier metrics file is kept and no NaN row is written
        out = tmp_path / "metrics.csv"
        out.write_text("earlier\n")
        rc = main(["bench", "--variant", "s1", "--n", "2", "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert "--n 2 leaves the test side" in capsys.readouterr().err
        assert out.read_text() == "earlier\n"
        assert sorted(os.listdir(tmp_path)) == ["metrics.csv"]

    @pytest.mark.parametrize(
        "variant, flag, message",
        [
            ("s1", "--n", "n must be >= 1"),
            ("s1", "--p", "s1 needs p >= 3"),
            ("s1", "--d-freq", "d_freq must be >= 1"),
            ("s1", "--d-conf", "d_conf must satisfy"),
            ("freq", "--n", "n must be >= 1"),
            ("freq", "--p", "freq benchmark needs p >= 3"),
            ("freq", "--d-freq", "d_freq must be >= 1"),
            ("freq", "--d-conf", "does not apply to --variant freq"),
        ],
    )
    def test_zero_flag_is_not_replaced_by_the_default(self, variant, flag, message, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        argv = ["bench", "--variant", variant, "--trials", "1", flag, "0", "--out", str(out)]
        if variant != "freq":
            argv.append("--no-eval")
        if flag != "--n":
            argv += ["--n", "60"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "variant, flags, message",
        [
            ("s1", ["--d-freq", "0"], "d_freq must be >= 1"),
            ("s1", ["--d-freq", "3", "--d-conf", "4"], "d_conf must satisfy 1 <= d_conf <= d_freq"),
            ("freq", ["--d-freq", "0"], "d_freq must be >= 1"),
        ],
        ids=["s1-d-freq-0", "s1-d-conf-above-d-freq", "freq-d-freq-0"],
    )
    def test_pool_sizes_are_refused_before_any_data_is_generated(
        self, variant, flags, message, tmp_path, capsys, monkeypatch
    ):
        from araf import bench

        def no_data(*args, **kwargs):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(bench, "generate", no_data)
        argv = ["bench", "--variant", variant, "--trials", "1", *flags, "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "usage error: %s\n" % message
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "variant, sizes",
        [("freq", (10000, 10, 5)), ("s1", (1000, 99, 45, 5)), ("s2", (1000, 99, 45, 5))],
        ids=["freq", "s1", "s2"],
    )
    def test_manifest_records_the_defaults(self, variant, sizes, tmp_path):
        out = str(tmp_path / "recovery.csv")
        argv = ["bench", "--variant", variant, "--trials", "1", "--out", out]
        if variant != "freq":
            argv.append("--no-eval")
        assert main(argv) == 0
        params = read_manifest(out)["params"]
        assert tuple(params[k] for k in ("n", "p", "d_freq", "d_conf") if k in params) == sizes

    def test_freq_manifest_records_the_sizes_that_ran(self, tmp_path, monkeypatch):
        from araf import bench

        real = bench.run_freq_trial
        ran = []

        def spy(ds, n_prime, seed, d_freq):
            ran.append((ds.n, ds.p, d_freq))
            return real(ds, n_prime, seed, d_freq)

        monkeypatch.setattr(bench, "run_freq_trial", spy)
        out = str(tmp_path / "recovery.csv")
        argv = ["bench", "--variant", "freq", "--trials", "1", "--n", "500", "--d-freq", "6",
                "--out", out]
        assert main(argv) == 0
        params = read_manifest(out)["params"]
        assert set(ran) == {(params["n"], params["p"], params["d_freq"])}
        assert set(ran) == {(500, 10, 6)}
        # a freq trial selects no rules, so the manifest records no d_conf
        assert "d_conf" not in params

    def test_freq_runs_with_a_capacity_below_the_default_rule_count(self, tmp_path):
        # d_freq 3 is below the s1/s2 rule count default of 5, which freq never reads
        out = tmp_path / "recovery.csv"
        argv = ["bench", "--variant", "freq", "--trials", "1", "--n", "500", "--d-freq", "3",
                "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_d_conf_is_refused_for_freq(self, tmp_path, capsys):
        argv = ["bench", "--variant", "freq", "--trials", "1", "--n", "500", "--d-conf", "1",
                "--out", str(tmp_path / "recovery.csv")]
        assert main(argv) == 2
        assert "--d-conf does not apply to --variant freq" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_no_eval_is_refused_for_freq(self, tmp_path, capsys):
        argv = ["bench", "--variant", "freq", "--trials", "1", "--n", "500", "--no-eval",
                "--out", str(tmp_path / "recovery.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: --no-eval does not apply to --variant freq, which evaluates nothing\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flags",
        [["--variant", "freq"], ["--variant", "s1", "--no-eval"]],
        ids=["freq", "no-eval"],
    )
    def test_recovery_is_refused_without_metrics(self, flags, tmp_path, capsys, monkeypatch):
        # these runs write no metrics rows, so --out holds their recovery table
        from araf import bench

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "run_freq_trial", no_trial)
        monkeypatch.setattr(bench, "run_synth_trial", no_trial)
        argv = ["bench", *flags, "--trials", "1", "--n", "500", "--out", str(tmp_path / "out.csv"),
                "--recovery", str(tmp_path / "recovery.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: --recovery does not apply to --variant freq or --no-eval, "
            "which write their recovery table to --out\n"
        )
        assert os.listdir(tmp_path) == []

    def test_evaluated_run_writes_metrics_and_recovery_apart(self, tmp_path):
        out, rec = tmp_path / "metrics.csv", tmp_path / "recovery.csv"
        argv = ["bench", "--variant", "s1", "--trials", "1", "--n", "200", "--p", "5",
                "--out", str(out), "--recovery", str(rec)]
        assert main(argv) == 0
        metrics = out.read_text().splitlines()
        assert metrics[0] == "variant,method,seed,logloss,accuracy"
        assert [line.split(",")[1] for line in metrics[1:]] == ["origin", "conf", "rconf", "reluctant"]
        assert rec.read_text().splitlines()[0] == "variant,method,rule,recovered,trials"


class TestAtomicOutputs:
    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier,bytes\r\n")
        with pytest.raises(RuntimeError):
            with open_output(str(path)) as f:
                f.write("a,b\n" * 1000)
                f.flush()
                raise RuntimeError("failed partway")
        assert path.read_bytes() == b"earlier,bytes\r\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_new_file_gets_the_usual_mode(self, tmp_path):
        with open(tmp_path / "plain", "w"):
            pass
        with open_output(str(tmp_path / "atomic")) as f:
            f.write("x\n")
        assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_symlink_is_kept_and_its_target_replaced(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        with open_output(str(link)) as f:
            f.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"

    def test_pipe_is_written_directly(self):
        # /dev/stdout is such a path when the output is piped
        read_end, write_end = os.pipe()
        with open_output("/dev/fd/%d" % write_end) as f:
            f.write("piped\n")
        os.close(write_end)
        with os.fdopen(read_end) as r:
            assert r.read() == "piped\n"

    def test_fifo_output_gets_no_manifest(self, categorical_csv, tmp_path):
        # a pipe is written directly and has no directory entry to put a manifest beside
        plain = tmp_path / "plain.jsonl"
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", str(plain)]) == 0
        fifo = tmp_path / "rules.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            rc = main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", str(fifo)])
        finally:
            reader.join(timeout=60)
        assert rc == 0 and not reader.is_alive()
        assert received == [plain.read_bytes()]
        assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == ["plain.jsonl.manifest.json"]

    @pytest.mark.parametrize("command", ["discretize", "transform"])
    def test_failing_partway_keeps_the_earlier_output(
        self, command, mixed_csv, categorical_csv, tmp_path, monkeypatch, capsys
    ):
        # both write their table through data.write_csv, a block of rows at a time
        rules = str(tmp_path / "rules.jsonl")
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier\n")
        before = sorted(os.listdir(tmp_path))
        calls = []
        real = cli.write_csv

        class FullDiskOnSecondBlock:
            # write_csv writes its header in one write, then each block of rows in one writelines
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                return self.fh.write(text)

            def writelines(self, lines):
                calls.append(1)
                if len(calls) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.writelines(lines)

        monkeypatch.setattr(data, "BLOCK_ROWS", 16)
        monkeypatch.setattr(cli, "write_csv", lambda ds, fh: real(ds, FullDiskOnSecondBlock(fh)))
        argv = {
            "discretize": ["discretize", "--input", mixed_csv, "--label", "y", "--k", "3",
                           "--out-data", str(out)],
            "transform": ["transform", "--input", categorical_csv, "--label", "y", "--rules", rules,
                          "--mode", "label", "--out", str(out)],
        }[command]
        rc = main(argv)
        assert rc == 3 and len(calls) == 2
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_manifest_failing_partway_keeps_the_earlier_manifest(self, tmp_path):
        out = str(tmp_path / "out.csv")
        write_manifest(out, "bench", {"trials": 1}, {})
        manifest = tmp_path / "out.csv.manifest.json"
        earlier = manifest.read_bytes()
        with pytest.raises(TypeError):
            write_manifest(out, "bench", {"trials": 1, "zz": object()}, {})
        assert manifest.read_bytes() == earlier
        assert os.listdir(tmp_path) == ["out.csv.manifest.json"]

    def test_missing_directory_is_named_as_given(self, categorical_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", "nodir/r.jsonl"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: cannot write 'nodir/r.jsonl': its directory does not exist\n"
        )
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["discretize", "mine", "transform"])
    def test_missing_output_directory_is_reported_before_the_input_is_read(
        self, command, categorical_csv, tmp_path, monkeypatch, capsys
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "load_csv", no_load)
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "nodir" / "out")
        flag = {"discretize": "--out-data", "mine": "--out-rules", "transform": "--out"}[command]
        argv = [command, "--input", categorical_csv, "--label", "y", flag, out]
        if command == "discretize":
            argv += ["--k", "3"]
        if command == "transform":
            argv += ["--rules", str(tmp_path / "rules.jsonl"), "--mode", "label"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "data error: cannot write %r: its directory does not exist\n" % out
        assert sorted(os.listdir(tmp_path)) == before

    def test_manifest_hashes_an_input_before_the_output_replaces_it(self, mixed_csv, tmp_path):
        with open(mixed_csv, "rb") as f:
            before = hashlib.sha256(f.read()).hexdigest()
        argv = ["discretize", "--input", mixed_csv, "--label", "y", "--k", "3", "--out-data", mixed_csv]
        assert main(argv) == 0
        assert read_manifest(mixed_csv)["inputs"] == {mixed_csv: before}

    def test_discretize_writes_nothing_when_the_map_cannot_be_written(self, mixed_csv, tmp_path, capsys):
        before = sorted(os.listdir(tmp_path))
        out_map = str(tmp_path / "nodir" / "map.json")
        rc = main(["discretize", "--input", mixed_csv, "--label", "y", "--k", "3",
                   "--out-data", str(tmp_path / "binned.csv"), "--out-map", out_map])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: cannot write %r: its directory does not exist\n" % out_map
        )
        assert sorted(os.listdir(tmp_path)) == before

    def test_bench_runs_no_trial_when_the_recovery_cannot_be_written(self, tmp_path, monkeypatch, capsys):
        from araf import bench

        trials = []
        real = bench.run_synth_trial
        monkeypatch.setattr(bench, "run_synth_trial", lambda *a, **k: trials.append(a) or real(*a, **k))
        before = sorted(os.listdir(tmp_path))
        recovery = str(tmp_path / "nodir" / "r.csv")
        rc = main(["bench", "--variant", "s1", "--trials", "3", "--n", "300", "--p", "10",
                   "--out", str(tmp_path / "m.csv"), "--recovery", recovery])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: cannot write %r: its directory does not exist\n" % recovery
        )
        assert trials == [] and sorted(os.listdir(tmp_path)) == before

    def test_no_temporary_file_is_left(self, mixed_csv, categorical_csv, tmp_path):
        before = set(os.listdir(tmp_path))
        written = set()
        for argv, out in every_command(tmp_path, mixed_csv, categorical_csv):
            assert main(argv) == 0
            written |= {os.path.basename(out), os.path.basename(out) + ".manifest.json"}
            if "--recovery" in argv:
                written.add(os.path.basename(argv[argv.index("--recovery") + 1]))
        assert set(os.listdir(tmp_path)) == before | written


class TestStreamInputs:
    # the input is /dev/fd/N of a pipe that a thread feeds, as /dev/stdin is when a
    # pipe feeds it; the test holds the read end open, so a second open of the path
    # reads on from where the first stopped. Every input stays below a pipe's 64 KiB
    # buffer, so the writer never waits on a reader.

    def run_on_pipe(self, text: bytes, argv_for):
        """main's exit code on argv_for(path), for a path that reads text from a pipe, and the path."""
        read_end, write_end = os.pipe()

        def feed():
            with os.fdopen(write_end, "wb") as w:
                w.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        path = "/dev/fd/%d" % read_end
        try:
            rc = main(argv_for(path))
        finally:
            writer.join(timeout=60)
            os.close(read_end)
        assert not writer.is_alive()
        return rc, path

    def test_assume_categorical_reads_a_pipe_once(self, tmp_path):
        # a numeric column a, so that only --assume-categorical makes it minable
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=3000)
        rows = ["%d,%s,%s" % (v, "uq"[v % 2], "pn"[int(v > 1)]) for v in a]
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n" + "\n".join(rows) + "\n")

        def argv(source, out):
            return ["mine", "--input", source, "--label", "y", "--assume-categorical", "--out-rules", str(out)]

        assert main(argv(str(path), tmp_path / "file.jsonl")) == 0
        rc, _ = self.run_on_pipe(path.read_bytes(), lambda source: argv(source, tmp_path / "pipe.jsonl"))
        assert rc == 0
        assert (tmp_path / "pipe.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()

    def test_a_piped_input_is_recorded_with_no_digest(self, categorical_csv, tmp_path):
        # its bytes were read once, by the run; a regular file is hashed as it stands
        rules, piped_rules = tmp_path / "rules.jsonl", tmp_path / "piped.jsonl"
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", str(rules)]) == 0
        rc, source = self.run_on_pipe(Path(categorical_csv).read_bytes(), lambda source: [
            "mine", "--input", source, "--label", "y", "--out-rules", str(piped_rules)])
        assert rc == 0 and piped_rules.read_bytes() == rules.read_bytes()
        digest = hashlib.sha256(Path(categorical_csv).read_bytes()).hexdigest()
        assert read_manifest(str(rules))["inputs"] == {categorical_csv: digest}
        assert read_manifest(str(piped_rules))["inputs"] == {source: None}

        out = tmp_path / "features.csv"
        rc, source = self.run_on_pipe(rules.read_bytes(), lambda source: [
            "transform", "--input", categorical_csv, "--label", "y", "--rules", source,
            "--mode", "label", "--out", str(out)])
        assert rc == 0
        assert read_manifest(str(out))["inputs"] == {categorical_csv: digest, source: None}


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

    def test_declared_categorical_agrees_with_assume_categorical(self, categorical_csv, tmp_path):
        outs = [tmp_path / "assumed.jsonl", tmp_path / "both.jsonl"]
        for out, flags in zip(outs, [[], ["--declare", "x1=categorical"]]):
            assert main(["mine", "--input", categorical_csv, "--label", "y", "--assume-categorical",
                         *flags, "--out-rules", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_declared_kind_for_the_label_is_a_usage_error(self, categorical_csv, tmp_path, capsys):
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--assume-categorical",
                   "--declare", "y=continuous", "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: declared kind for label column 'y', which is always categorical\n"
        )
        assert os.listdir(tmp_path) == ["cat.csv"]

    def test_a_bad_declare_is_refused_before_a_ragged_row(self, tmp_path, capsys):
        # declared kinds are checked against the header before any row is read
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,x\n1,x,2\n")
        rc = main(["mine", "--input", str(path), "--label", "y", "--declare", "b=categorical",
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == "usage error: declared kind for unknown column 'b'\n"

    @pytest.mark.parametrize("command", ["discretize", "mine", "transform"])
    def test_k_too_small(self, command, mixed_csv, tmp_path, capsys):
        rules = tmp_path / "rules.jsonl"
        rules.write_text("")
        out = {"discretize": "--out-data", "mine": "--out-rules", "transform": "--out"}[command]
        argv = [command, "--input", mixed_csv, "--label", "y", "--k", "1",
                out, str(tmp_path / "out")]
        if command == "transform":
            argv += ["--rules", str(rules), "--mode", "label"]
        assert main(argv) == 2
        assert "--k must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["discretize", "--k", "1", "--out-data"], "--k must be >= 2"),
            (["mine", "--k", "1", "--out-rules"], "--k must be >= 2"),
            (["transform", "--k", "1", "--rules", "r.jsonl", "--mode", "label", "--out"],
             "--k must be >= 2"),
            (["discretize", "--k", "4", "--l", "0", "--out-data"], "--l must be >= 1"),
            (["mine", "--k", "4", "--l", "0", "--out-rules"], "--l must be >= 1"),
            (["transform", "--k", "4", "--l", "0", "--rules", "r.jsonl", "--mode", "label",
              "--out"], "--l must be >= 1"),
            (["mine", "--reluctant", "--scoring", "conf", "--out-rules"],
             "--reluctant requires rconf scoring"),
            (["mine", "--l", "3", "--out-rules"], "--l applies only with --k"),
            (["transform", "--l", "3", "--rules", "r.jsonl", "--mode", "label", "--out"],
             "--l applies only with --k"),
            (["mine", "--assume-categorical", "--declare", "x1=continuous", "--out-rules"],
             "--declare x1=continuous contradicts --assume-categorical"),
            (["transform", "--assume-categorical", "--declare", "x1=continuous", "--rules", "r.jsonl",
              "--mode", "label", "--out"], "--declare x1=continuous contradicts --assume-categorical"),
            (["mine", "--subsample", "0", "--out-rules"], "subsample size must be >= 1"),
            (["mine", "--d-freq", "0", "--out-rules"], "d_freq must be >= 1"),
            (["mine", "--d-conf", "0", "--out-rules"], "d_conf must satisfy 1 <= d_conf <= d_freq"),
            (["mine", "--d-freq", "3", "--d-conf", "4", "--out-rules"],
             "d_conf must satisfy 1 <= d_conf <= d_freq"),
            (["mine", "--minsupp", "0", "--minconf", "0.5", "--out-rules"], "minsupp must lie in (0, 1]"),
            (["mine", "--minsupp", "1.5", "--minconf", "0.5", "--out-rules"], "minsupp must lie in (0, 1]"),
            (["mine", "--minsupp", "0.1", "--minconf", "5", "--out-rules"], "minconf must lie in [0, 1]"),
            (["mine", "--minsupp", "0.1", "--minconf", "-0.5", "--out-rules"], "minconf must lie in [0, 1]"),
        ],
        ids=["discretize-k", "mine-k", "transform-k", "discretize-l", "mine-l", "transform-l",
             "mine-reluctant-conf", "mine-l-without-k", "transform-l-without-k",
             "mine-declare-continuous-assume-categorical",
             "transform-declare-continuous-assume-categorical",
             "mine-subsample-0", "mine-d-freq-0", "mine-d-conf-0", "mine-d-conf-above-d-freq",
             "mine-minsupp-0", "mine-minsupp-above-1", "mine-minconf-above-1", "mine-minconf-negative"],
    )
    def test_bad_flag_is_refused_before_any_file_is_touched(self, argv, message, tmp_path, capsys):
        # the input does not exist, so reading it would exit 3
        before = sorted(os.listdir(tmp_path))
        argv = argv[:1] + ["--input", str(tmp_path / "absent.csv"), "--label", "y"] + argv[1:]
        assert main(argv + [str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "usage error: %s\n" % message
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--label", "y", "--subsample", "5", "--out-rules"],
            ["bench", "--variant", "s1", "--trials", "1", "--n", "60", "--out"],
            ["bench", "--variant", "freq", "--trials", "1", "--n", "60", "--out"],
        ],
        ids=["mine", "bench-s1", "bench-freq"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, categorical_csv, tmp_path, capsys):
        if argv[0] == "mine":
            argv = argv[:1] + ["--input", categorical_csv] + argv[1:]
        before = sorted(os.listdir(tmp_path))
        assert main(argv + [str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "usage error: --seed must be >= 0\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_info_gain_on_zero_rows_is_a_data_error(self, mixed_csv, tmp_path, capsys, monkeypatch):
        from araf.discretize import info_gain

        def fit_on_no_rows(ds, k, l):
            return info_gain([], [])

        monkeypatch.setattr(cli, "fit_dataset", fit_on_no_rows)
        out = tmp_path / "binned.csv"
        rc = main(["discretize", "--input", mixed_csv, "--label", "y", "--k", "3",
                   "--out-data", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "data error: info gain needs at least one row\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--assume-categorical"]], ids=["load", "assume-categorical"])
    def test_non_utf8_csv_is_a_data_error(self, flags, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\ncaf\xe9,x\nb,z\n")
        rc = main(["mine", "--input", str(path), "--label", "y", *flags,
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and str(path) in err

    @pytest.mark.parametrize("flags", [[], ["--assume-categorical"]], ids=["load", "assume-categorical"])
    def test_over_long_cell_is_a_data_error(self, flags, tmp_path, capsys):
        # a header cell with --assume-categorical, a data cell without: load_csv refuses both
        path = tmp_path / "long.csv"
        long_cell = "x" * 140_000
        text = "a,y\n%s,p\nb,n\n" % long_cell if not flags else "%s,y\na,p\n" % long_cell
        path.write_text(text)
        before = sorted(os.listdir(tmp_path))
        rc = main(["mine", "--input", str(path), "--label", "y", *flags,
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 3
        line = 1 if flags else 2
        assert capsys.readouterr().err == (
            "data error: file %r line %d: field larger than field limit (131072)\n" % (str(path), line)
        )
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("header", ["y,x1", "x1,y"], ids=["label-first", "feature-first"])
    def test_leading_byte_order_mark_is_dropped(self, header, tmp_path):
        rows = ["p,a", "n,b", "p,a"] if header == "y,x1" else ["a,p", "b,n", "a,p"]
        text = "\n".join([header] + rows) + "\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for path in (plain, bom):
            out = str(path) + ".rules.jsonl"
            assert main(["mine", "--input", str(path), "--label", "y", "--out-rules", out]) == 0
        rules = (tmp_path / "bom.csv.rules.jsonl").read_text()
        assert rules == (tmp_path / "plain.csv.rules.jsonl").read_text()
        assert '"feature": "x1"' in rules

    def test_subsample_too_large_to_allocate_is_out_of_memory(self, categorical_csv, tmp_path, capsys):
        # 10**14 draws of 8 bytes is above 2**48 bytes, so NumPy refuses the array without allocating
        before = sorted(os.listdir(tmp_path))
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--subsample", "100000000000000",
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_memory_error_without_a_message(self, categorical_csv, tmp_path, capsys, monkeypatch):
        def exhausted(ds, config):
            raise MemoryError()

        monkeypatch.setattr(cli, "mine_frequent", exhausted)
        rc = main(["mine", "--input", categorical_csv, "--label", "y",
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 4
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (tmp_path / "r.jsonl").exists()

    def test_threads_flag_is_rejected(self, mixed_csv, categorical_csv, tmp_path, capsys):
        for argv, _ in every_command(tmp_path, mixed_csv, categorical_csv):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_no_thread_setting_in_manifests(self, mixed_csv, categorical_csv, tmp_path, monkeypatch):
        # ARAF_THREADS is not read, so a value that is not a number is harmless
        monkeypatch.setenv("ARAF_THREADS", "abc")
        for argv, out in every_command(tmp_path, mixed_csv, categorical_csv):
            assert main(argv) == 0
            assert "threads" not in read_manifest(out)["params"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "araf" in capsys.readouterr().out
