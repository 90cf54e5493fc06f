"""Command line round trips, exit codes, and manifests."""

import csv
import errno
import hashlib
import json
import os

import numpy as np
import pytest

from araf import cli
from araf.cli import main, write_manifest
from araf.data import open_output


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
        argv = ["bench", "--variant", variant, "--trials", "1", "--no-eval", flag, "0",
                "--out", str(out)]
        if flag != "--n":
            argv += ["--n", "60"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize(
        "variant, sizes",
        [("freq", (10000, 10, 5)), ("s1", (1000, 99, 45, 5)), ("s2", (1000, 99, 45, 5))],
        ids=["freq", "s1", "s2"],
    )
    def test_manifest_records_the_defaults(self, variant, sizes, tmp_path):
        out = str(tmp_path / "recovery.csv")
        argv = ["bench", "--variant", variant, "--trials", "1", "--no-eval", "--out", out]
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

    def test_transform_failing_partway_keeps_the_earlier_output(
        self, categorical_csv, tmp_path, monkeypatch, capsys
    ):
        rules = str(tmp_path / "rules.jsonl")
        assert main(["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules]) == 0
        out = tmp_path / "features.csv"
        out.write_bytes(b"earlier\n")
        before = sorted(os.listdir(tmp_path))
        calls = []
        real = cli._format_g12

        def full_disk_on_second_block(block):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(block)

        monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(cli, "_format_g12", full_disk_on_second_block)
        rc = main(["transform", "--input", categorical_csv, "--label", "y", "--rules", rules,
                   "--mode", "label", "--out", str(out)])
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

    def test_declared_kind_for_the_label_is_a_usage_error(self, categorical_csv, tmp_path, capsys):
        rc = main(["mine", "--input", categorical_csv, "--label", "y", "--assume-categorical",
                   "--declare", "y=continuous", "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: declared kind for label column 'y', which is always categorical\n"
        )
        assert os.listdir(tmp_path) == ["cat.csv"]

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

    @pytest.mark.parametrize("flags", [[], ["--assume-categorical"]], ids=["load", "header-read"])
    def test_non_utf8_csv_is_a_data_error(self, flags, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\ncaf\xe9,x\nb,z\n")
        rc = main(["mine", "--input", str(path), "--label", "y", *flags,
                   "--out-rules", str(tmp_path / "r.jsonl")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and str(path) in err

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
