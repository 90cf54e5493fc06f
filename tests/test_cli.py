"""Command line round trips, exit codes, and manifests."""

import csv
import errno
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
    outs = {name: str(tmp_path / name) for name in ("binned.csv", "features.csv", "metrics.csv")}
    return [
        (["discretize", "--input", mixed_csv, "--label", "y", "--k", "3",
          "--out-data", outs["binned.csv"]], outs["binned.csv"]),
        (["mine", "--input", categorical_csv, "--label", "y", "--out-rules", rules], rules),
        (["transform", "--input", categorical_csv, "--label", "y", "--rules", rules,
          "--mode", "label", "--out", outs["features.csv"]], outs["features.csv"]),
        (["bench", "--variant", "s1", "--trials", "1", "--n", "200", "--no-eval",
          "--out", outs["metrics.csv"]], outs["metrics.csv"]),
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

    def test_threshold_and_fixed_size_conflict(self, categorical_csv, tmp_path):
        rc = main(
            [
                "mine", "--input", categorical_csv, "--label", "y",
                "--minsupp", "0.2", "--minconf", "0.6", "--d-freq", "10",
                "--out-rules", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2

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
            ("freq", "--d-conf", "d_conf must satisfy"),
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


    def test_manifest_records_the_s1_defaults(self, tmp_path):
        out = str(tmp_path / "metrics.csv")
        assert main(["bench", "--variant", "s1", "--trials", "1", "--no-eval", "--out", out]) == 0
        params = read_manifest(out)["params"]
        assert (params["n"], params["p"], params["d_freq"], params["d_conf"]) == (1000, 99, 45, 5)

    def test_freq_manifest_records_the_sizes_that_ran(self, tmp_path, monkeypatch):
        from araf import bench

        real = bench.run_freq_trial
        ran = []

        def spy(ds, n_prime, seed, d_freq, d_conf):
            ran.append((ds.n, ds.p, d_freq, d_conf))
            return real(ds, n_prime, seed, d_freq, d_conf)

        monkeypatch.setattr(bench, "run_freq_trial", spy)
        out = str(tmp_path / "metrics.csv")
        argv = ["bench", "--variant", "freq", "--trials", "1", "--n", "500", "--d-freq", "6",
                "--d-conf", "2", "--out", out]
        assert main(argv) == 0
        params = read_manifest(out)["params"]
        assert set(ran) == {(params["n"], params["p"], params["d_freq"], params["d_conf"])}
        assert set(ran) == {(500, 10, 6, 2)}


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
        write_manifest(out, "bench", {"trials": 1}, [])
        manifest = tmp_path / "out.csv.manifest.json"
        earlier = manifest.read_bytes()
        with pytest.raises(TypeError):
            write_manifest(out, "bench", {"trials": 1, "zz": object()}, [])
        assert manifest.read_bytes() == earlier
        assert os.listdir(tmp_path) == ["out.csv.manifest.json"]

    def test_no_temporary_file_is_left(self, mixed_csv, categorical_csv, tmp_path):
        before = set(os.listdir(tmp_path))
        written = set()
        for argv, out in every_command(tmp_path, mixed_csv, categorical_csv):
            assert main(argv) == 0
            written |= {os.path.basename(out), os.path.basename(out) + ".manifest.json"}
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
