"""Command line interface.

Four subcommands: discretize (entropy binning of continuous columns), mine
(rule mining to JSON lines), transform (rules to a binary feature matrix),
and bench (synthetic benchmark runs). Every run that writes an output file
also writes <output>.manifest.json recording the resolved parameters, seed,
and sha256 of each input, so results can be tied back to what produced them.
Each file is moved into place only once it is complete (data.open_output),
and a command opens all its output files before it reads its input, so an
output that cannot be written ends the run before any work, with nothing written.

Exit codes: 0 success, 2 bad usage, 3 bad input data, 4 internal failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import Column, ColumnKind, Dataset, Schema, load_csv, open_csv, open_output, open_text, write_csv
from .discretize import apply_dataset, fit_dataset, maps_to_json
from .errors import ArafError, DataError, UsageError, check_mining_values
from .features import FeatureMode, suggest_params, transform
from .mining import (
    MiningConfig,
    Scoring,
    mine_frequent,
    mine_with_thresholds,
    require_features,
)
from .rules import (
    generate_rules_threshold,
    parse_rules_jsonl,
    rules_to_jsonl,
    select_rules,
    select_rules_reluctant,
)

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path: str, command: str, params: dict, inputs: dict[str, str]) -> "str | None":
    """Record what produced out_path; returns the manifest path, or None if none is written.

    inputs maps each input path to its sha256, taken before any output of the
    run was moved into place, since an output may replace one of its inputs.
    A pipe, /dev/stdout or other out_path that is not a regular file gets no manifest.
    """
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        return None
    manifest = {
        "tool": "araf",
        "version": __version__,
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "params": params,
        "inputs": inputs,
        "output": out_path,
    }
    path = out_path + ".manifest.json"
    with open_output(path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _parse_declares(pairs: "list[str] | None") -> "dict[str, ColumnKind] | None":
    if not pairs:
        return None
    out: dict[str, ColumnKind] = {}
    for pair in pairs:
        name, sep, kind = pair.rpartition("=")
        if not sep or not name:
            raise UsageError("--declare expects NAME=categorical|continuous, got %r" % pair)
        try:
            out[name] = ColumnKind(kind)
        except ValueError:
            raise UsageError("--declare kind must be categorical or continuous, got %r" % kind) from None
    return out


def _load(args) -> tuple[Dataset, list]:
    """The input table, its continuous columns binned when --k is given, and the bin maps."""
    declared = _parse_declares(args.declare)
    if args.assume_categorical:
        for name, kind in (declared or {}).items():
            # the label keeps its own message, from load_csv
            if kind is ColumnKind.CONTINUOUS and name != args.label:
                raise UsageError("--declare %s=continuous contradicts --assume-categorical" % name)
        with open_csv(args.input) as reader:
            header = next(reader, [])
        declared = dict(declared or {})
        declared.update((name, ColumnKind.CATEGORICAL) for name in header if name != args.label)
    ds = load_csv(args.input, args.label, declared_kinds=declared)
    if args.k is None:
        return ds, []
    maps = fit_dataset(ds, k=args.k, l=args.l)
    return apply_dataset(ds, maps), maps


def _check_k(args) -> None:
    """Refuse a --k or --l the discretizer cannot fit, before any file is opened.

    --l without --k would bin nothing, so it is refused too. With --k, a
    missing --l resolves to 10 here, so that the manifest records it.
    """
    if args.k is not None and args.k < 2:
        raise UsageError("--k must be >= 2")
    if args.l is not None and args.l < 1:
        raise UsageError("--l must be >= 1")
    if args.l is not None and args.k is None:
        raise UsageError("--l applies only with --k")
    if args.k is not None and args.l is None:
        args.l = 10


def _file_params(args) -> dict:
    """The manifest params that discretize, mine and transform share."""
    return {"input": args.input, "label": args.label, "k": args.k, "l": args.l}


# -- discretize -------------------------------------------------------------------


def cmd_discretize(args) -> int:
    _check_k(args)
    # a path that cannot be written leaves the other unwritten too
    map_out = open_output(args.out_map) if args.out_map else nullcontext()
    with map_out as map_f, open_output(args.out_data) as data_f:
        mapped, maps = _load(args)
        inputs = {args.input: _sha256(args.input)}
        if map_f:
            map_f.write(maps_to_json(maps))
        write_csv(mapped, data_f)
    write_manifest(
        args.out_data,
        "discretize",
        {
            **_file_params(args),
            "out_map": args.out_map,
            "columns_discretized": [m.column for m in maps],
            "degenerate_columns": [m.column for m in maps if m.degenerate],
        },
        inputs,
    )
    return 0


# -- mine -------------------------------------------------------------------------


def cmd_mine(args) -> int:
    threshold_mode = args.minsupp is not None or args.minconf is not None
    fixed_flags = (
        args.d_freq is not None
        or args.d_conf is not None
        or args.per_class
        or args.reluctant
        or args.scoring is not None
        or args.subsample is not None
    )
    if threshold_mode and fixed_flags:
        raise UsageError(
            "threshold mining (--minsupp/--minconf) cannot be combined with "
            "fixed-size options (--d-freq/--d-conf/--scoring/--per-class/"
            "--reluctant/--subsample)"
        )
    if threshold_mode and (args.minsupp is None or args.minconf is None):
        raise UsageError("threshold mining needs both --minsupp and --minconf")
    if args.reluctant and args.scoring not in (None, "rconf"):
        raise UsageError("--reluctant requires rconf scoring")
    # refused before the input is read, by the check the library calls make
    check_mining_values(subsample=args.subsample, d_freq=args.d_freq, d_conf=args.d_conf,
                        minsupp=args.minsupp, minconf=args.minconf)
    _check_k(args)

    with open_output(args.out_rules) as f:
        ds, _ = _load(args)
        require_features(ds.schema)  # before suggest_params, which takes a width of 0 as usage

        if threshold_mode:
            result = mine_with_thresholds(ds, args.minsupp)
            rules = generate_rules_threshold(result, args.minconf)
            params: dict = {"minsupp": args.minsupp, "minconf": args.minconf}
        else:
            scoring_name = "rconf" if args.reluctant else args.scoring or "conf"
            per_class = args.per_class or args.reluctant
            d_freq, d_conf = args.d_freq, args.d_conf
            if d_freq is None or d_conf is None:
                sf, sc = suggest_params(ds.p, ds.num_classes)
                d_freq = sf if d_freq is None else d_freq
                d_conf = min(sc, d_freq) if d_conf is None else d_conf
            config = MiningConfig(
                d_freq=d_freq,
                d_conf=d_conf,
                per_class=per_class,
                scoring=Scoring(scoring_name),
                reluctant=args.reluctant,
                subsample=args.subsample,
                seed=args.seed,
            )
            result = mine_frequent(ds, config)
            rules = (select_rules_reluctant if config.reluctant else select_rules)(result, config)
            params = {
                "d_freq": d_freq,
                "d_conf": d_conf,
                "scoring": scoring_name,
                "per_class": per_class,
                "reluctant": args.reluctant,
                "subsample": args.subsample,
            }
        f.write(rules_to_jsonl(rules, ds.schema))
        inputs = {args.input: _sha256(args.input)}
    params.update(
        {
            **_file_params(args),
            "seed": args.seed,
            "n": ds.n,
            "p": ds.p,
            "rules_written": len(rules),
            "singleton_table_entries": result.table_stats.singleton_entries,
            "pair_table_entries": result.table_stats.pair_entries,
        }
    )
    write_manifest(args.out_rules, "mine", params, inputs)
    return 0


# -- transform ----------------------------------------------------------------------


def cmd_transform(args) -> int:
    _check_k(args)
    with open_output(args.out) as f:
        ds, _ = _load(args)
        with open_text(args.rules) as rules_f:
            text = rules_f.read()
        matrix, names = transform(ds, parse_rules_jsonl(text, ds.schema), FeatureMode(args.mode))
        # every cell is a category id or a 0/1 indicator, whose "%.12g" is its digits
        top = int(matrix.max(initial=0))
        digits = tuple(map(str, range(top + 1)))
        features = tuple(Column(name, ColumnKind.CATEGORICAL, digits) for name in names)
        schema = Schema(features, ds.schema.label_name, ds.schema.classes)
        write_csv(Dataset(schema, tuple(matrix.astype(np.min_scalar_type(top)).T), ds.labels), f)
        inputs = {path: _sha256(path) for path in (args.input, args.rules)}
    write_manifest(
        args.out,
        "transform",
        {
            **_file_params(args),
            "rules": args.rules,
            "mode": args.mode,
            "features": len(names),
        },
        inputs,
    )
    return 0


# -- bench --------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    evaluated = args.variant != "freq" and not args.no_eval
    if args.recovery is not None and not evaluated:
        # such a run has no metrics rows, so --out holds its recovery table
        raise UsageError("--recovery does not apply to --variant freq or --no-eval, "
                         "which write their recovery table to --out")
    if args.variant == "freq" and args.d_conf is not None:
        raise UsageError("--d-conf does not apply to --variant freq, which selects no rules")
    if args.variant == "freq" and args.no_eval:
        raise UsageError("--no-eval does not apply to --variant freq, which evaluates nothing")
    from .bench import DEFAULTS, bench  # imported on use: only bench needs it

    # only a missing flag takes the default; 0 is a value
    sizes = {
        k: d if getattr(args, k) is None else getattr(args, k)
        for k, d in DEFAULTS[args.variant].items()
    }
    # refused before the first trial's data is generated
    check_mining_values(d_freq=sizes["d_freq"], d_conf=sizes.get("d_conf"))
    # open both files before any trial runs; neither is moved into place until both are written
    recovery_out = open_output(args.recovery) if args.recovery else nullcontext()
    with open_output(args.out) as f, recovery_out as recovery_f:
        metrics, recovery = bench(args.variant, args.trials, args.seed, sizes, with_eval=not args.no_eval)
        csv.writer(f).writerows(metrics)
        table_f = recovery_f if evaluated else f
        if table_f:
            csv.writer(table_f).writerows(recovery)
    write_manifest(
        args.out,
        "bench",
        {
            "variant": args.variant,
            "trials": args.trials,
            "seed": args.seed,
            **sizes,
            "recovery": args.recovery,
            "no_eval": args.no_eval,
        },
        {},
    )
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="araf",
        description="Mine class association rules and turn them into binary features.",
    )
    parser.add_argument("--version", action="version", version="araf %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_io(p):
        p.add_argument("--input", required=True, help="input CSV with a header row")
        p.add_argument("--label", required=True, help="name of the label column")
        p.add_argument(
            "--declare",
            action="append",
            metavar="NAME=KIND",
            help="override inferred column kind (categorical|continuous); repeatable",
        )
        p.add_argument(
            "--assume-categorical",
            action="store_true",
            help="treat every feature column as categorical regardless of content",
        )

    d = sub.add_parser("discretize", help="entropy-based binning of continuous columns")
    add_common_io(d)
    d.add_argument("--k", type=int, required=True, help="number of intervals per column")
    d.add_argument("--l", type=int, help="candidate cut points per round (default 10)")
    d.add_argument("--out-data", required=True, help="output CSV with binned columns")
    d.add_argument("--out-map", help="optional JSON file for the fitted thresholds")
    d.set_defaults(func=cmd_discretize)

    m = sub.add_parser("mine", help="mine class association rules to JSON lines")
    add_common_io(m)
    m.add_argument("--d-freq", type=int, help="frequent itemset capacity (default 5*classes*sqrt(p))")
    m.add_argument("--d-conf", type=int, help="rule count (default 5*sqrt(p), at most d_freq)")
    m.add_argument(
        "--scoring",
        choices=sorted(scoring.value for scoring in Scoring),
        help="rule score (default conf)",
    )
    m.add_argument("--per-class", action="store_true", help="split itemset capacity per class")
    m.add_argument(
        "--reluctant",
        action="store_true",
        help="per-class rconf mining that drops pairs no better than their parts",
    )
    m.add_argument("--minsupp", type=float, help="threshold mode: minimum support fraction")
    m.add_argument("--minconf", type=float, help="threshold mode: minimum confidence")
    m.add_argument("--subsample", type=int, help="mine on a bootstrap subsample of this size")
    m.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    m.add_argument("--k", type=int, help="discretize continuous columns into this many intervals first")
    m.add_argument("--l", type=int, help="candidate cut points, with --k only (default 10)")
    m.add_argument("--out-rules", required=True, help="output rules file (JSON lines)")
    m.set_defaults(func=cmd_mine)

    t = sub.add_parser("transform", help="apply mined rules as binary feature columns")
    add_common_io(t)
    t.add_argument("--rules", required=True, help="rules file produced by mine")
    t.add_argument(
        "--mode",
        choices=[mode.value for mode in FeatureMode],
        required=True,
        help="label: encoded originals + all rule indicators; onehot: one-hot originals + pair indicators",
    )
    t.add_argument("--k", type=int, help="discretize continuous columns first (must match mining)")
    t.add_argument("--l", type=int, help="candidate cut points, with --k only (default 10)")
    t.add_argument("--out", required=True, help="output CSV feature matrix")
    t.set_defaults(func=cmd_transform)

    b = sub.add_parser("bench", help="run a synthetic benchmark")
    b.add_argument("--variant", choices=("freq", "s1", "s2"), required=True)
    b.add_argument("--trials", type=int, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--n", type=int, help="rows per trial (default 10000 freq, 1000 s1/s2)")
    b.add_argument("--p", type=int, help="feature count (default 10 freq, 99 s1/s2)")
    b.add_argument("--d-freq", type=int, help="itemset capacity (default 5 freq, 45 s1/s2)")
    b.add_argument("--d-conf", type=int, help="rule count, s1/s2 only (default 5)")
    b.add_argument("--no-eval", action="store_true", help="skip the logistic evaluation, s1/s2 only")
    b.add_argument(
        "--out",
        required=True,
        help="output CSV of per-trial metrics; with --variant freq or --no-eval, the recovery table",
    )
    b.add_argument(
        "--recovery",
        help="CSV of rule recovery counts of an evaluated s1/s2 run",
    )
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # NumPy's generators refuse negative seeds; mine and bench take --seed
        if getattr(args, "seed", 0) < 0:
            raise UsageError("--seed must be >= 0")
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except ArafError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        # NumPy refuses an array beyond the address space at once, as --subsample 10**14 asks
        print("error: out of memory" + (": %s" % exc if str(exc) else ""), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
