"""Span recorder that wraps araf's public functions from outside the package.

Each wrapped call records one span (name, start, end, parent) in memory;
the spans are turned into per-layer busy time, self time and counts when
the run ends. A name bound elsewhere by ``from .x import y`` is replaced at
every module that holds it, so calls through ``araf.cli.load_csv`` and
``araf.data.load_csv`` are both seen, as is ``araf.mining.count_pairs``
looked up as a module global by ``mine_frequent``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced run.

    spans[i] is (name, start, end, parent index or -1); counts holds sums and
    maxima holds per-call maxima of the work counters.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[sid]
        self.spans[sid] = (name, start, end, parent)

    @contextlib.contextmanager
    def stage(self, name: str):
        """A workload operation: the root span of the layer calls it makes."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target at every araf module (or class) that binds it."""
        for module in {t[0] for t in TARGETS}:
            importlib.import_module("araf." + module)
        modules = [m for k, m in list(sys.modules.items()) if k == "araf" or k.startswith("araf.")]
        for module, attr, count in TARGETS:
            owner = sys.modules["araf." + module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name(module, attr), original, count)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """Per span name: busy seconds, self seconds and call count.

        Busy time counts a span only when no enclosing span has the same
        name; self time subtracts the time covered by direct child spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[sid]
            if not self._has_ancestor(parent, name):
                t["s"] += end - start
        return totals

    def stage_breakdown(self) -> dict:
        """Per root span name: its total time and each layer's busy time inside it."""
        out: dict = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            root = sid
            while self.spans[root][3] >= 0:
                root = self.spans[root][3]
            stage = out.setdefault(self.spans[root][0], {"s": 0.0, "layers": defaultdict(float)})
            if root == sid:
                stage["s"] += end - start
            elif not self._has_ancestor(parent, name):
                stage["layers"][name] += end - start
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][0] == name:
                return True
            sid = self.spans[sid][3]
        return False


# -- counters ---------------------------------------------------------------------


def _cells_of_result(tr, args, ds):
    tr.counts["data.load_csv.cells"] += ds.n * (ds.p + 1)


def _cells_written(tr, args, out):
    ds = args[0]
    tr.counts["data.write_csv.cells"] += ds.n * (ds.p + 1)


def _degenerate(tr, args, maps):
    tr.counts["discretize.degenerate_columns"] += sum(1 for m in maps if m.degenerate)


def _pairs_counted(tr, args, out):
    tr.counts["mining.pairs_counted"] += len(out)


def _pair_candidates(tr, args, out):
    tr.counts["mining.pair_candidates"] += len(out)


def _mined(tr, args, result):
    stats = result.table_stats
    entries = stats.singleton_entries + stats.pair_entries
    tr.maxima["mining.table_entries"] = max(tr.maxima["mining.table_entries"], entries)
    tr.counts["mining.pairs_kept"] += sum(1 for its in result.all_itemsets() if its.size == 2)


def _subsampled(tr, args, ds):
    tr.counts["sampling.subsample.rows"] += ds.n


def _interactions(tr, args, rules):
    tr.counts["rules.interactions_offered"] += sum(
        1 for its in args[0].all_itemsets() if its.size == 2
    )
    tr.counts["rules.interactions_output"] += sum(1 for r in rules if r.size == 2)


def _cells_out(tr, args, out):
    tr.counts["features.transform.cells_out"] += out[0].size


def _output_bytes(tr, args, code):
    ns = args[0]
    for attr in ("out_data", "out_map", "out_rules", "out", "recovery"):
        path = getattr(ns, attr, None)
        if path and os.path.exists(path):
            tr.counts["cli.output_bytes"] += os.path.getsize(path)


TARGETS = (
    ("data", "load_csv", _cells_of_result),
    ("data", "write_csv", _cells_written),
    ("data", "Dataset.categorical_matrix", None),
    ("discretize", "fit_dataset", _degenerate),
    ("discretize", "info_gain", None),
    ("discretize", "apply_dataset", None),
    ("mining", "mine_frequent", _mined),
    ("mining", "count_singletons", None),
    ("mining", "generate_pair_candidates", _pair_candidates),
    ("mining", "count_pairs", _pairs_counted),
    ("sampling", "subsample", _subsampled),
    ("rules", "select_rules", _interactions),
    ("rules", "select_rules_reluctant", _interactions),
    ("rules", "build_rule", None),
    ("rules", "parse_rules_jsonl", None),
    ("features", "transform", _cells_out),
    ("cli", "cmd_discretize", _output_bytes),
    ("cli", "cmd_mine", _output_bytes),
    ("cli", "cmd_transform", _output_bytes),
    ("cli", "cmd_bench", _output_bytes),
    ("cli", "write_manifest", None),
    ("bench", "gen_s1", None),
    ("bench", "mine_method", None),
    ("bench", "train_logreg", None),
)
"""(araf module, attribute, counter) for every traced layer boundary."""


def span_name(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr.rsplit(".", 1)[-1])


SPAN_NAMES = tuple(span_name(module, attr) for module, attr, _ in TARGETS)

COUNTERS = (
    "data.load_csv.cells",
    "data.write_csv.cells",
    "discretize.degenerate_columns",
    "mining.pairs_counted",
    "mining.pair_candidates",
    "sampling.subsample.rows",
    "rules.interactions_offered",
    "rules.interactions_output",
    "features.transform.cells_out",
    "cli.output_bytes",
)
"""Work counters summed over calls; reported per iteration."""
