"""Hostile CSV bytes and boundary flags end in a documented exit code, never a traceback.

cli.main runs in process on files in a fresh directory. The CSV is built
from cells that parse and from hazards: a byte-order mark, NUL, CR, quotes,
commas, a cell beyond the csv module's 131,072-character field limit, bytes
that are not UTF-8, and empty or duplicate header names. Integer flags take
0, 1, n, n + 1 or 10**14, where n is the number of data rows; a --subsample
of 10**14 asks for more than 2**48 bytes, which NumPy refuses without
allocating.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from araf.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

CELLS = [b"u", b"v", b"1", b"2.5", b"-3", b"u", b"v", b"0.5", b"7", b"w"]
HAZARDS = [
    b"\xef\xbb\xbf",  # a byte-order mark inside a cell
    b"\x00",
    b"u\rv",
    b'"',
    b'"q,"',
    b"a,b",
    b"x" * 140_000,
    b"\xff\xfe",
    b"caf\xe9",
    b"",
]
RULES_LINES = [
    '{"antecedent": [{"feature": "a", "category": "u"}], "class": "1"}',
    '{"antecedent": [{"feature": "a", "category": "u"}, {"feature": "b", "category": "v"}], "class": "u"}',
    '{"antecedent": [{"feature": "zz", "category": "u"}], "class": "1"}',
    "",
    "[]",
    "{",
]


@st.composite
def csv_files(draw):
    """The bytes of a CSV file and its number of data rows; half the files hold hazards."""
    hostile = draw(st.booleans())
    names = draw(st.lists(st.sampled_from([b"a", b"b", b"c"]), unique=True, min_size=1, max_size=3))
    if hostile:
        names += draw(st.lists(st.sampled_from([b"", b"a"]), max_size=1))
    names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from([b"y", b"z"] if hostile else [b"y"])))
    cell = st.sampled_from(CELLS * 3 + HAZARDS if hostile else CELLS)
    n = draw(st.integers(0 if hostile else 2, 6))
    rows = [[draw(cell) for _ in names] for _ in range(n)]
    if hostile and rows and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))].pop()  # a ragged row
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    text = newline.join(b",".join(row) for row in [names] + rows)
    if draw(st.booleans()):
        text += newline
    if draw(st.booleans()):
        text = b"\xef\xbb\xbf" + text
    return text, n


def boundary(n):
    """0, 1, n, n + 1 or 10**14; n comes first, so that examples shrink toward a value that runs."""
    return st.sampled_from([n, 1, n + 1, 10**14, 0])


@st.composite
def runs(draw):
    """argv without paths, the CSV bytes, and the rules file for transform."""
    data, n = draw(csv_files())
    command = draw(st.sampled_from(["discretize", "mine", "transform"]))
    flags = []

    def maybe(flag):  # given in a third of the runs
        if draw(st.integers(0, 2)) == 2:
            flags.extend([flag, str(draw(boundary(n)))])

    if command == "discretize":
        flags += ["--k", str(draw(boundary(n)))]
        maybe("--l")
    else:
        maybe("--k")
        maybe("--l")
    if command == "mine":
        flags += draw(st.sampled_from([[], ["--reluctant"], ["--per-class", "--scoring", "lift"]]))
        for flag in ("--d-freq", "--d-conf", "--subsample"):
            maybe(flag)
    if command == "transform":
        flags += ["--mode", draw(st.sampled_from(["label", "onehot"]))]
    if draw(st.booleans()):
        flags.append("--assume-categorical")
    rules = "\n".join(draw(st.lists(st.sampled_from(RULES_LINES), max_size=3)))
    return command, flags, data, rules


OUTPUT_FLAG = {"discretize": "--out-data", "mine": "--out-rules", "transform": "--out"}


def snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


@settings(max_examples=500, deadline=None)
@given(runs(), st.booleans())
def test_every_run_ends_in_a_documented_exit_code(run, output_exists):
    command, flags, data, rules = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as f:
            f.write(data)
        out = os.path.join(tmp, "out")
        argv = [command, "--input", path, "--label", "y", *flags, OUTPUT_FLAG[command], out]
        if command == "transform":
            argv += ["--rules", os.path.join(tmp, "rules.jsonl")]
            with open(argv[-1], "w") as f:
                f.write(rules)
        if output_exists:
            with open(out, "w") as f:
                f.write("earlier\n")
        before = snapshot(tmp)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in DOCUMENTED_EXIT_CODES
        if code == 0:
            assert os.path.exists(out + ".manifest.json")
        else:
            assert snapshot(tmp) == before
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
