"""Rules on the package source, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "araf"


def parsed_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def is_lazy_bench_import(module: str, node) -> bool:
    """cli imports bench inside the bench subcommand, so other commands skip loading it."""
    return module == "cli.py" and isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "bench")


def test_no_import_inside_a_function():
    found = set()
    for module, tree in parsed_modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not is_lazy_bench_import(module, node):
                    found.add("%s:%d" % (module, node.lineno))
    assert sorted(found) == []


def test_every_error_class_is_raised():
    modules = parsed_modules()
    classes = [node.name for node in modules["errors.py"].body if isinstance(node, ast.ClassDef)]
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert [name for name in classes if name != "ArafError" and name not in raised] == []


def test_every_error_class_is_caught_by_cli_main():
    # cli.main maps each class to its own exit code; a class it does not
    # name would split the taxonomy between errors.py and the raise sites
    modules = parsed_modules()
    classes = [node.name for node in modules["errors.py"].body if isinstance(node, ast.ClassDef)]
    main = next(node for node in modules["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {
        name.id
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name)
    }
    assert [name for name in classes if name not in caught] == []


def test_package_root_binds_only_the_version():
    # each name is declared once, in its defining module; the root re-exports none
    tree = parsed_modules()["__init__.py"]
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    assert bound == {"__version__"}


def test_a_rule_is_made_only_in_build_rule():
    # selection decides on arrays; a Rule is made for each rule it returns, in one place
    sites = set()
    for module, tree in parsed_modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if callee == "Rule":
                        sites.add("%s:%s" % (module, getattr(top, "name", node.lineno)))
    # the oracle scores its own rules, apart from the miner
    sites.discard("bench.py:brute_force_topk")
    assert sites == {"rules.py:build_rule"}


def test_no_two_raise_sites_share_a_message():
    # a rule stated at two raise sites can drift apart; each message is raised in one place
    sites = {}
    for module, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                if isinstance(message, ast.BinOp):  # "..." % values
                    message = message.left
                if isinstance(message, ast.Constant):
                    sites.setdefault(message.value, []).append("%s:%d" % (module, node.lineno))
    assert {message: where for message, where in sites.items() if len(where) > 1} == {}


def test_item_bit_sets_are_made_only_in_mining():
    # the class-ordered word layout of the held bit sets is one decision:
    # its packing, its popcounts and the lock on its build stay in one module
    found = set()
    for module, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
            else:
                names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if {"packbits", "bitwise_count", "threading"} & names and module != "mining.py":
                found.add("%s:%d" % (module, node.lineno))
    assert sorted(found) == []


def test_cli_loads_and_bins_only_in_load():
    # discretize, mine and transform read a table the same way: one step
    # loads it and bins it when --k is given
    calls = set()
    for top in parsed_modules()["cli.py"].body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if callee in ("load_csv", "fit_dataset", "apply_dataset"):
                    calls.add("%s:%s" % (getattr(top, "name", node.lineno), callee))
    assert calls == {"_load:load_csv", "_load:fit_dataset", "_load:apply_dataset"}


def test_np_unique_asks_for_an_index_or_inverse():
    # without return_index or return_inverse, np.unique (NumPy 2.4) calls
    # np.ma.is_masked, which imports numpy.ma on first use: 9-14 ms and about
    # 0.7 MB in every process, for a module araf never uses
    found = set()
    for module, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique":
                keywords = {kw.arg for kw in node.keywords}
                if not {"return_index", "return_inverse"} & keywords:
                    found.add("%s:%d" % (module, node.lineno))
    assert sorted(found) == []


def test_tables_are_written_only_by_write_csv():
    # discretize and transform write their tables through one writer, a block
    # of rows at a time; cmd_bench's metrics and recovery files are row lists
    sites = set()
    for module, tree in parsed_modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "writer":
                    sites.add("%s:%s" % (module, getattr(top, "name", node.lineno)))
    assert sites == {"data.py:write_csv", "cli.py:cmd_bench"}


def test_a_rank_space_is_made_only_in_rank_space():
    # a table's item indices and ranks are built once and held beside its bit sets
    sites = set()
    for module, tree in parsed_modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RankSpace":
                    sites.add("%s:%s" % (module, getattr(top, "name", node.lineno)))
    assert sites == {"mining.py:rank_space"}


def test_only_data_reads_csv_or_tells_a_stream_from_a_file():
    # one reader opens, decodes and refuses input, and one predicate,
    # data.is_stream, says whether a path can be read a second time
    sites = set()
    for module, tree in parsed_modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if callee == "open_csv":
                        sites.add("%s:%s:open_csv" % (module, getattr(top, "name", node.lineno)))
                names = {getattr(node, "attr", None), getattr(node, "id", None)}
                if isinstance(node, ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
                if "isfile" in names:
                    sites.add("%s:%s:isfile" % (module, getattr(top, "name", node.lineno)))
    assert sorted(site for site in sites if not site.startswith("data.py:")) == []
    assert {site.rsplit(":", 1)[1] for site in sites} == {"open_csv", "isfile"}
