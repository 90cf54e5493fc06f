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
